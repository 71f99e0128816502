#include "common/quadrature.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/math.hpp"
#include "stochastic/bernstein.hpp"

namespace oscs {
namespace {

TEST(GaussLegendre, WeightsSumToIntervalLength) {
  for (std::size_t n : {1u, 2u, 5u, 16u, 64u}) {
    const QuadratureRule rule = gauss_legendre(n);
    ASSERT_EQ(rule.nodes.size(), n);
    double wsum = 0.0;
    for (double w : rule.weights) wsum += w;
    EXPECT_NEAR(wsum, 2.0, 1e-12) << "n=" << n;
  }
}

TEST(GaussLegendre, NodesAreSymmetricAndSorted) {
  const QuadratureRule rule = gauss_legendre(9);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_NEAR(rule.nodes[i], -rule.nodes[8 - i], 1e-13);
    if (i > 0) {
      EXPECT_LT(rule.nodes[i - 1], rule.nodes[i]);
    }
  }
  // Odd rule has a node exactly at 0.
  EXPECT_NEAR(rule.nodes[4], 0.0, 1e-14);
}

TEST(GaussLegendre, ExactForPolynomialsUpToDegree2nMinus1) {
  // n = 4 integrates degree 7 exactly: integral of x^6 over [-1,1] = 2/7.
  const double v = integrate_gl([](double x) { return std::pow(x, 6.0); },
                                -1.0, 1.0, 4);
  EXPECT_NEAR(v, 2.0 / 7.0, 1e-13);
  // ...but not degree 8 (integral 2/9).
  const double v8 = integrate_gl([](double x) { return std::pow(x, 8.0); },
                                 -1.0, 1.0, 4);
  EXPECT_GT(std::fabs(v8 - 2.0 / 9.0), 1e-6);
}

TEST(IntegrateGl, SmoothTranscendentalFunctions) {
  EXPECT_NEAR(integrate_gl([](double x) { return std::sin(x); }, 0.0, M_PI),
              2.0, 1e-12);
  EXPECT_NEAR(integrate_gl([](double x) { return std::exp(x); }, 0.0, 1.0),
              M_E - 1.0, 1e-12);
}

TEST(IntegrateGl, RejectsZeroPointRule) {
  EXPECT_THROW(gauss_legendre(0), std::invalid_argument);
  EXPECT_THROW((void)integrate_gl([](double x) { return x; }, 0.0, 1.0, 0),
               std::invalid_argument);
}

/// integrate_gl with the rule built afresh by gauss_legendre: the
/// memoized rule must reproduce this bit for bit.
double integrate_uncached(const std::function<double(double)>& f, double a,
                          double b, std::size_t n) {
  const QuadratureRule rule = gauss_legendre(n);
  const double half = 0.5 * (b - a);
  const double mid = 0.5 * (a + b);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += rule.weights[i] * f(mid + half * rule.nodes[i]);
  }
  return half * sum;
}

TEST(IntegrateGl, ConcurrentCallsMatchASingleThreadedRunBitForBit) {
  // Four threads race on rules no other test builds (cold memo slots),
  // each walking the point counts in a different order and mixing in the
  // nested tensor-product moments and one rule past the memoized range.
  const std::vector<std::size_t> counts = {41, 43, 47, 53, 59, 61, 300};
  const auto f = [](double x) { return std::exp(-x) * std::sin(3.0 * x); };
  const auto f2 = [](double x, double y) { return std::sqrt(x * y + 0.1); };
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<double>> integrals(kThreads);
  std::vector<std::vector<double>> moments(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t k = 0; k < counts.size(); ++k) {
        const std::size_t n = counts[(k + t * 3) % counts.size()];
        integrals[t].push_back(integrate_gl(f, 0.0, 2.0, n));
      }
      moments[t] = stochastic::bernstein_moments2(f2, 2, 3, 37 + t % 2);
    });
  }
  for (std::thread& worker : workers) worker.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < counts.size(); ++k) {
      const std::size_t n = counts[(k + t * 3) % counts.size()];
      const double single = integrate_gl(f, 0.0, 2.0, n);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(integrals[t][k]),
                std::bit_cast<std::uint64_t>(single))
          << "thread " << t << " n=" << n;
      const double uncached = integrate_uncached(f, 0.0, 2.0, n);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(single),
                std::bit_cast<std::uint64_t>(uncached))
          << "n=" << n;
    }
    const std::vector<double> single =
        stochastic::bernstein_moments2(f2, 2, 3, 37 + t % 2);
    ASSERT_EQ(moments[t].size(), single.size());
    for (std::size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(moments[t][i]),
                std::bit_cast<std::uint64_t>(single[i]))
          << "thread " << t << " moment " << i;
    }
  }
}

TEST(IntegrateAdaptive, MatchesAnalyticValues) {
  EXPECT_NEAR(
      integrate_adaptive([](double x) { return x * x; }, 0.0, 3.0, 1e-12),
      9.0, 1e-9);
  EXPECT_NEAR(integrate_adaptive([](double x) { return std::sin(x); }, 0.0,
                                 M_PI, 1e-12),
              2.0, 1e-9);
}

TEST(IntegrateAdaptive, HandlesSharpPeak) {
  // Narrow Lorentzian centred mid-interval: integral of
  // g/((x-c)^2 + g^2) over R is pi; over [0,1] it is close to pi.
  const double g = 1e-3;
  const double c = 0.5;
  const double v = integrate_adaptive(
      [&](double x) { return g / ((x - c) * (x - c) + g * g); }, 0.0, 1.0,
      1e-10);
  const double exact = std::atan((1.0 - c) / g) + std::atan(c / g);
  EXPECT_NEAR(v, exact, 1e-7);
}

TEST(IntegrateAdaptive, ReversedIntervalGivesNegatedValue) {
  const double fwd =
      integrate_adaptive([](double x) { return x; }, 0.0, 2.0, 1e-12);
  const double rev =
      integrate_adaptive([](double x) { return x; }, 2.0, 0.0, 1e-12);
  EXPECT_NEAR(fwd, -rev, 1e-10);
}

class GlOrderP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GlOrderP, IntegratesRunningExampleAccurately) {
  // The Bernstein fit integrand family: x^0.45 * x^i (1-x)^(n-i) is smooth
  // on (0,1); check convergence on a representative member.
  const std::size_t n = GetParam();
  const double v = integrate_gl(
      [](double x) { return std::pow(x, 0.45) * x * (1.0 - x); }, 0.0, 1.0,
      n);
  // Exact: B(2.45, 2) = Gamma(2.45)Gamma(2)/Gamma(4.45).
  const double exact = std::tgamma(2.45) * std::tgamma(2.0) /
                       std::tgamma(4.45);
  EXPECT_NEAR(v, exact, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Orders, GlOrderP,
                         ::testing::Values(16u, 32u, 64u, 128u));

}  // namespace
}  // namespace oscs
