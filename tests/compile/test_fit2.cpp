/// Tensor-product projection and quantization tests: exact recovery of
/// bilinear targets, per-axis degree auto-selection in coefficient-count
/// order, the [0,1] active-set constraint on the Kronecker system, and
/// the 2D comparator-grid quantizer with its partition-of-unity error
/// bound, and exact recovery of fuzzed separable targets.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "compile/fit.hpp"
#include "compile/quantize.hpp"
#include "stochastic/bernstein.hpp"

namespace oscs::compile {
namespace {

namespace sc = oscs::stochastic;

TEST(BivariateFitTest, RecoversBilinearExactly) {
  const ProjectionResult2 result = project2_at_degree(
      [](double x, double y) { return x * y; }, 1, 1);
  EXPECT_TRUE(result.target_met);
  EXPECT_LT(result.max_error, 1e-9);
  EXPECT_FALSE(result.clamped);
  EXPECT_NEAR(result.poly.coeff(0, 0), 0.0, 1e-9);
  EXPECT_NEAR(result.poly.coeff(1, 1), 1.0, 1e-9);
}

TEST(BivariateFitTest, AlphaBlendIsDegreeOneOne) {
  const ProjectionOptions2 options;
  const ProjectionResult2 result = project2(
      [](double x, double y) { return y * x + (1.0 - y) * 0.25; }, options);
  EXPECT_TRUE(result.target_met);
  EXPECT_EQ(result.degree_x, 1u);
  EXPECT_EQ(result.degree_y, 1u);
  EXPECT_NEAR(result.poly.coeff(0, 0), 0.25, 1e-9);
  EXPECT_NEAR(result.poly.coeff(1, 1), 1.0, 1e-9);
}

TEST(BivariateFitTest, AutoSelectionGrowsAsymmetrically) {
  // f = x^3 * y needs degree 3 along x but only 1 along y; the selector
  // must find a pair with deg_y < deg_x instead of growing both.
  ProjectionOptions2 options;
  options.max_degree_x = 4;
  options.max_degree_y = 4;
  options.target_max_error = 1e-6;
  const ProjectionResult2 result = project2(
      [](double x, double y) { return x * x * x * y; }, options);
  EXPECT_TRUE(result.target_met);
  EXPECT_EQ(result.degree_x, 3u);
  EXPECT_EQ(result.degree_y, 1u);
}

TEST(BivariateFitTest, ConstraintClampsOutOfRangeTargets) {
  // f = 1.5 x y leaves [0,1]: the unconstrained optimum violates the box
  // and the active-set solve must pin it back inside.
  const ProjectionResult2 result = project2_at_degree(
      [](double x, double y) { return 1.5 * x * y; }, 1, 1);
  EXPECT_TRUE(result.clamped);
  EXPECT_GT(result.feasibility_gap, 0.0);
  EXPECT_TRUE(result.poly.is_sc_compatible(1e-12));
}

TEST(BivariateFitTest, SmoothTargetMeetsDefaultBudget) {
  const ProjectionResult2 result = project2(
      [](double x, double y) { return std::sqrt((x * x + y * y) / 2.0); },
      {.max_degree_x = 5, .max_degree_y = 5, .target_max_error = 0.02});
  EXPECT_TRUE(result.target_met) << "max_error = " << result.max_error;
}

TEST(BivariateFitTest, OptionValidation) {
  ProjectionOptions2 bad;
  bad.min_degree_x = 3;
  bad.max_degree_x = 2;
  EXPECT_THROW((void)project2([](double, double) { return 0.5; }, bad),
               std::invalid_argument);
  ProjectionOptions2 bad_samples;
  bad_samples.error_samples = 1;
  EXPECT_THROW(
      (void)project2([](double, double) { return 0.5; }, bad_samples),
      std::invalid_argument);
  ProjectionOptions2 bad_target;
  bad_target.target_max_error = 0.0;
  EXPECT_THROW(
      (void)project2([](double, double) { return 0.5; }, bad_target),
      std::invalid_argument);
}

TEST(BivariateQuantizeTest, SnapsToComparatorGridWithBound) {
  const sc::BernsteinPoly2 poly(1, 1, {0.1, 0.3, 0.6, 0.999});
  const QuantizationResult2 result = quantize2(poly, 8);
  ASSERT_EQ(result.levels.size(), 4u);
  const double scale = 256.0;
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(result.poly.coeffs()[k],
                static_cast<double>(result.levels[k]) / scale, 1e-12);
    EXPECT_LE(std::abs(result.poly.coeffs()[k] - poly.coeffs()[k]),
              result.max_coeff_delta + 1e-12);
  }
  // Partition of unity: the induced sup-norm error equals the worst snap.
  EXPECT_DOUBLE_EQ(result.induced_error_bound, result.max_coeff_delta);
  EXPECT_LE(result.max_coeff_delta, 0.5 / scale + 1e-12);
}

TEST(BivariateQuantizeTest, ExactGridValuesPassThrough) {
  const sc::BernsteinPoly2 poly(1, 1, {0.0, 0.25, 0.5, 1.0});
  const QuantizationResult2 result = quantize2(poly, 16);
  EXPECT_EQ(result.poly.coeffs(), poly.coeffs());
  EXPECT_DOUBLE_EQ(result.max_coeff_delta, 0.0);
}

TEST(BivariateQuantizeTest, RejectsBadWidthAndRange) {
  const sc::BernsteinPoly2 poly(1, 1, {0.1, 0.2, 0.3, 0.4});
  EXPECT_THROW((void)quantize2(poly, 0), std::invalid_argument);
  EXPECT_THROW((void)quantize2(poly, 63), std::invalid_argument);
  const sc::BernsteinPoly2 out_of_range(1, 1, {0.1, 0.2, 0.3, 1.4});
  EXPECT_THROW((void)quantize2(out_of_range, 16), std::invalid_argument);
}

/// One fuzz configuration: everything derives from the seed.
struct Fuzz {
  std::uint64_t seed;
};

class BivariateFitPropertyTest : public ::testing::TestWithParam<Fuzz> {
 protected:
  oscs::Xoshiro256 rng_{GetParam().seed};

  /// Random degree in [0, max_degree] and coefficients in [0, 1].
  sc::BernsteinPoly random_poly(std::size_t max_degree) {
    const auto n = static_cast<std::size_t>(rng_() % (max_degree + 1));
    std::vector<double> coeffs(n + 1, 0.0);
    for (double& c : coeffs) c = rng_.uniform01();
    return sc::BernsteinPoly(std::move(coeffs));
  }

  double random_unit() { return rng_.uniform01(); }
};

TEST_P(BivariateFitPropertyTest, SeparableFitIsExact) {
  // f(x, y) = p(x) q(y) with Bernstein factors is exactly representable
  // at the factor degrees: the tensor fit must recover it.
  const sc::BernsteinPoly p = random_poly(3);
  const sc::BernsteinPoly q = random_poly(3);
  const ProjectionResult2 fitted = project2_at_degree(
      [&](double x, double y) { return p(x) * q(y); }, p.degree(),
      q.degree());
  for (int trial = 0; trial < 8; ++trial) {
    const double x = random_unit();
    const double y = random_unit();
    EXPECT_NEAR(fitted.poly(x, y), p(x) * q(y), 1e-8)
        << "x=" << x << " y=" << y;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FuzzSeeds, BivariateFitPropertyTest,
    ::testing::Values(Fuzz{1}, Fuzz{2}, Fuzz{3}, Fuzz{0xBEEF}, Fuzz{0xC0FFEE},
                      Fuzz{0xDA7E2019}, Fuzz{42}, Fuzz{0x5EED5EED}),
    [](const auto& info) { return "seed" + std::to_string(info.index); });

}  // namespace
}  // namespace oscs::compile
