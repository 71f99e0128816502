#include "stochastic/resc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "stochastic/functions.hpp"

namespace oscs::stochastic {
namespace {

TEST(ScInputsTest, SelectCountsOnes) {
  ScInputs in;
  in.axes = {{Bitstream(std::vector<bool>{1, 0, 1}),
              Bitstream(std::vector<bool>{1, 0, 0})}};
  EXPECT_EQ(in.select(0, 0), 2u);
  EXPECT_EQ(in.select(0, 1), 0u);
  EXPECT_EQ(in.select(0, 2), 1u);
  EXPECT_EQ(in.axes[0].size(), 2u);
  EXPECT_EQ(in.length(), 3u);
}

TEST(ScInputsTest, EmptyInputsAreOrderZeroWithZeroLength) {
  const ScInputs in;
  EXPECT_TRUE(in.axes.empty());
  EXPECT_EQ(in.length(), 0u);
}

TEST(ScInputsTest, SelectWithNoXStreamsIsAlwaysZero) {
  // Order 0: the adder has no inputs, so every cycle selects z_0 - the
  // degenerate MUX a constant polynomial compiles to.
  ScInputs in;
  in.axes = {{}};
  in.programs = {{Bitstream(std::vector<bool>{1, 0, 1, 1})}};
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(in.select(0, t), 0u) << "t=" << t;
  }
}

TEST(ReSCUnit, OrderZeroUnitPassesCoefficientStreamThrough) {
  const ReSCUnit unit(BernsteinPoly({0.75}));
  EXPECT_EQ(unit.orders(), std::vector<std::size_t>{0});
  ScInputs in;
  in.axes = {{}};
  in.programs = {{Bitstream(std::vector<bool>{1, 0, 1, 1})}};
  const Bitstream out = unit.output_stream(in);
  // No data streams: the output IS the z_0 stream.
  EXPECT_TRUE(out == in.programs[0][0]);
  EXPECT_DOUBLE_EQ(unit.evaluate(in), 0.75);
  EXPECT_DOUBLE_EQ(unit.exact_expectation({0.3}), 0.75);
}

TEST(ReSCUnit, WordParallelMuxMatchesPerBitSelectAtOddLengths) {
  // Cross-check the carry-save adder + equality-mask MUX against the
  // per-bit select() definition at tail lengths straddling word
  // boundaries (regression for the wordops tail handling).
  const BernsteinPoly poly({0.2, 0.6, 0.4});
  const ReSCUnit unit(poly);
  for (std::size_t length : {1u, 63u, 64u, 65u, 130u}) {
    const ScInputs in =
        make_sc_inputs({0.55}, {poly.coeffs()}, {2}, length, ScInputConfig{});
    const Bitstream out = unit.output_stream(in);
    ASSERT_EQ(out.size(), length);
    for (std::size_t t = 0; t < length; ++t) {
      EXPECT_EQ(out.bit(t), in.programs[0][in.select(0, t)].bit(t))
          << "length=" << length << " t=" << t;
    }
  }
}

TEST(MakeScInputs, ShapesAndProbabilities) {
  const std::vector<double> coeffs{0.25, 0.625, 0.375, 0.75};
  const ScInputs in = make_sc_inputs({0.5}, {coeffs}, {3}, 1 << 13);
  ASSERT_EQ(in.axes.size(), 1u);
  ASSERT_EQ(in.axes[0].size(), 3u);
  ASSERT_EQ(in.programs.size(), 1u);
  ASSERT_EQ(in.programs[0].size(), 4u);
  for (const auto& xs : in.axes[0]) {
    EXPECT_NEAR(xs.probability(), 0.5, 0.02);
  }
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    EXPECT_NEAR(in.programs[0][j].probability(), coeffs[j], 0.02) << j;
  }
}

TEST(MakeScInputs, RejectsCoefficientCountMismatch) {
  EXPECT_THROW(make_sc_inputs({0.5}, {{0.1, 0.2}}, {2}, 64),
               std::invalid_argument);
  EXPECT_THROW(make_sc_inputs({0.5, 0.5}, {{0.1, 0.2, 0.3}}, {2}, 64),
               std::invalid_argument);
}

TEST(MakeScInputs, StreamsAreDecorrelated) {
  const ScInputs in = make_sc_inputs({0.5}, {{0.5, 0.5, 0.5}}, {2}, 4096);
  EXPECT_FALSE(in.axes[0][0] == in.axes[0][1]);
  const double corr = scc(in.axes[0][0], in.axes[0][1]);
  EXPECT_LT(std::fabs(corr), 0.1);
}

TEST(ReSCUnit, RejectsNonScCompatiblePolynomial) {
  EXPECT_THROW(ReSCUnit(BernsteinPoly({0.2, 1.4})), std::invalid_argument);
  EXPECT_THROW(ReSCUnit(BernsteinPoly({-0.2, 0.4})), std::invalid_argument);
}

TEST(ReSCUnit, ExactExpectationEqualsBernsteinValue) {
  // The architecture computes sum_k C(n,k) x^k (1-x)^{n-k} b_k, which is
  // algebraically the Bernstein polynomial itself - the core ReSC
  // correctness identity (Qian et al.).
  const BernsteinPoly poly = paper_f2_bernstein();
  const ReSCUnit unit(poly);
  for (double x = 0.0; x <= 1.0; x += 0.05) {
    EXPECT_NEAR(unit.exact_expectation({x}), poly(x), 1e-12) << x;
  }
}

TEST(ReSCUnit, OutputStreamImplementsAdderMux) {
  // Hand-crafted two-cycle example, order 2.
  ScInputs in;
  in.axes = {{Bitstream(std::vector<bool>{1, 0}),
              Bitstream(std::vector<bool>{1, 0})}};
  in.programs = {{Bitstream(std::vector<bool>{0, 1}),    // z0
                  Bitstream(std::vector<bool>{0, 0}),    // z1
                  Bitstream(std::vector<bool>{1, 0})}};  // z2
  const ReSCUnit unit(BernsteinPoly({0.5, 0.5, 0.5}));
  const Bitstream out = unit.output_stream(in);
  // Cycle 0: k = 2 -> z2[0] = 1. Cycle 1: k = 0 -> z0[1] = 1.
  EXPECT_TRUE(out.bit(0));
  EXPECT_TRUE(out.bit(1));
}

TEST(ReSCUnit, StimulusShapeMismatchThrows) {
  const ReSCUnit unit(paper_f2_bernstein());  // order 3
  const ScInputs wrong = make_sc_inputs({0.5}, {{0.5, 0.5, 0.5}}, {2}, 16);
  EXPECT_THROW(unit.output_stream(wrong), std::invalid_argument);
}

TEST(ReSCUnit, Fig1WorkedExampleAtXHalf) {
  // Paper Fig. 1b: f2 at x = 0.5 -> output probability 4/8 = 0.5.
  const ReSCUnit unit(paper_f2_bernstein());
  const double est = unit.evaluate({0.5}, 1 << 14, {});
  EXPECT_NEAR(est, 0.5, 0.02);
}

TEST(ReSCUnit, AccuracyImprovesWithStreamLength) {
  const ReSCUnit unit(paper_f2_bernstein());
  auto sweep_error = [&](std::size_t len) {
    double err = 0.0;
    int count = 0;
    for (double x = 0.05; x <= 0.96; x += 0.1, ++count) {
      ScInputConfig cfg;
      cfg.seed = 17;
      err += std::fabs(unit.evaluate({x}, len, cfg) -
                       unit.exact_expectation({x}));
    }
    return err / count;
  };
  const double short_err = sweep_error(1 << 6);
  const double long_err = sweep_error(1 << 14);
  EXPECT_LT(long_err, short_err);
  EXPECT_LT(long_err, 0.02);
}

TEST(ReSCUnit, RejectsRaggedStimulusStreams) {
  // A shorter z stream shares the word count of the others, so the
  // word-parallel MUX would silently read its zero padding as data; the
  // shape check has to reject it up front.
  const ReSCUnit unit(BernsteinPoly({0.25, 0.5, 0.75}));
  ScInputs in = make_sc_inputs({0.5}, {{0.25, 0.5, 0.75}}, {2}, 100);
  in.programs[0][1] = Bitstream(70);
  EXPECT_THROW((void)unit.output_stream(in), std::invalid_argument);
  in = make_sc_inputs({0.5}, {{0.25, 0.5, 0.75}}, {2}, 100);
  in.axes[0][0] = Bitstream(70);
  EXPECT_THROW((void)unit.output_stream(in), std::invalid_argument);
}

TEST(ReSCUnit, CorrelatedInputStreamsBreakTheArchitecture) {
  // The classic SC hazard the SNG design must avoid: if the n data
  // streams are the *same* stream, the adder only ever outputs 0 or n,
  // so the unit computes (1-x) b_0 + x b_n instead of B(x).
  const ReSCUnit unit(paper_f2_bernstein());
  const double x = 0.25;
  const std::size_t len = 1 << 14;

  ScInputs correlated = make_sc_inputs({x}, {unit.coeffs()}, {3}, len);
  correlated.axes[0][1] = correlated.axes[0][0];
  correlated.axes[0][2] = correlated.axes[0][0];

  const double corr_est = unit.evaluate(correlated);
  const double degenerate = (1.0 - x) * 0.25 + x * 0.75;  // 0.375
  const double true_value = unit.exact_expectation({x});  // 0.4336
  EXPECT_NEAR(corr_est, degenerate, 0.02);
  EXPECT_GT(std::fabs(corr_est - true_value), 0.03);
}

class ReSCAccuracyP : public ::testing::TestWithParam<double> {};

TEST_P(ReSCAccuracyP, EstimateTracksExactValueAcrossInputs) {
  const double x = GetParam();
  const ReSCUnit unit(paper_f2_bernstein());
  ScInputConfig cfg;
  cfg.seed = 23;
  const double est = unit.evaluate({x}, 1 << 14, cfg);
  EXPECT_NEAR(est, unit.exact_expectation({x}), 0.025) << x;
}

INSTANTIATE_TEST_SUITE_P(InputGrid, ReSCAccuracyP,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           1.0));

}  // namespace
}  // namespace oscs::stochastic
