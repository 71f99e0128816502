/// Tests for the two-input (tensor-product) ReSC unit: the word-parallel
/// dual-adder MUX against a naive per-cycle reference, convergence to the
/// exact tensor Bernstein expectation, fused-stimulus equivalence and the
/// stimulus validation contract.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "stochastic/bernstein.hpp"
#include "stochastic/resc.hpp"

namespace oscs::stochastic {
namespace {

BernsteinPoly2 mul_poly() {
  // Exactly x * y at degree (1, 1).
  return BernsteinPoly2(1, 1, {0.0, 0.0, 0.0, 1.0});
}

BernsteinPoly2 blend_poly() {
  // y * x + (1 - y) * 0.25 at degree (1, 1).
  return BernsteinPoly2(1, 1, {0.25, 0.0, 0.25, 1.0});
}

/// Naive per-cycle reference: out[t] = z_{i(t), j(t)}[t].
Bitstream reference_output(const ScInputs& inputs, std::size_t order_y) {
  Bitstream out(inputs.length());
  for (std::size_t t = 0; t < inputs.length(); ++t) {
    const std::size_t i = inputs.select(0, t);
    const std::size_t j = inputs.select(1, t);
    out.set_bit(t, inputs.programs[0][i * (order_y + 1) + j].bit(t));
  }
  return out;
}

TEST(BivariateResc2Test, ExactExpectationIsTensorBernsteinValue) {
  const ReSCUnit unit(blend_poly());
  for (double x : {0.0, 0.25, 0.5, 1.0}) {
    for (double y : {0.0, 0.5, 0.75, 1.0}) {
      EXPECT_NEAR(unit.exact_expectation({x, y}), y * x + (1.0 - y) * 0.25,
                  1e-12);
    }
  }
}

TEST(BivariateResc2Test, OutputStreamMatchesPerCycleReference) {
  const ReSCUnit unit(ReSCUnit(BernsteinPoly2(
      2, 3, {0.1, 0.9, 0.4, 0.3, 0.8, 0.2, 0.6, 0.5, 0.0, 1.0, 0.7, 0.35})));
  for (std::size_t length : {1u, 63u, 64u, 65u, 1000u}) {
    const ScInputs inputs = make_sc_inputs({0.4, 0.7}, {unit.coeffs()}, {2, 3},
                                           length, {.seed = 7});
    const Bitstream fast = unit.output_stream(inputs);
    const Bitstream slow = reference_output(inputs, 3);
    EXPECT_EQ(fast, slow) << "length=" << length;
  }
}

TEST(BivariateResc2Test, EvaluateConvergesToExactExpectation) {
  const ReSCUnit unit(mul_poly());
  for (double x : {0.25, 0.5, 0.9}) {
    for (double y : {0.1, 0.5, 0.75}) {
      const double estimate = unit.evaluate({x, y}, 1 << 15, {.seed = 3});
      EXPECT_NEAR(estimate, x * y, 0.02) << "x=" << x << " y=" << y;
    }
  }
}

TEST(BivariateResc2Test, DegreeZeroAxisDegeneratesGracefully) {
  // order_y = 0: no y streams, single coefficient column - a univariate
  // unit in disguise.
  const BernsteinPoly2 poly(2, 0, {0.1, 0.8, 0.3});
  const ReSCUnit unit(poly);
  const ScInputs inputs =
      make_sc_inputs({0.5, 0.9}, {poly.coeffs()}, {2, 0}, 4096, {.seed = 11});
  EXPECT_TRUE(inputs.axes[1].empty());
  const double estimate = unit.evaluate(inputs);
  EXPECT_NEAR(estimate, unit.exact_expectation({0.5, /*y=*/0.0}), 0.03);
}

TEST(BivariateResc2Test, FusedProgramZeroIsBitIdenticalToUnfused) {
  const std::vector<std::vector<double>> grids = {
      mul_poly().coeffs(), blend_poly().coeffs()};
  const ScInputConfig config{.seed = 21};
  const ScInputs fused =
      make_sc_inputs({0.6, 0.3}, grids, {1, 1}, 512, config);
  const ScInputs single =
      make_sc_inputs({0.6, 0.3}, {grids[0]}, {1, 1}, 512, config);
  ASSERT_EQ(fused.programs.size(), 2u);
  EXPECT_EQ(fused.axes[0], single.axes[0]);
  EXPECT_EQ(fused.axes[1], single.axes[1]);
  EXPECT_EQ(fused.programs[0], single.programs[0]);
}

TEST(BivariateResc2Test, FusedProgramIndexOutOfRangeThrows) {
  const ScInputs fused = make_sc_inputs({0.5, 0.5}, {mul_poly().coeffs()},
                                        {1, 1}, 64, {.seed = 1});
  const ReSCUnit unit(mul_poly());
  EXPECT_THROW((void)unit.output_stream(fused, 1), std::out_of_range);
}

TEST(BivariateResc2Test, RejectsCoefficientCountMismatch) {
  EXPECT_THROW(
      (void)make_sc_inputs({0.5, 0.5}, {{0.1, 0.2, 0.3}}, {1, 1}, 64),
      std::invalid_argument);
  EXPECT_THROW((void)make_sc_inputs({0.5, 0.5},
                                    {{0.1, 0.2, 0.3, 0.4}, {0.1, 0.2, 0.3}},
                                    {1, 1}, 64),
               std::invalid_argument);
  EXPECT_THROW((void)make_sc_inputs({0.5, 0.5}, {}, {1, 1}, 64),
               std::invalid_argument);
}

TEST(BivariateResc2Test, RejectsOutOfUnitCoefficients) {
  EXPECT_THROW(ReSCUnit(BernsteinPoly2(1, 1, {0.0, 0.0, 0.0, 1.5})),
               std::invalid_argument);
  EXPECT_THROW(ReSCUnit(BernsteinPoly2(1, 1, {-0.2, 0.0, 0.0, 1.0})),
               std::invalid_argument);
}

TEST(BivariateResc2Test, RejectsStimulusShapeMismatch) {
  const ReSCUnit unit(mul_poly());
  ScInputs wrong_order = make_sc_inputs(
      {0.5, 0.5}, {{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}}, {2, 1}, 64);
  EXPECT_THROW((void)unit.output_stream(wrong_order), std::invalid_argument);

  ScInputs ragged =
      make_sc_inputs({0.5, 0.5}, {mul_poly().coeffs()}, {1, 1}, 64);
  ragged.programs[0].back() = Bitstream(32);
  EXPECT_THROW((void)unit.output_stream(ragged), std::invalid_argument);
}

}  // namespace
}  // namespace oscs::stochastic
