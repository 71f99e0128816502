/// Satellite lock-in: after the operating-point refactor there is exactly
/// one noise model - the LinkBudget's Eq. (8)/(9) analysis - and every
/// consumer (engine kernel, batch runner, simulator, compiled programs)
/// runs at an OperatingPoint derived from it. These tests pin:
///   1. the design point equals the link-budget analysis field for field,
///   2. noiseless packed evaluation stays bit-identical to the per-bit
///      reference physics at the design point,
///   3. under noise, the engine's injected flip rate statistically matches
///      the link-budget BER the operating point carries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "engine/batch.hpp"
#include "optsc/defaults.hpp"
#include "optsc/link_budget.hpp"
#include "optsc/simulator.hpp"
#include "stochastic/functions.hpp"

namespace oscs::optsc {
namespace {

namespace sc = oscs::stochastic;
namespace eng = oscs::engine;

TEST(OperatingPointEquivalence, DesignPointMatchesTheLinkBudgetAnalysis) {
  const OpticalScCircuit c(paper_defaults(3, 1.0));
  const double probe = c.params().lasers.probe_power_mw;
  const LinkBudget budget(c, EyeModel::kPhysical);
  const EyeAnalysis eye = budget.analyze(probe);

  const oscs::OperatingPoint op = design_operating_point(c);
  EXPECT_DOUBLE_EQ(op.probe_power_mw, probe);
  EXPECT_DOUBLE_EQ(op.ber, std::clamp(eye.ber, 0.0, 0.5));
  EXPECT_DOUBLE_EQ(op.snr, eye.snr);
  EXPECT_DOUBLE_EQ(op.threshold_mw, eye.threshold_mw);

  // Every consumer publishes the same design point.
  const eng::BatchRunner runner(c);
  EXPECT_EQ(runner.design_point(), op);
  const TransientSimulator sim(c);
  EXPECT_EQ(sim.design_point(), op);
  EXPECT_DOUBLE_EQ(runner.kernel().threshold_mw(), eye.threshold_mw);
}

TEST(OperatingPointEquivalence, OperatingPointScalesWithProbePower) {
  const OpticalScCircuit c(paper_defaults(2, 1.0));
  const LinkBudget budget(c, EyeModel::kPhysical);
  const oscs::OperatingPoint low = budget.operating_point(1e-5);
  const oscs::OperatingPoint high = budget.operating_point(1.0);
  // More probe power -> more SNR -> lower BER, monotonically.
  EXPECT_GT(low.ber, high.ber);
  EXPECT_LT(low.snr, high.snr);
  // Threshold scales linearly with probe power (eye geometry is linear).
  const oscs::OperatingPoint twice = budget.operating_point(2.0);
  EXPECT_NEAR(twice.threshold_mw, 2.0 * high.threshold_mw,
              1e-12 * high.threshold_mw);
  EXPECT_THROW((void)budget.operating_point(0.0), std::invalid_argument);
}

TEST(OperatingPointEquivalence,
     NoiselessPackedBatchIsBitIdenticalToPerBitPhysics) {
  const OpticalScCircuit c(paper_defaults(3, 1.0));
  const TransientSimulator sim(c);
  const eng::BatchRunner runner(c);
  const sc::BernsteinPoly poly = sc::paper_f2_bernstein();

  eng::BatchRequest req;
  req.polynomials = {poly};
  req.xs = {0.2, 0.5, 0.8};
  req.stream_lengths = {1000};
  req.repeats = 1;
  req.seed = 31;
  req.op = runner.design_point().noiseless();
  const eng::BatchSummary summary = runner.run_nd(req, std::size_t{1});

  SimulationConfig cfg;
  cfg.stream_length = 1000;
  cfg.noise_enabled = false;
  cfg.engine = SimEngine::kPerBit;
  for (std::size_t i = 0; i < req.xs.size(); ++i) {
    cfg.stimulus.seed = eng::derive_task_seed(req.seed, i, 0);
    const SimulationResult r = sim.run(poly, req.xs[i], cfg);
    EXPECT_DOUBLE_EQ(summary.cells[i].optical_mean, r.optical_estimate)
        << "x = " << req.xs[i];
    EXPECT_DOUBLE_EQ(summary.cells[i].flip_rate_mean, 0.0);
  }
}

TEST(OperatingPointEquivalence, InjectedFlipRateMatchesTheLinkBudgetBer) {
  // Size the probe for a BER around 2e-2 through the link budget, then
  // measure the engine's injected flip rate on an all-eye pattern: the
  // binomial mean must land within 5 sigma of the operating-point BER.
  CircuitParams params = paper_defaults(2, 1.0);
  {
    const OpticalScCircuit tmp(params);
    const LinkBudget budget(tmp, EyeModel::kPhysical);
    params.lasers.probe_power_mw = budget.min_probe_power_mw(2e-2);
  }
  const OpticalScCircuit c(params);
  const oscs::OperatingPoint op = design_operating_point(c);
  ASSERT_NEAR(op.ber, 2e-2, 1e-3);

  const eng::BatchRunner runner(c);
  eng::BatchRequest req;
  req.polynomials = {sc::BernsteinPoly({0.0, 0.0, 1.0})};
  req.xs = {0.5};
  req.stream_lengths = {1 << 14};
  req.repeats = 16;
  req.seed = 77;
  const eng::BatchSummary summary = runner.run_nd(req, std::size_t{2});

  // mux-exact circuit: every transmission flip is an injected noise flip.
  const double bits =
      static_cast<double>(req.stream_lengths[0]) * req.repeats;
  const double sigma = std::sqrt(op.ber * (1.0 - op.ber) / bits);
  EXPECT_NEAR(summary.cells[0].flip_rate_mean, op.ber, 5.0 * sigma);
}

}  // namespace
}  // namespace oscs::optsc
