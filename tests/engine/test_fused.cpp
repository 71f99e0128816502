#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "engine/batch.hpp"
#include "engine/packed_sim.hpp"
#include "optsc/defaults.hpp"
#include "optsc/link_budget.hpp"
#include "stochastic/functions.hpp"
#include "stochastic/resc.hpp"

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;
using optsc::design_operating_point;
using optsc::OpticalScCircuit;
using optsc::paper_defaults;

std::vector<sc::BernsteinPoly> order3_programs() {
  return {sc::paper_f2_bernstein(), sc::BernsteinPoly({0.0, 0.1, 0.6, 1.0}),
          sc::BernsteinPoly({0.9, 0.3, 0.2, 0.5})};
}

TEST(FusedStimulus, ProgramZeroMatchesTheUnfusedStimulusBitForBit) {
  const auto polys = order3_programs();
  std::vector<std::vector<double>> coeffs;
  for (const auto& p : polys) coeffs.push_back(p.coeffs());
  sc::ScInputConfig config;
  config.seed = 77;
  const sc::ScInputs fused =
      sc::make_sc_inputs({0.4}, coeffs, {3}, 640, config);
  const sc::ScInputs single =
      sc::make_sc_inputs({0.4}, {coeffs[0]}, {3}, 640, config);

  ASSERT_EQ(fused.programs.size(), 3u);
  ASSERT_EQ(fused.axes.size(), 1u);
  ASSERT_EQ(fused.axes[0].size(), 3u);
  ASSERT_EQ(fused.length(), 640u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fused.axes[0][i], single.axes[0][i]) << "x stream " << i;
  }
  for (std::size_t j = 0; j <= 3; ++j) {
    EXPECT_EQ(fused.programs[0][j], single.programs[0][j])
        << "z stream " << j;
  }
  // Later programs draw fresh salts: their coefficient streams must not
  // repeat program 0's even for equal coefficient values.
  const sc::ScInputs same_coeffs = sc::make_sc_inputs(
      {0.4}, {coeffs[0], coeffs[0]}, {3}, 640, config);
  EXPECT_NE(same_coeffs.programs[1][0], same_coeffs.programs[0][0]);

  EXPECT_THROW(sc::make_sc_inputs({0.4}, {}, {3}, 64, config),
               std::invalid_argument);
  EXPECT_THROW(sc::make_sc_inputs({0.4}, {{0.5, 0.5}}, {3}, 64, config),
               std::invalid_argument);
}

TEST(FusedKernel, EvaluateFusedMatchesPerProgramEvaluate) {
  const OpticalScCircuit c(paper_defaults(3, 1.0));
  const PackedKernel kernel(c);
  const auto polys = order3_programs();
  std::vector<std::vector<double>> coeffs;
  for (const auto& p : polys) coeffs.push_back(p.coeffs());
  const sc::ScInputs fused =
      sc::make_sc_inputs({0.55}, coeffs, {3}, 1000, {});

  const std::vector<PackedKernel::Streams> all = kernel.evaluate(fused);
  ASSERT_EQ(all.size(), polys.size());
  for (std::size_t k = 0; k < polys.size(); ++k) {
    const sc::ScInputs program{fused.axes, {fused.programs[k]}};
    const PackedKernel::Streams one = kernel.evaluate(program).front();
    EXPECT_EQ(all[k].optical, one.optical) << "program " << k;
    EXPECT_EQ(all[k].electronic, one.electronic) << "program " << k;
    // The ReSC baseline on the same shared stimulus agrees too.
    const sc::ReSCUnit unit(polys[k]);
    EXPECT_EQ(all[k].electronic, unit.output_stream(fused, k))
        << "program " << k;
  }
}

TEST(FusedKernel, OneProgramFusedRunIsBitIdenticalToRun) {
  const OpticalScCircuit c(paper_defaults(3, 1.0));
  const PackedKernel kernel(c);
  PackedRunConfig cfg;
  cfg.op = design_operating_point(c).with_stream_length(2048);
  cfg.op.ber = 0.03;  // force a busy flip mask
  cfg.stimulus_seed = 5;
  cfg.noise_seed = 6;
  const sc::SeparableProgram program(sc::paper_f2_bernstein());
  const PackedRunResult single = kernel.run_nd(program, {0.3}, cfg);
  const std::vector<PackedRunResult> fused =
      kernel.run_fused({&program, 1}, {0.3}, cfg);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_DOUBLE_EQ(fused[0].optical_estimate, single.optical_estimate);
  EXPECT_DOUBLE_EQ(fused[0].electronic_estimate, single.electronic_estimate);
  EXPECT_EQ(fused[0].noise_flips, single.noise_flips);
  EXPECT_EQ(fused[0].transmission_flips, single.transmission_flips);
}

TEST(FusedKernel, ProgramsShareOneFlipMaskPass) {
  const OpticalScCircuit c(paper_defaults(3, 1.0));
  const PackedKernel kernel(c);
  PackedRunConfig cfg;
  cfg.op = design_operating_point(c).with_stream_length(4096);
  cfg.op.ber = 0.05;
  const auto polys = order3_programs();
  const std::vector<sc::SeparableProgram> programs(polys.begin(), polys.end());
  const auto results = kernel.run_fused(programs, {0.5}, cfg);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_GT(results[0].noise_flips, 0u);
  // One sampled mask applied to every program.
  EXPECT_EQ(results[0].noise_flips, results[1].noise_flips);
  EXPECT_EQ(results[0].noise_flips, results[2].noise_flips);
  for (const PackedRunResult& r : results) {
    EXPECT_GE(r.transmission_flips, 1u);
    EXPECT_EQ(r.length, 4096u);
  }
}

TEST(FusedBatch, CellsMatchRunOrderAndAgreeStatistically) {
  const OpticalScCircuit c(paper_defaults(3, 1.0));
  const BatchRunner runner(c);
  BatchRequest req;
  req.polynomials = order3_programs();
  req.xs = {0.25, 0.5, 0.75};
  req.stream_lengths = {1024, 4096};
  req.repeats = 6;
  req.seed = 9;

  const BatchSummary unfused = runner.run_nd(req, std::size_t{2});
  const BatchSummary fused = runner.run_fused(req, std::size_t{2});
  ASSERT_EQ(fused.cells.size(), unfused.cells.size());
  EXPECT_EQ(fused.tasks, req.xs.size() * req.stream_lengths.size() *
                             req.repeats * req.polynomials.size());
  EXPECT_EQ(fused.total_bits, unfused.total_bits);
  for (std::size_t i = 0; i < fused.cells.size(); ++i) {
    const BatchCell& f = fused.cells[i];
    const BatchCell& u = unfused.cells[i];
    EXPECT_EQ(f.poly_index, u.poly_index);
    EXPECT_DOUBLE_EQ(f.x, u.x);
    EXPECT_EQ(f.stream_length, u.stream_length);
    EXPECT_DOUBLE_EQ(f.expected, u.expected);
    // Different sample layout, same estimator: means agree within the
    // combined confidence intervals (loose factor for the short runs).
    EXPECT_NEAR(f.optical_mean, u.optical_mean,
                3.0 * (f.optical_ci + u.optical_ci) + 0.02);
  }
}

TEST(FusedBatch, DeterministicAcrossThreadCounts) {
  const OpticalScCircuit c(paper_defaults(3, 1.0));
  const BatchRunner runner(c);
  BatchRequest req;
  req.polynomials = order3_programs();
  req.xs = {0.3, 0.7};
  req.stream_lengths = {512};
  req.repeats = 4;
  req.seed = 123;
  // Run at a noisy operating point so the flip path is exercised too.
  req.op = runner.design_point();
  req.op->ber = 0.02;

  const BatchSummary one = runner.run_fused(req, std::size_t{1});
  for (std::size_t threads : {2u, 4u}) {
    const BatchSummary many = runner.run_fused(req, threads);
    ASSERT_EQ(many.cells.size(), one.cells.size());
    for (std::size_t i = 0; i < one.cells.size(); ++i) {
      EXPECT_DOUBLE_EQ(many.cells[i].optical_mean, one.cells[i].optical_mean);
      EXPECT_DOUBLE_EQ(many.cells[i].flip_rate_mean,
                       one.cells[i].flip_rate_mean);
    }
  }
  EXPECT_DOUBLE_EQ(one.op.ber, 0.02);
}

}  // namespace
}  // namespace oscs::engine
