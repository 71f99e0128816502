#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "compile/autotune.hpp"
#include "compile/compiler.hpp"
#include "compile/export.hpp"
#include "compile/registry.hpp"
#include "optsc/link_budget.hpp"

namespace oscs::compile {
namespace {

CompileOptions no_cert_options(std::size_t degree_cap = 6,
                               unsigned width = 16) {
  CompileOptions options;
  options.projection.max_degree = degree_cap;
  options.sng_width = width;
  options.certify = false;
  return options;
}

GridCertificationOptions quick_grid() {
  GridCertificationOptions options;
  options.stream_lengths = {512, 2048};
  options.repeats = 4;
  options.grid_points = 5;
  return options;
}

TEST(CertifyAt, ExplicitOperatingPointDrivesTheRun) {
  const RegistryFunction* fn = find_function("sigmoid");
  ASSERT_NE(fn, nullptr);
  const auto program =
      compile_function(fn->id, fn->f, no_cert_options(fn->degree));

  CertificationOptions options;
  options.repeats = 4;
  options.grid_points = 5;
  oscs::OperatingPoint op =
      program->design_point().with_stream_length(2048);
  op.ber = 0.05;  // a deliberately noisy synthetic point
  const auto reference = [&](const std::vector<double>& p) {
    return fn->f(p[0]);
  };
  const Certification noisy = certify_at(*program, reference, op, options);
  EXPECT_EQ(noisy.op, op);
  EXPECT_EQ(noisy.op.stream_length, 2048u);
  EXPECT_TRUE(noisy.op.noisy());

  const Certification clean =
      certify_at(*program, reference, op.noiseless(), options);
  // A 5% flip rate must cost measurable accuracy against the noiseless run.
  EXPECT_GT(noisy.mc_mae, clean.mc_mae);

  oscs::OperatingPoint bad = op;
  bad.stream_length = 0;
  EXPECT_THROW((void)certify_at(*program, reference, bad, options),
               std::invalid_argument);
}

TEST(CertifyGrid, CoversEveryProbeLengthCellWithLinkBudgetBers) {
  const RegistryFunction* fn = find_function("tanh");
  ASSERT_NE(fn, nullptr);
  const auto program =
      compile_function(fn->id, fn->f, no_cert_options(fn->degree));

  GridCertificationOptions options = quick_grid();
  options.probe_scales = {0.25, 1.0, 4.0};
  const GridCertification grid = certify_grid(*program, fn->f, options);

  EXPECT_EQ(grid.function_id, "tanh");
  ASSERT_EQ(grid.cells.size(), 3u * 2u);
  const double design_probe = program->design_point().probe_power_mw;
  const optsc::LinkBudget budget(program->circuit(),
                                 optsc::EyeModel::kPhysical);
  std::size_t i = 0;
  for (double scale : options.probe_scales) {
    for (std::size_t length : options.stream_lengths) {
      const GridCell& cell = grid.cells[i++];
      EXPECT_DOUBLE_EQ(cell.op.probe_power_mw, scale * design_probe);
      EXPECT_EQ(cell.op.stream_length, length);
      EXPECT_EQ(cell.op.sng_width, program->key().width);
      // The BER in every cell is the link budget's, nothing else's.
      EXPECT_DOUBLE_EQ(
          cell.op.ber,
          budget.operating_point(cell.op.probe_power_mw).ber);
      EXPECT_EQ(cell.cert.op, cell.op);
      EXPECT_GE(cell.cert.mc_mae, 0.0);
    }
  }
  // BER is monotone non-increasing in probe power across the grid.
  EXPECT_GE(grid.cells.front().op.ber, grid.cells.back().op.ber);
  EXPECT_LE(grid.best_mc_mae(), grid.worst_mc_mae());
  EXPECT_LT(grid.best_cell, grid.cells.size());
  EXPECT_LT(grid.worst_cell, grid.cells.size());
}

// Acceptance criterion: certify_grid certifies all 9 registry functions
// across >= 3 probe-power points.
TEST(CertifyGrid, AllRegistryFunctionsAcrossThreeProbePoints) {
  GridCertificationOptions options;
  options.probe_scales = {0.5, 1.0, 2.0};
  options.stream_lengths = {1024};
  options.repeats = 3;
  options.grid_points = 5;
  ASSERT_GE(function_registry().size(), 9u);
  for (const RegistryFunction& fn : function_registry()) {
    const auto program =
        compile_function(fn.id, fn.f, no_cert_options(fn.degree));
    const GridCertification grid = certify_grid(*program, fn.f, options);
    ASSERT_EQ(grid.cells.size(), 3u) << fn.id;
    for (const GridCell& cell : grid.cells) {
      EXPECT_GT(cell.op.probe_power_mw, 0.0) << fn.id;
      EXPECT_LT(cell.cert.mc_mae, 0.5) << fn.id;
    }
    // At (or above) the design probe the grid reproduces the healthy
    // design-point accuracy.
    EXPECT_LE(grid.best_mc_mae(), 0.05) << fn.id;
  }
}

TEST(CertifyGrid, RejectsNonUnivariateProgramsNamingTheArity) {
  const RegistryFunction2* fn = find_function2("mul");
  ASSERT_NE(fn, nullptr);
  CompileOptions options;
  options.certify = false;
  const auto program = compile_function2(fn->id, fn->f, options);
  try {
    (void)certify_grid(*program, [](double x) { return x; }, quick_grid());
    ADD_FAILURE() << "certify_grid accepted a bivariate program";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("arity 2"), std::string::npos)
        << e.what();
  }
}

TEST(CertifyGrid, ExportsCsvAndJsonThroughTheSharedWriters) {
  const RegistryFunction* fn = find_function("square");
  ASSERT_NE(fn, nullptr);
  const auto program =
      compile_function(fn->id, fn->f, no_cert_options(fn->degree));
  GridCertificationOptions options = quick_grid();
  options.stream_lengths = {512};
  const GridCertification grid = certify_grid(*program, fn->f, options);

  const oscs::CsvTable table = grid_csv(grid);
  EXPECT_EQ(table.rows(), grid.cells.size());
  EXPECT_EQ(table.header().front(), "function");
  EXPECT_EQ(table.at(0, 0), "square");

  const std::string json = grid_json(grid);
  EXPECT_NE(json.find("\"function\": \"square\""), std::string::npos);
  EXPECT_NE(json.find("\"operating_point\""), std::string::npos);
  EXPECT_NE(json.find("\"mc_mae\""), std::string::npos);

  const std::string multi = grid_json({grid, grid});
  EXPECT_NE(multi.find("\"functions\": 2"), std::string::npos);
}

TEST(CertifyGrid, OptionValidation) {
  GridCertificationOptions bad;
  bad.probe_powers_mw = {};
  bad.probe_scales = {};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = GridCertificationOptions{};
  bad.probe_powers_mw = {-1.0};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = GridCertificationOptions{};
  bad.stream_lengths = {};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = GridCertificationOptions{};
  bad.repeats = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// Acceptance criterion: auto_tune returns a configuration meeting a 0.01
// MAE budget for sigmoid and tanh.
TEST(AutoTune, SigmoidAndTanhMeetAPointOhOneBudget) {
  AutoTuneOptions options;
  options.repeats = 6;
  options.grid_points = 7;
  for (const std::string id : {"sigmoid", "tanh"}) {
    const AutoTuneResult result = auto_tune(id, 0.01, options);
    EXPECT_TRUE(result.met) << id;
    ASSERT_NE(result.program, nullptr) << id;
    EXPECT_LE(result.chosen.mc_mae + result.chosen.mc_mae_ci, 0.01) << id;
    EXPECT_EQ(result.op.stream_length, result.chosen.stream_length) << id;
    EXPECT_FALSE(result.trace.empty()) << id;
    // The tuner walks candidates cheapest-first, so everything visited
    // before the winner costs no more than it.
    for (const AutoTuneCandidate& c : result.trace) {
      EXPECT_LE(c.cost, result.chosen.cost + 1e-9) << id;
    }
  }
}

TEST(AutoTune, ImpossibleBudgetReportsBestEffort) {
  AutoTuneOptions options;
  options.degrees = {2};
  options.widths = {8};
  options.stream_lengths = {256};
  options.repeats = 3;
  options.grid_points = 5;
  // 1e-6 is far below the quantization floor of an 8-bit SNG.
  const AutoTuneResult result = auto_tune("sin", 1e-6, options);
  EXPECT_FALSE(result.met);
  ASSERT_NE(result.program, nullptr);
  EXPECT_EQ(result.trace.size(), 1u);
  EXPECT_THROW((void)auto_tune("sin", 0.0, options), std::invalid_argument);
  EXPECT_THROW((void)auto_tune("no_such_fn", 0.01, options),
               std::invalid_argument);
}

TEST(AutoTune, FloorRejectionSkipsHopelessFitsWithoutMonteCarlo) {
  AutoTuneOptions options;
  options.degrees = {1, 5};
  options.widths = {16};
  options.stream_lengths = {512, 4096};
  options.repeats = 3;
  options.grid_points = 5;
  // A degree-1 fit of sin(pi x) has a large deterministic floor; the tuner
  // must reject it without certifying and move to degree 5.
  const AutoTuneResult result = auto_tune("sin", 0.02, options);
  EXPECT_TRUE(result.met);
  bool saw_floor_rejection = false;
  for (const AutoTuneCandidate& c : result.trace) {
    if (c.degree == 1) {
      EXPECT_TRUE(c.floor_rejected);
      saw_floor_rejection = true;
    }
  }
  EXPECT_TRUE(saw_floor_rejection);
  EXPECT_EQ(result.chosen.degree, 5u);
}

}  // namespace
}  // namespace oscs::compile
