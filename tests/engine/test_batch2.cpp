/// Bivariate batch-runner tests: (x, y) pair evaluation through run_nd() and
/// run_fused(), the shared error contract of the two entry points for the
/// two-input arity (mismatched x/y lengths, arity/kernel mismatches), the
/// per-cell y coordinate, and thread-count determinism.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "engine/batch.hpp"
#include "optsc/defaults.hpp"
#include "optsc/link_budget.hpp"

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;

sc::BernsteinPoly2 mul_poly() {
  return sc::BernsteinPoly2(1, 1, {0.0, 0.0, 0.0, 1.0});
}

sc::BernsteinPoly2 blend_poly() {
  return sc::BernsteinPoly2(1, 1, {0.25, 0.0, 0.25, 1.0});
}

BatchRequest valid_request2() {
  BatchRequest req;
  req.polynomials2 = {mul_poly()};
  req.xs = {0.25, 0.75};
  req.ys = {0.5, 0.9};
  req.stream_lengths = {256};
  req.repeats = 2;
  return req;
}

const BatchRunner& runner2() {
  static const optsc::OpticalScCircuit circuit(optsc::paper_defaults(1));
  static const BatchRunner instance{
      std::make_shared<const PackedKernel>(circuit,
                                           std::vector<std::size_t>{1, 1}),
      optsc::design_operating_point(circuit)};
  return instance;
}

/// Both entry points: every contract test runs through each (mirroring
/// the univariate test_batch_validation suite).
enum class Entry { kRun, kRunFused };

/// Printed as "run"/"run_fused" into the test names and into the
/// parameter value ctest lists, so both stay the same from build to build
/// (a function-pointer parameter printed its address).
void PrintTo(Entry entry, std::ostream* os) {
  *os << (entry == Entry::kRun ? "run" : "run_fused");
}

BatchSummary run(Entry entry, const BatchRequest& req) {
  return entry == Entry::kRun ? runner2().run_nd(req, /*threads=*/1)
                              : runner2().run_fused(req, /*threads=*/1);
}

class BivariateBatchValidationTest : public ::testing::TestWithParam<Entry> {};

TEST_P(BivariateBatchValidationTest, AcceptsAValidPairRequest) {
  const BatchSummary summary = run(GetParam(), valid_request2());
  ASSERT_EQ(summary.cells.size(), 2u);
  EXPECT_DOUBLE_EQ(summary.cells[0].x, 0.25);
  EXPECT_DOUBLE_EQ(summary.cells[0].y, 0.5);
  EXPECT_DOUBLE_EQ(summary.cells[0].expected, 0.25 * 0.5);
  EXPECT_DOUBLE_EQ(summary.cells[1].y, 0.9);
}

TEST_P(BivariateBatchValidationTest, RejectsMismatchedXYLengths) {
  {
    BatchRequest req = valid_request2();
    req.ys = {0.5};  // shorter than xs
    EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument);
  }
  {
    BatchRequest req = valid_request2();
    req.ys = {0.5, 0.9, 0.1};  // longer than xs
    EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument);
  }
  {
    BatchRequest req = valid_request2();
    req.ys.clear();  // bivariate programs demand the pair coordinate
    EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument);
  }
}

TEST_P(BivariateBatchValidationTest, RejectsYsOnUnivariateRequest) {
  BatchRequest req = valid_request2();
  req.polynomials2.clear();
  req.polynomials = {sc::BernsteinPoly({0.2, 0.8})};
  EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument);
}

TEST_P(BivariateBatchValidationTest, RejectsBothArityListsPopulated) {
  BatchRequest req = valid_request2();
  req.polynomials = {sc::BernsteinPoly({0.2, 0.8})};
  EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument);
}

TEST_P(BivariateBatchValidationTest, RejectsOutOfRangeOrNonFiniteY) {
  for (const double bad : {-0.1, 1.1, std::nan("")}) {
    BatchRequest req = valid_request2();
    req.ys = {0.5, bad};
    EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument) << "y=" << bad;
  }
}

TEST_P(BivariateBatchValidationTest, RejectsOrderMismatch) {
  BatchRequest req = valid_request2();
  req.polynomials2 = {sc::BernsteinPoly2(2, 1, {0.1, 0.2, 0.3, 0.4, 0.5,
                                                0.6})};
  EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument);
}

TEST_P(BivariateBatchValidationTest, RejectsArityKernelMismatch) {
  // A univariate request on the bivariate runner...
  BatchRequest uni;
  uni.polynomials = {sc::BernsteinPoly({0.2, 0.8})};
  uni.xs = {0.5};
  uni.stream_lengths = {128};
  uni.repeats = 1;
  EXPECT_THROW((void)run(GetParam(), uni), std::invalid_argument);
  // ...and a bivariate request on a univariate runner.
  static const BatchRunner uni_runner{
      optsc::OpticalScCircuit(optsc::paper_defaults(1))};
  EXPECT_THROW((void)uni_runner.run_nd(valid_request2(), /*threads=*/1),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(RunAndRunFused, BivariateBatchValidationTest,
                         ::testing::Values(Entry::kRun, Entry::kRunFused),
                         [](const auto& info) {
                           return ::testing::PrintToString(info.param);
                         });

TEST(BivariateBatchTest, EstimatesTrackTheSurface) {
  BatchRequest req;
  req.polynomials2 = {mul_poly(), blend_poly()};
  req.xs = {0.2, 0.5, 0.8};
  req.ys = {0.7, 0.5, 0.1};
  req.stream_lengths = {4096};
  req.repeats = 8;
  const BatchSummary summary = runner2().run_nd(req, /*threads=*/2);
  ASSERT_EQ(summary.cells.size(), 6u);
  for (const BatchCell& cell : summary.cells) {
    EXPECT_NEAR(cell.optical_mean, cell.expected, 0.03)
        << "poly " << cell.poly_index << " at (" << cell.x << ", " << cell.y
        << ")";
  }
  EXPECT_LT(summary.optical_mae, 0.02);
}

TEST(BivariateBatchTest, DeterministicAcrossThreadCounts) {
  BatchRequest req = valid_request2();
  req.repeats = 4;
  const BatchSummary one = runner2().run_nd(req, /*threads=*/1);
  const BatchSummary many = runner2().run_nd(req, /*threads=*/4);
  ASSERT_EQ(one.cells.size(), many.cells.size());
  for (std::size_t i = 0; i < one.cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(one.cells[i].optical_mean, many.cells[i].optical_mean);
  }
}

TEST(BivariateBatchTest, FusedMatchesUnfusedForOneProgram) {
  BatchRequest req = valid_request2();
  req.repeats = 4;
  const BatchSummary unfused = runner2().run_nd(req, /*threads=*/2);
  const BatchSummary fused = runner2().run_fused(req, /*threads=*/2);
  ASSERT_EQ(unfused.cells.size(), fused.cells.size());
  for (std::size_t i = 0; i < unfused.cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(unfused.cells[i].optical_mean,
                     fused.cells[i].optical_mean);
  }
}

TEST(BivariateBatchTest, FusedAggregatesEveryProgram) {
  BatchRequest req;
  req.polynomials2 = {mul_poly(), blend_poly()};
  req.xs = {0.3};
  req.ys = {0.6};
  req.stream_lengths = {1024};
  req.repeats = 4;
  const BatchSummary summary = runner2().run_fused(req, /*threads=*/2);
  ASSERT_EQ(summary.cells.size(), 2u);
  EXPECT_DOUBLE_EQ(summary.cells[0].expected, 0.3 * 0.6);
  EXPECT_NEAR(summary.cells[1].expected, 0.6 * 0.3 + 0.4 * 0.25, 1e-12);
  for (const BatchCell& cell : summary.cells) {
    EXPECT_NEAR(cell.optical_mean, cell.expected, 0.05);
  }
}

}  // namespace
}  // namespace oscs::engine
