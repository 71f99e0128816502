/// Error-contract tests for BatchRunner: run_nd() and run_fused() must reject
/// the same malformed requests with std::invalid_argument before any task
/// is submitted. The serving layer feeds these entry points with
/// user-supplied JSON, so every hole here is a remotely reachable one.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "engine/batch.hpp"
#include "optsc/defaults.hpp"

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;

BatchRequest valid_request() {
  BatchRequest req;
  req.polynomials = {sc::BernsteinPoly({0.2, 0.9, 0.4})};
  req.xs = {0.25, 0.75};
  req.stream_lengths = {256};
  req.repeats = 2;
  return req;
}

const BatchRunner& runner() {
  static const BatchRunner instance{
      optsc::OpticalScCircuit(optsc::paper_defaults(2))};
  return instance;
}

/// Both entry points: the tests below run every bad request through each.
enum class Entry { kRun, kRunFused };

/// Printed as "run"/"run_fused" into the test names and into the
/// parameter value ctest lists, so both stay the same from build to build
/// (a function-pointer parameter printed its address).
void PrintTo(Entry entry, std::ostream* os) {
  *os << (entry == Entry::kRun ? "run" : "run_fused");
}

BatchSummary run(Entry entry, const BatchRequest& req) {
  return entry == Entry::kRun ? runner().run_nd(req, /*threads=*/1)
                              : runner().run_fused(req, /*threads=*/1);
}

class BatchValidationTest : public ::testing::TestWithParam<Entry> {};

TEST_P(BatchValidationTest, AcceptsAValidRequest) {
  const BatchSummary summary = run(GetParam(), valid_request());
  EXPECT_EQ(summary.cells.size(), 2u);
}

TEST_P(BatchValidationTest, RejectsZeroRepeats) {
  BatchRequest req = valid_request();
  req.repeats = 0;
  EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument);
}

TEST_P(BatchValidationTest, RejectsEmptyPolynomials) {
  BatchRequest req = valid_request();
  req.polynomials.clear();
  EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument);
}

TEST_P(BatchValidationTest, RejectsEmptyXs) {
  BatchRequest req = valid_request();
  req.xs.clear();
  EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument);
}

TEST_P(BatchValidationTest, RejectsEmptyStreamLengths) {
  BatchRequest req = valid_request();
  req.stream_lengths.clear();
  EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument);
}

TEST_P(BatchValidationTest, RejectsZeroStreamLength) {
  BatchRequest req = valid_request();
  req.stream_lengths = {256, 0};
  EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument);
}

TEST_P(BatchValidationTest, RejectsOutOfRangeOrNonFiniteX) {
  for (const double bad : {-0.1, 1.1, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    BatchRequest req = valid_request();
    req.xs = {0.5, bad};
    EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument)
        << "x = " << bad;
  }
}

TEST_P(BatchValidationTest, RejectsInvalidOperatingPoint) {
  {
    BatchRequest req = valid_request();
    req.op = oscs::OperatingPoint{};
    req.op->ber = 0.75;  // outside [0, 0.5]
    EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument);
  }
  {
    BatchRequest req = valid_request();
    req.op = oscs::OperatingPoint{};
    req.op->probe_power_mw = -1.0;
    EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument);
  }
  {
    BatchRequest req = valid_request();
    req.op = oscs::OperatingPoint{};
    req.op->stream_length = 0;
    EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument);
  }
}

TEST_P(BatchValidationTest, RejectsPolynomialOrderMismatch) {
  BatchRequest req = valid_request();
  req.polynomials.push_back(sc::BernsteinPoly({0.1, 0.9}));  // order 1
  EXPECT_THROW((void)run(GetParam(), req), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(RunAndRunFused, BatchValidationTest,
                         ::testing::Values(Entry::kRun, Entry::kRunFused),
                         [](const auto& info) {
                           return ::testing::PrintToString(info.param);
                         });

}  // namespace
}  // namespace oscs::engine
