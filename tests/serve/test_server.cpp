/// ProgramServer tests over the in-process handle()/handle_json() API:
/// evaluation correctness against the engine run directly, fused
/// multi-program requests, admission control (busy gate + cold-compile
/// budget), per-request operating points, and the metrics endpoint.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "compile/registry.hpp"
#include "engine/batch.hpp"
#include "optsc/defaults.hpp"
#include "serve/server.hpp"
#include "stochastic/bernstein.hpp"

namespace oscs::serve {
namespace {

/// Fast server for tests: certification off (the pipeline's MC stage is
/// the bulk of cold-compile time and is covered elsewhere).
ServerOptions fast_options() {
  ServerOptions options;
  options.compile.certify = false;
  options.threads = 1;
  return options;
}

TEST(ProgramServerTest, EvaluatesSigmoidCloseToReference) {
  ProgramServer server(fast_options());
  const std::string line = server.handle_json(
      R"({"id": "r1", "function": "sigmoid", "xs": [0.25, 0.5, 0.75],
          "stream_lengths": [4096], "repeats": 4})");
  const JsonValue doc = json_parse(line);
  ASSERT_TRUE(doc.find("ok")->as_bool()) << line;
  EXPECT_EQ(doc.find("id")->as_string(), "r1");
  EXPECT_FALSE(doc.find("fused")->as_bool());
  const auto& cells = doc.find("cells")->items();
  ASSERT_EQ(cells.size(), 3u);
  const compile::RegistryFunction* fn = compile::find_function("sigmoid");
  ASSERT_NE(fn, nullptr);
  for (const JsonValue& cell : cells) {
    const double x = cell.find("x")->as_number();
    const double mean = cell.find("optical_mean")->as_number();
    // Design-point noise + compile approximation error: loose budget.
    EXPECT_NEAR(mean, fn->f(x), 0.05) << "x = " << x;
    EXPECT_EQ(cell.find("program")->as_string(), "sigmoid");
  }
  EXPECT_GT(doc.find("total_bits")->as_number(), 0.0);
  EXPECT_GT(doc.find("latency_us")->find("total")->as_number(), 0.0);
}

TEST(ProgramServerTest, RawCoefficientsMatchDirectEngineRun) {
  ProgramServer server(fast_options());
  const std::string line = server.handle_json(
      R"({"coefficients": [0.2, 0.9, 0.4], "xs": [0.3, 0.6],
          "stream_lengths": [1024], "repeats": 3, "seed": 42})");
  const JsonValue doc = json_parse(line);
  ASSERT_TRUE(doc.find("ok")->as_bool()) << line;

  // The serving path must be bit-identical to driving the engine by hand
  // with the same seed at the same (fallback order-2) design point.
  const stochastic::BernsteinPoly poly({0.2, 0.9, 0.4});
  engine::BatchRequest req;
  req.polynomials = {poly};
  req.xs = {0.3, 0.6};
  req.stream_lengths = {1024};
  req.repeats = 3;
  req.seed = 42;
  const engine::BatchRunner runner(
      optsc::OpticalScCircuit(optsc::paper_defaults(2)));
  const engine::BatchSummary expected = runner.run_nd(req, /*threads=*/1);

  const auto& cells = doc.find("cells")->items();
  ASSERT_EQ(cells.size(), expected.cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].find("optical_mean")->as_number(),
              expected.cells[i].optical_mean)
        << "cell " << i;
    EXPECT_EQ(cells[i].find("expected")->as_number(),
              expected.cells[i].expected);
  }
}

TEST(ProgramServerTest, MultiProgramRequestRunsFusedWithPerProgramCells) {
  ProgramServer server(fast_options());
  const std::string line = server.handle_json(
      R"({"programs": [{"function": "sigmoid"}, {"function": "tanh"},
                       {"coefficients": [0.1, 0.4, 0.8], "id": "ramp"}],
          "xs": [0.25, 0.75], "stream_lengths": [1024], "repeats": 2})");
  const JsonValue doc = json_parse(line);
  ASSERT_TRUE(doc.find("ok")->as_bool()) << line;
  EXPECT_TRUE(doc.find("fused")->as_bool());
  const auto& programs = doc.find("programs")->items();
  ASSERT_EQ(programs.size(), 3u);
  EXPECT_EQ(programs[2].as_string(), "ramp");
  // Program-major cell order, every program present at every x.
  const auto& cells = doc.find("cells")->items();
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].find("program")->as_string(), "sigmoid");
  EXPECT_EQ(cells[2].find("program")->as_string(), "tanh");
  EXPECT_EQ(cells[4].find("program")->as_string(), "ramp");
}

TEST(ProgramServerTest, WarmRequestsHitTheSharedCache) {
  ProgramServer server(fast_options());
  const std::string request =
      R"({"function": "sigmoid", "xs": [0.5], "stream_lengths": [256],
          "repeats": 2})";
  ASSERT_TRUE(json_parse(server.handle_json(request)).find("ok")->as_bool());
  ASSERT_TRUE(json_parse(server.handle_json(request)).find("ok")->as_bool());
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.cache.misses, 1u);
  EXPECT_EQ(m.cache.inserts, 1u);
  EXPECT_EQ(m.cache.hits, 1u);
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.received, 2u);
}

TEST(ProgramServerTest, UnknownFunctionIs404) {
  ProgramServer server(fast_options());
  const JsonValue doc = json_parse(server.handle_json(
      R"({"function": "nope", "xs": [0.5]})"));
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->find("status")->as_number(), 404.0);
  EXPECT_EQ(doc.find("error")->find("reason")->as_string(),
            "unknown_function");
  EXPECT_EQ(server.metrics().failed, 1u);
}

TEST(ProgramServerTest, MalformedJsonIs400AndOutOfRangeXIs400) {
  ProgramServer server(fast_options());
  {
    const JsonValue doc = json_parse(server.handle_json("{boom"));
    EXPECT_EQ(doc.find("error")->find("status")->as_number(), 400.0);
  }
  {
    // Shape-valid but semantically bad: x outside [0, 1] is rejected by
    // the hardened BatchRequest contract and surfaces as 400.
    const JsonValue doc = json_parse(server.handle_json(
        R"({"function": "sigmoid", "xs": [1.5]})"));
    EXPECT_FALSE(doc.find("ok")->as_bool());
    EXPECT_EQ(doc.find("error")->find("status")->as_number(), 400.0);
  }
}

TEST(ProgramServerTest, ColdCompileBudgetRejectsThenServesWhenWarm) {
  ServerOptions options = fast_options();
  options.max_cold_degree = 2;  // sigmoid's registry degree is above this
  ProgramServer server(options);

  const std::string request =
      R"({"function": "sigmoid", "xs": [0.5], "stream_lengths": [256],
          "repeats": 2})";
  const JsonValue rejected = json_parse(server.handle_json(request));
  EXPECT_FALSE(rejected.find("ok")->as_bool());
  EXPECT_EQ(rejected.find("error")->find("status")->as_number(), 429.0);
  EXPECT_EQ(rejected.find("error")->find("reason")->as_string(),
            "compile_budget");

  // Pre-warm through the compiler (an operator action), then the same
  // request is admitted: resident programs always serve.
  const compile::RegistryFunction* fn = compile::find_function("sigmoid");
  compile::CompileOptions opts = server.options().compile;
  opts.projection.max_degree = fn->degree;
  (void)server.compiler().compile("sigmoid", fn->f, opts);
  const JsonValue served = json_parse(server.handle_json(request));
  EXPECT_TRUE(served.find("ok")->as_bool());

  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.rejected_budget, 1u);
  EXPECT_EQ(m.completed, 1u);
}

TEST(ProgramServerTest, BusyGateRejectsWithZeroInFlightBudget) {
  ServerOptions options = fast_options();
  options.max_in_flight = 0;
  ProgramServer server(options);
  const JsonValue doc = json_parse(server.handle_json(
      R"({"function": "sigmoid", "xs": [0.5]})"));
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->find("status")->as_number(), 429.0);
  EXPECT_EQ(doc.find("error")->find("reason")->as_string(), "busy");
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.rejected_busy, 1u);
  EXPECT_EQ(m.in_flight, 0u);
}

TEST(ProgramServerTest, PerRequestOperatingPointControlsNoise) {
  ProgramServer server(fast_options());
  // A noiseless explicit operating point must produce zero flips.
  const JsonValue quiet = json_parse(server.handle_json(
      R"({"coefficients": [0.2, 0.9, 0.4], "xs": [0.5],
          "stream_lengths": [1024], "repeats": 2,
          "operating_point": {"probe_power_mw": 1.0, "ber": 0.0}})"));
  ASSERT_TRUE(quiet.find("ok")->as_bool());
  EXPECT_EQ(quiet.find("cells")->items()[0].find("flip_rate")->as_number(),
            0.0);
  EXPECT_EQ(quiet.find("op")->find("ber")->as_number(), 0.0);

  // A heavy explicit BER must show up as flips.
  const JsonValue noisy = json_parse(server.handle_json(
      R"({"coefficients": [0.2, 0.9, 0.4], "xs": [0.5],
          "stream_lengths": [1024], "repeats": 2,
          "operating_point": {"probe_power_mw": 1.0, "ber": 0.2}})"));
  ASSERT_TRUE(noisy.find("ok")->as_bool());
  EXPECT_GT(noisy.find("cells")->items()[0].find("flip_rate")->as_number(),
            0.05);

  // Link-budget derivation: a starved probe power yields a worse (higher-
  // BER) operating point than a strong one.
  const JsonValue starved = json_parse(server.handle_json(
      R"({"coefficients": [0.2, 0.9, 0.4], "xs": [0.5],
          "stream_lengths": [1024], "repeats": 2,
          "probe_power_mw": 0.05})"));
  const JsonValue strong = json_parse(server.handle_json(
      R"({"coefficients": [0.2, 0.9, 0.4], "xs": [0.5],
          "stream_lengths": [1024], "repeats": 2,
          "probe_power_mw": 5.0})"));
  ASSERT_TRUE(starved.find("ok")->as_bool());
  ASSERT_TRUE(strong.find("ok")->as_bool());
  EXPECT_GT(starved.find("op")->find("ber")->as_number(),
            strong.find("op")->find("ber")->as_number());

  // An invalid explicit operating point is a 400.
  const JsonValue bad = json_parse(server.handle_json(
      R"({"coefficients": [0.2, 0.9, 0.4], "xs": [0.5],
          "operating_point": {"probe_power_mw": -1.0}})"));
  EXPECT_EQ(bad.find("error")->find("status")->as_number(), 400.0);
}

TEST(ProgramServerTest, MetricsEndpointExportsCacheAndLatencyCounters) {
  ProgramServer server(fast_options());
  (void)server.handle_json(
      R"({"function": "sigmoid", "xs": [0.5], "stream_lengths": [256],
          "repeats": 2})");
  const std::string line =
      server.handle_json(R"({"op": "metrics", "id": "m1"})");
  const JsonValue doc = json_parse(line);
  ASSERT_TRUE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("id")->as_string(), "m1");
  const JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("cache")->find("misses")->as_number(), 1.0);
  EXPECT_EQ(metrics->find("cache")->find("size")->as_number(), 1.0);
  EXPECT_EQ(metrics->find("requests")->find("received")->as_number(), 2.0);
  EXPECT_EQ(metrics->find("requests")->find("completed")->as_number(), 1.0);
  const JsonValue* latency = metrics->find("latency_us");
  EXPECT_EQ(latency->find("parse")->find("count")->as_number(), 2.0);
  EXPECT_EQ(latency->find("execute")->find("count")->as_number(), 1.0);
  EXPECT_GT(latency->find("execute")->find("mean_us")->as_number(), 0.0);

  // Ping answers without touching the evaluate counters.
  const JsonValue pong = json_parse(server.handle_json(R"({"op": "ping"})"));
  EXPECT_TRUE(pong.find("pong")->as_bool());
}

TEST(ProgramServerTest, TypedHandleMatchesJsonPath) {
  ProgramServer server(fast_options());
  ServeRequest request;
  request.id = "typed";
  ProgramSpec spec;
  spec.coefficients = {0.2, 0.9, 0.4};
  request.programs.push_back(spec);
  request.inputs = {{0.5}};
  request.stream_lengths = {512};
  request.repeats = 2;
  request.seed = 9;
  const ServeResponse typed = server.handle(request);
  ASSERT_EQ(typed.cells.size(), 1u);

  const JsonValue doc = json_parse(server.handle_json(
      R"({"id": "wire", "coefficients": [0.2, 0.9, 0.4], "xs": [0.5],
          "stream_lengths": [512], "repeats": 2, "seed": 9})"));
  ASSERT_TRUE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("cells")->items()[0].find("optical_mean")->as_number(),
            typed.cells[0].optical_mean);
  EXPECT_EQ(server.metrics().received, 2u);
  EXPECT_EQ(server.metrics().completed, 2u);
}

TEST(ProgramServerTest, TypedHandleRejectsMalformedRequestsWithServeError) {
  // Regression: the typed path bypasses parse_request's shape checks, so
  // handle() must re-validate instead of dereferencing empty vectors.
  ProgramServer server(fast_options());
  ServeRequest base;
  ProgramSpec spec;
  spec.coefficients = {0.2, 0.8};
  base.programs.push_back(spec);
  base.inputs = {{0.5}};
  base.probe_power_mw = 1.0;

  const auto expect_400 = [&server](ServeRequest req, const char* what) {
    try {
      (void)server.handle(req);
      FAIL() << what;
    } catch (const ServeError& e) {
      EXPECT_EQ(e.status(), 400) << what;
    }
  };
  {
    ServeRequest req = base;
    req.stream_lengths.clear();
    expect_400(req, "empty stream_lengths");
  }
  {
    ServeRequest req = base;
    req.inputs.front().clear();
    expect_400(req, "empty input axis");
  }
  {
    ServeRequest req = base;
    req.inputs.clear();
    expect_400(req, "no input axes");
  }
  {
    ServeRequest req = base;
    req.programs.clear();
    expect_400(req, "no programs");
  }
  {
    ServeRequest req = base;
    req.repeats = 0;
    expect_400(req, "zero repeats");
  }
}

TEST(ProgramServerTest, OversizedRequestsAreRejectedBeforeExecution) {
  // One absurd repeats value must not wedge an in-flight slot: the
  // evaluate-cost gate answers 413 before any work starts.
  ProgramServer server(fast_options());
  const JsonValue doc = json_parse(server.handle_json(
      R"({"coefficients": [0.0, 1.0], "xs": [0.5], "stream_lengths": [1],)"
      R"( "repeats": 18446744073709551615})"));
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->find("status")->as_number(), 413.0);
  EXPECT_EQ(doc.find("error")->find("reason")->as_string(), "too_large");
  EXPECT_EQ(server.metrics().in_flight, 0u);

  // Same gate on huge stream lengths.
  const JsonValue huge = json_parse(server.handle_json(
      R"({"coefficients": [0.0, 1.0], "xs": [0.5],)"
      R"( "stream_lengths": [1099511627776], "repeats": 1})"));
  EXPECT_EQ(huge.find("error")->find("reason")->as_string(), "too_large");

  // A request within the budget still serves.
  const JsonValue ok = json_parse(server.handle_json(
      R"({"coefficients": [0.0, 1.0], "xs": [0.5], "stream_lengths": [256],)"
      R"( "repeats": 2})"));
  EXPECT_TRUE(ok.find("ok")->as_bool());
}

TEST(ProgramServerTest, MixedDegreeFusionElevatesToCommonOrder) {
  // sigmoid (registry degree 3+) fused with an order-1 raw ramp: the ramp
  // is degree-elevated to the shared circuit order and still evaluates to
  // ~x at the design point.
  ProgramServer server(fast_options());
  const JsonValue doc = json_parse(server.handle_json(
      R"({"programs": [{"function": "sigmoid"},
                       {"coefficients": [0.0, 1.0], "id": "identity"}],
          "xs": [0.3, 0.7], "stream_lengths": [4096], "repeats": 4})"));
  ASSERT_TRUE(doc.find("ok")->as_bool());
  for (const JsonValue& cell : doc.find("cells")->items()) {
    if (cell.find("program")->as_string() != "identity") continue;
    const double x = cell.find("x")->as_number();
    // Degree elevation is value-preserving up to rounding.
    EXPECT_NEAR(cell.find("expected")->as_number(), x, 1e-12);
    EXPECT_NEAR(cell.find("optical_mean")->as_number(), x, 0.05);
  }
}

}  // namespace
}  // namespace oscs::serve
