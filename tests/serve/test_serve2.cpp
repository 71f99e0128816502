/// Bivariate serving-path tests: "ys"/"y" request parsing, nested
/// coefficient grids, end-to-end evaluation through handle_json, the
/// arity-mixing error contract, the unchanged univariate path (no "y"
/// anywhere in its responses), and the per-arity metrics counters.

#include <gtest/gtest.h>

#include <string>

#include "common/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace oscs::serve {
namespace {

ServerOptions fast_options() {
  ServerOptions options;
  options.compile.certify = false;
  options.threads = 1;
  return options;
}

TEST(BivariateProtocolTest, ParsesYsArrayAndPairsWithXs) {
  const ServeRequest req = parse_request(
      R"({"function": "mul", "xs": [0.25, 0.5], "ys": [0.75, 0.1]})");
  ASSERT_EQ(req.inputs.size(), 2u);
  ASSERT_EQ(req.inputs[1].size(), 2u);
  EXPECT_DOUBLE_EQ(req.inputs[1][0], 0.75);
  EXPECT_DOUBLE_EQ(req.inputs[1][1], 0.1);
}

TEST(BivariateProtocolTest, SingleYSugarBroadcastsOverXs) {
  const ServeRequest req = parse_request(
      R"({"function": "mul", "xs": [0.25, 0.5, 0.75], "y": 0.5})");
  ASSERT_EQ(req.inputs.size(), 2u);
  ASSERT_EQ(req.inputs[1].size(), 3u);
  for (double y : req.inputs[1]) EXPECT_DOUBLE_EQ(y, 0.5);
}

TEST(BivariateProtocolTest, ParsesNestedCoefficientGrid) {
  const ServeRequest req = parse_request(
      R"({"coefficients": [[0.1, 0.2], [0.3, 0.4]], "xs": [0.5], "ys": [0.5]})");
  ASSERT_EQ(req.programs.size(), 1u);
  EXPECT_TRUE(req.programs[0].is_raw_bivariate());
  ASSERT_EQ(req.programs[0].coefficients2.size(), 2u);
  EXPECT_EQ(req.programs[0].display_id(), "coefficients[2x2]");
}

TEST(BivariateProtocolTest, MalformedYPayloadsAre400) {
  const char* bad_requests[] = {
      // "ys" not an array of numbers
      R"({"function": "mul", "xs": [0.5], "ys": "bad"})",
      R"({"function": "mul", "xs": [0.5], "ys": [true]})",
      R"({"function": "mul", "xs": [0.5], "ys": {"y": 0.5}})",
      // "y" not a number
      R"({"function": "mul", "xs": [0.5], "y": [0.5]})",
      // both forms at once
      R"({"function": "mul", "xs": [0.5], "ys": [0.5], "y": 0.5})",
      // length mismatch
      R"({"function": "mul", "xs": [0.5, 0.6], "ys": [0.5]})",
      // ragged / empty grid rows
      R"({"coefficients": [[0.1, 0.2], [0.3]], "xs": [0.5], "ys": [0.5]})",
      R"({"coefficients": [[], []], "xs": [0.5], "ys": [0.5]})",
      R"({"coefficients": [[0.1], 0.5], "xs": [0.5], "ys": [0.5]})",
  };
  for (const char* text : bad_requests) {
    EXPECT_THROW((void)parse_request(text), ServeError) << text;
    try {
      (void)parse_request(text);
    } catch (const ServeError& e) {
      EXPECT_EQ(e.status(), 400) << text;
      EXPECT_EQ(e.reason(), "bad_request") << text;
    }
  }
}

TEST(BivariateServeTest, MulRoundTripsWithYs) {
  ProgramServer server(fast_options());
  const std::string response = server.handle_json(
      R"({"id": "b1", "function": "mul", "xs": [0.5, 0.25],)"
      R"( "ys": [0.75, 0.5], "stream_lengths": [2048], "repeats": 4})");
  const JsonValue doc = json_parse(response);
  ASSERT_TRUE(doc.find("ok")->as_bool()) << response;
  EXPECT_EQ(doc.find("id")->as_string(), "b1");
  const JsonValue& cells = *doc.find("cells");
  ASSERT_EQ(cells.items().size(), 2u);
  EXPECT_DOUBLE_EQ(cells.items()[0].find("y")->as_number(), 0.75);
  EXPECT_NEAR(cells.items()[0].find("expected")->as_number(), 0.375, 1e-9);
  EXPECT_NEAR(cells.items()[0].find("optical_mean")->as_number(), 0.375,
              0.05);
  EXPECT_DOUBLE_EQ(cells.items()[1].find("y")->as_number(), 0.5);
}

TEST(BivariateServeTest, RawGridAndRegistryFuseOnSharedBanks) {
  ProgramServer server(fast_options());
  const std::string response = server.handle_json(
      R"({"programs": [{"function": "mul"},)"
      R"( {"coefficients": [[0.25, 0.0], [0.25, 1.0]], "id": "blend"}],)"
      R"( "xs": [0.5], "ys": [0.5], "stream_lengths": [1024], "repeats": 2})");
  const JsonValue doc = json_parse(response);
  ASSERT_TRUE(doc.find("ok")->as_bool()) << response;
  EXPECT_TRUE(doc.find("fused")->as_bool());
  const JsonValue& cells = *doc.find("cells");
  ASSERT_EQ(cells.items().size(), 2u);
  EXPECT_EQ(cells.items()[0].find("program")->as_string(), "mul");
  EXPECT_EQ(cells.items()[1].find("program")->as_string(), "blend");
  EXPECT_NEAR(cells.items()[1].find("expected")->as_number(),
              0.5 * 0.5 + 0.5 * 0.25, 1e-9);
}

TEST(BivariateServeTest, MixedAritiesRejectedWith400) {
  ProgramServer server(fast_options());
  // Univariate program inside a bivariate request.
  const JsonValue a = json_parse(server.handle_json(
      R"({"programs": [{"function": "mul"}, {"function": "sigmoid"}],)"
      R"( "xs": [0.5], "ys": [0.5], "stream_lengths": [256], "repeats": 2})"));
  EXPECT_FALSE(a.find("ok")->as_bool());
  EXPECT_EQ(a.find("error")->find("status")->as_number(), 400.0);
  // Bivariate program without 'ys'.
  const JsonValue b = json_parse(server.handle_json(
      R"({"function": "mul", "xs": [0.5], "stream_lengths": [256],)"
      R"( "repeats": 2})"));
  EXPECT_FALSE(b.find("ok")->as_bool());
  EXPECT_EQ(b.find("error")->find("status")->as_number(), 400.0);
  // Raw flat vector with 'ys'.
  const JsonValue c = json_parse(server.handle_json(
      R"({"coefficients": [0.2, 0.8], "xs": [0.5], "ys": [0.5],)"
      R"( "stream_lengths": [256], "repeats": 2})"));
  EXPECT_FALSE(c.find("ok")->as_bool());
  EXPECT_EQ(c.find("error")->find("status")->as_number(), 400.0);
  // Raw grid without 'ys'.
  const JsonValue d = json_parse(server.handle_json(
      R"({"coefficients": [[0.2, 0.8], [0.1, 0.9]], "xs": [0.5],)"
      R"( "stream_lengths": [256], "repeats": 2})"));
  EXPECT_FALSE(d.find("ok")->as_bool());
  EXPECT_EQ(d.find("error")->find("status")->as_number(), 400.0);
}

TEST(BivariateServeTest, UnivariateResponsesCarryNoY) {
  // The univariate path is unchanged: no "y" member anywhere in the
  // response document (cells echo exactly the PR 4 shape).
  ProgramServer server(fast_options());
  const std::string response = server.handle_json(
      R"({"function": "sigmoid", "xs": [0.25, 0.75],)"
      R"( "stream_lengths": [512], "repeats": 2})");
  const JsonValue doc = json_parse(response);
  ASSERT_TRUE(doc.find("ok")->as_bool()) << response;
  EXPECT_EQ(response.find("\"y\""), std::string::npos) << response;
  for (const JsonValue& cell : doc.find("cells")->items()) {
    EXPECT_EQ(cell.find("y"), nullptr);
  }
}

TEST(BivariateServeTest, MetricsCountBothArities) {
  ProgramServer server(fast_options());
  (void)server.handle_json(
      R"({"function": "square", "xs": [0.5], "stream_lengths": [256],)"
      R"( "repeats": 2})");
  (void)server.handle_json(
      R"({"function": "mul", "xs": [0.5], "ys": [0.5],)"
      R"( "stream_lengths": [256], "repeats": 2})");
  (void)server.handle_json(
      R"({"function": "mul", "xs": [0.5], "ys": [0.5, 0.6],)"
      R"( "stream_lengths": [256], "repeats": 2})");  // 400: length mismatch

  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.completed_univariate, 1u);
  EXPECT_EQ(m.completed_bivariate, 1u);
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.completed_univariate + m.completed_bivariate, m.completed);

  const JsonValue doc = json_parse(server.metrics_json());
  const JsonValue& requests = *doc.find("metrics")->find("requests");
  EXPECT_EQ(requests.find("completed_univariate")->as_number(), 1.0);
  EXPECT_EQ(requests.find("completed_bivariate")->as_number(), 1.0);
}

TEST(BivariateServeTest, TypedPathRejectsRaggedGridWith400) {
  // The typed entry point bypasses parse_request's grid shape checks; a
  // ragged grid must still be a 400 client error, not a 500.
  ProgramServer server(fast_options());
  ServeRequest request;
  ProgramSpec spec;
  spec.coefficients2 = {{0.1, 0.2}, {0.3}};
  request.programs.push_back(spec);
  request.inputs = {{0.5}, {0.5}};
  request.stream_lengths = {128};
  request.repeats = 1;
  try {
    (void)server.handle(request);
    FAIL() << "ragged grid accepted";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), 400);
    EXPECT_EQ(e.reason(), "bad_request");
  }
}

TEST(BivariateServeTest, TypedPathRejectsYsLengthMismatch) {
  ProgramServer server(fast_options());
  ServeRequest request;
  ProgramSpec spec;
  spec.coefficients2 = {{0.0, 0.0}, {0.0, 1.0}};
  request.programs.push_back(spec);
  request.inputs = {{0.5, 0.6}, {0.5}};
  request.stream_lengths = {128};
  request.repeats = 1;
  EXPECT_THROW((void)server.handle(request), ServeError);
}

}  // namespace
}  // namespace oscs::serve
