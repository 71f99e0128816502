/// \file selftest.cpp
/// \brief Self-tests of the benchmark's own code: the percentile helper
///        against an exact sorted reference, reproducibility of the
///        request generator, and the span self-time arithmetic.
///        Run: perfbench_selftest (exit 0 when every check passes).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "load.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

/// Reference percentile: sort everything, interpolate between ranks.
double sorted_reference(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double h = static_cast<double>(v.size() - 1) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void test_percentile() {
  std::uint64_t state = 7;
  for (std::size_t n : {1u, 2u, 3u, 10u, 11u, 101u, 1000u}) {
    std::vector<double> v(n);
    for (double& x : v) {
      state = perfbench::mix64(state);
      x = static_cast<double>(state % 10000) / 7.0;
    }
    for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      expect(perfbench::percentile(v, q) == sorted_reference(v, q),
             "percentile n=" + std::to_string(n) + " q=" + std::to_string(q));
    }
  }
  expect(perfbench::percentile({1.0, 2.0, 3.0, 4.0}, 0.5) == 2.5,
         "median of 1..4 is 2.5");
  expect(perfbench::median({5.0, 1.0, 3.0}) == 3.0, "median of 3 samples");

  bool threw = false;
  try {
    (void)perfbench::percentile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "empty sample throws");

  // Failures count as +infinity: one failure in ten leaves p50 finite and
  // pushes p99 to infinity.
  perfbench::LatencySample s;
  for (int i = 1; i <= 9; ++i) s.ok_ms.push_back(i);
  s.failed = 1;
  expect(s.count() == 10, "sample count includes failures");
  expect(s.percentile_ms(0.5) == 5.5, "p50 with one failure");
  expect(std::isinf(s.percentile_ms(0.99)), "p99 lands on the failure");
  s.failed = 10;
  expect(std::isinf(s.percentile_ms(0.5)), "p50 with most requests failed");
}

void test_generator() {
  perfbench::RequestShape shape;
  shape.functions = {"sigmoid", "mul", "smoothstep3"};
  shape.points = 4;
  shape.probe_powers = {std::nullopt, 0.15};
  const auto a = perfbench::make_requests(shape, 42, 0, 60);
  const auto b = perfbench::make_requests(shape, 42, 0, 60);
  const auto c = perfbench::make_requests(shape, 43, 0, 60);
  const auto tail = perfbench::make_requests(shape, 42, 30, 30);
  expect(a.size() == 60, "request count");
  bool same = true, differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].line == b[i].line;
    differs = differs || a[i].line != c[i].line;
  }
  expect(same, "same seed gives identical lines");
  expect(differs, "another seed gives other lines");
  bool tail_same = true;
  for (std::size_t i = 0; i < tail.size(); ++i) {
    tail_same = tail_same && tail[i].line == a[30 + i].line;
  }
  expect(tail_same, "request i depends only on (seed, i)");

  std::set<std::uint64_t> seeds;
  std::size_t per_function[3] = {0, 0, 0};
  std::size_t at_probe = 0;
  for (const auto& r : a) {
    seeds.insert(r.seed);
    for (std::size_t f = 0; f < 3; ++f) per_function[f] += r.function == shape.functions[f];
    at_probe += r.probe_power_mw.has_value();
    expect(r.line.find("\"seed\":" + std::to_string(r.seed)) != std::string::npos,
           "every line carries its explicit seed");
    expect(r.coords.size() == perfbench::registry_arity(r.function),
           "one coordinate axis per input");
    for (const auto& axis : r.coords) {
      for (double v : axis) expect(v > 0.0 && v < 1.0, "points inside (0, 1)");
    }
  }
  expect(seeds.size() == a.size(), "request seeds are distinct");
  expect(per_function[0] == 20 && per_function[1] == 20 && per_function[2] == 20,
         "programs rotate evenly");
  expect(at_probe == 30, "probe power alternates");
  expect(a[0].bits() == 4 * shape.repeats * shape.stream_length, "bits per request");
  expect(a[2].line.find("\"inputs\":[[") != std::string::npos, "N-ary wire form");
  expect(a[1].line.find("\"ys\":[") != std::string::npos, "bivariate wire form");
}

void test_self_time() {
  using perfbench::SpanRecord;
  // parent [0, 100) with children [10, 30), [20, 40) (overlapping) and
  // [90, 120) (clipped to 100): covered 30 + 10, self 60. The first child
  // has its own child [12, 18): self 20 - 6 = 14.
  const std::vector<SpanRecord> spans = {
      {"parent", 0, 100, -1, -1},  {"a", 10, 30, 0, 1}, {"b", 20, 40, 0, 2},
      {"c", 90, 120, 0, 3},        {"a.child", 12, 18, 1, 1},
      {"root2", 200, 250, -1, -1},
  };
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  expect(self[0] == 60, "overlapping children counted once, clipped to parent");
  expect(self[1] == 14, "nested child subtracted from its own parent only");
  expect(self[2] == 20 && self[3] == 30 && self[4] == 6, "leaves keep their duration");
  expect(self[5] == 50, "childless root");

  perfbench::SpanRecorder recorder;
  {
    const perfbench::ScopedSpan outer(recorder, "outer");
    const perfbench::ScopedSpan inner(recorder, "inner", outer.index(), 7);
  }
  const auto recorded = recorder.spans();
  expect(recorded.size() == 2 && recorded[1].parent == 0 && recorded[1].request == 7,
         "recorder keeps parent and request id");
  expect(recorded[0].end_ns >= recorded[1].end_ns &&
             recorded[1].start_ns >= recorded[0].start_ns,
         "child nests inside parent");
}

}  // namespace

int main() {
  test_percentile();
  test_generator();
  test_self_time();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
