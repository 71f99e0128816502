/// N-ary (sum-of-separable) compiler bench: compile every 3-input
/// registry entry through the ALS projection, certify it over the N-D MC
/// grid at 4096-bit streams via certify_nd, measure cold-compile versus
/// warm-cache latency, and report each function's terms-versus-accuracy
/// trajectory (the rank the greedy build-up actually needed). Emits the
/// machine-readable BENCH_compile_nd.json tracked as a CI artifact.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "compile/compiler.hpp"
#include "compile/registry.hpp"

using namespace oscs;
namespace cc = oscs::compile;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_compile_nd",
                 "N-ary separable function compiler: ALS fit, per-factor "
                 "quantization, N-D grid certification and cache warm-up");
  args.add_int("repeats", 8, "MC repeats per grid tuple");
  args.add_int("grid_points", 5, "interior grid points per axis");
  args.add_int("stream_length", 4096, "bits per evaluation");
  args.add_double("budget", 0.03, "accuracy budget (certified MC MAE)");
  if (!args.parse(argc, argv)) return 0;
  const auto repeats =
      static_cast<std::size_t>(std::max(1L, args.get_int("repeats")));
  const auto grid_points =
      static_cast<std::size_t>(std::max(1L, args.get_int("grid_points")));
  const auto stream_length =
      static_cast<std::size_t>(std::max(1L, args.get_int("stream_length")));
  const double budget = args.get_double("budget");

  bench::banner("N-ary separable compiler: ALS fit -> quantize -> certify "
                "on the N-D grid");
  std::printf("  %zu^N interior grid, %zu-bit streams, %zu repeats, "
              "budget %.3g\n\n",
              grid_points, stream_length, repeats, budget);

  cc::CompileOptions defaults;
  defaults.certification.grid_points = grid_points;
  defaults.certification.repeats = repeats;
  defaults.certification.stream_length = stream_length;
  cc::Compiler compiler(defaults);

  struct Entry {
    std::string id;
    std::size_t arity = 0;
    std::size_t degree = 0;
    std::size_t terms = 0;
    std::vector<double> term_errors;
    double fit_max_error = 0.0;
    double mc_mae = 0.0;
    double mc_mae_ci = 0.0;
    double mc_worst = 0.0;
    double approx_max_error = 0.0;
    double cold_seconds = 0.0;
    double warm_seconds = 0.0;
    bool met = false;
  };
  std::vector<Entry> entries;
  bool all_met = true;

  std::printf("  %-16s %-7s %-6s %-11s %-11s %-10s %-9s\n", "function",
              "arity", "terms", "MC MAE", "95% CI", "cold [s]", "warm [s]");
  for (const cc::RegistryFunctionN& fn : cc::function_registry_nd()) {
    Entry entry;
    entry.id = fn.id;
    const auto t_cold = std::chrono::steady_clock::now();
    const auto program = compiler.compile_nd(fn.id);
    entry.cold_seconds = seconds_since(t_cold);
    const auto t_warm = std::chrono::steady_clock::now();
    (void)compiler.compile_nd(fn.id);  // warm hit: same key, no pipeline
    entry.warm_seconds = seconds_since(t_warm);

    const cc::ProjectionResultN& projection = program->projection_nd();
    entry.arity = program->arity();
    entry.degree = program->circuit_order();
    entry.terms = projection.terms;
    entry.term_errors = projection.term_errors;
    entry.fit_max_error = projection.max_error;
    const cc::Certification& cert = program->certification().value();
    entry.mc_mae = cert.mc_mae;
    entry.mc_mae_ci = cert.mc_mae_ci;
    entry.mc_worst = cert.mc_worst;
    entry.approx_max_error = cert.approx_max_error;
    entry.met = cert.mc_mae <= budget;
    all_met = all_met && entry.met;
    std::printf("  %-16s %-7zu %-6zu %-11.5f %-11.5f %-10.3f %-9.5f\n",
                fn.id.c_str(), entry.arity, entry.terms, entry.mc_mae,
                entry.mc_mae_ci, entry.cold_seconds, entry.warm_seconds);
    entries.push_back(std::move(entry));
  }

  bench::section("terms vs fit error (greedy rank trajectory)");
  for (const Entry& entry : entries) {
    std::printf("  %-16s", entry.id.c_str());
    for (std::size_t t = 0; t < entry.term_errors.size(); ++t) {
      std::printf("  %zu term%s: %.5f", t + 1, t == 0 ? " " : "s",
                  entry.term_errors[t]);
    }
    std::printf("\n");
  }

  // Machine-readable roll-up for CI / tracking dashboards.
  {
    JsonWriter json;
    json.begin_object()
        .field("repeats", repeats)
        .field("grid_points", grid_points)
        .field("stream_length", stream_length)
        .field("budget", budget);
    json.key("functions").begin_array();
    for (const Entry& entry : entries) {
      json.begin_object()
          .field("function", entry.id)
          .field("arity", entry.arity)
          .field("factor_degree", entry.degree)
          .field("terms", entry.terms);
      json.key("term_errors").begin_array();
      for (double error : entry.term_errors) json.value(error);
      json.end_array();
      json.field("fit_max_error", entry.fit_max_error)
          .field("mc_mae", entry.mc_mae)
          .field("mc_mae_ci", entry.mc_mae_ci)
          .field("mc_worst", entry.mc_worst)
          .field("approx_max_error", entry.approx_max_error)
          .field("cold_seconds", entry.cold_seconds)
          .field("warm_seconds", entry.warm_seconds)
          .field("met", entry.met)
          .end_object();
    }
    json.end_array();
    json.field("pass", all_met);
    json.end_object();
    write_text_file(json.str(), "BENCH_compile_nd.json", "bench_compile_nd");
    bench::note("machine-readable summary written to BENCH_compile_nd.json");
  }

  std::printf("\n  %s: every N-ary registry entry %s the %.3g certified "
              "MC MAE budget at %zu-bit streams\n",
              all_met ? "PASS" : "WARN", all_met ? "met" : "missed", budget,
              stream_length);
  return 0;
}
