/// Bivariate (tensor-product) compiler bench: compile every two-input
/// registry entry, certify it over the (x, y) MC grid at 4096-bit
/// streams, measure cold-compile versus warm-cache latency, and close the
/// loop with the bivariate auto-tuner on mul and alpha_blend. Emits the
/// machine-readable BENCH_compile_2d.json tracked as a CI artifact.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/operating_point.hpp"
#include "compile/autotune.hpp"
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
  ArgParser args("bench_compile_2d",
                 "Tensor-product (bivariate) function compiler: (x, y) grid "
                 "certification, cache warm-up and auto-tuning");
  args.add_int("repeats", 8, "MC repeats per grid point");
  args.add_int("grid_points", 9, "(x, y) grid points per axis");
  args.add_int("stream_length", 4096, "bits per evaluation");
  args.add_double("budget", 0.02, "accuracy budget (MC MAE + CI)");
  if (!args.parse(argc, argv)) return 0;
  const auto repeats =
      static_cast<std::size_t>(std::max(1L, args.get_int("repeats")));
  const auto grid_points =
      static_cast<std::size_t>(std::max(1L, args.get_int("grid_points")));
  const auto stream_length =
      static_cast<std::size_t>(std::max(1L, args.get_int("stream_length")));
  const double budget = args.get_double("budget");

  bench::banner("Bivariate compiler: fit -> quantize -> certify on the "
                "(x, y) grid");
  std::printf("  %zux%zu interior grid, %zu-bit streams, %zu repeats, "
              "budget %.3g\n\n",
              grid_points, grid_points, stream_length, repeats, budget);

  cc::CompileOptions defaults;
  defaults.certification.grid_points = grid_points;
  defaults.certification.repeats = repeats;
  defaults.certification.stream_length = stream_length;
  cc::Compiler compiler(defaults);

  struct Entry {
    std::string id;
    std::size_t deg_x = 0;
    std::size_t deg_y = 0;
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

  std::printf("  %-16s %-9s %-11s %-11s %-10s %-9s\n", "function", "deg",
              "MC MAE", "95% CI", "cold [s]", "warm [s]");
  for (const cc::RegistryFunction2& fn : cc::function_registry2()) {
    Entry entry;
    entry.id = fn.id;
    const auto t_cold = std::chrono::steady_clock::now();
    const auto program = compiler.compile2(fn.id);
    entry.cold_seconds = seconds_since(t_cold);
    const auto t_warm = std::chrono::steady_clock::now();
    (void)compiler.compile2(fn.id);  // warm hit: same key, no pipeline
    entry.warm_seconds = seconds_since(t_warm);

    entry.deg_x = program->circuit_order();
    entry.deg_y = program->circuit_order_y();
    const cc::Certification& cert = program->certification().value();
    entry.mc_mae = cert.mc_mae;
    entry.mc_mae_ci = cert.mc_mae_ci;
    entry.mc_worst = cert.mc_worst;
    entry.approx_max_error = cert.approx_max_error;
    entry.met = cert.mc_mae + cert.mc_mae_ci <= budget;
    all_met = all_met && entry.met;
    std::printf("  %-16s (%zu,%zu)%-4s %-11.5f %-11.5f %-10.3f %-9.5f\n",
                fn.id.c_str(), entry.deg_x, entry.deg_y, "", entry.mc_mae,
                entry.mc_mae_ci, entry.cold_seconds, entry.warm_seconds);
    entries.push_back(std::move(entry));
  }

  bench::section(
      "auto_tune (bivariate): cheapest (degree, width, length) per budget");
  struct TuneReport {
    std::string id;
    cc::AutoTuneResult result;
    double seconds = 0.0;
  };
  std::vector<TuneReport> tuned;
  for (const std::string id : {"mul", "alpha_blend"}) {
    cc::AutoTuneOptions tune_options;
    tune_options.degrees = {1, 2, 3};
    tune_options.repeats = repeats;
    tune_options.grid_points = std::min<std::size_t>(grid_points, 5);
    const auto t0 = std::chrono::steady_clock::now();
    TuneReport report;
    report.id = id;
    report.result = cc::auto_tune(id, budget, tune_options);
    report.seconds = seconds_since(t0);
    const cc::AutoTuneCandidate& c = report.result.chosen;
    std::printf("  %-12s %s: degree %zu, width %u, %zu bits -> MC MAE "
                "%.4f +/- %.4f (%zu candidates, %.2f s)\n",
                id.c_str(), report.result.met ? "met" : "MISSED", c.degree,
                c.width, c.stream_length, c.mc_mae, c.mc_mae_ci,
                report.result.trace.size(), report.seconds);
    all_met = all_met && report.result.met;
    tuned.push_back(std::move(report));
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
          .field("degree_x", entry.deg_x)
          .field("degree_y", entry.deg_y)
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
    json.key("autotune").begin_array();
    for (const TuneReport& report : tuned) {
      json.begin_object()
          .field("function", report.id)
          .field("met", report.result.met)
          .field("degree", report.result.chosen.degree)
          .field("width", report.result.chosen.width)
          .field("stream_length", report.result.chosen.stream_length)
          .field("mc_mae", report.result.chosen.mc_mae)
          .field("mc_mae_ci", report.result.chosen.mc_mae_ci)
          .field("candidates_visited", report.result.trace.size())
          .field("seconds", report.seconds);
      json.key("operating_point");
      oscs::operating_point_json(json, report.result.op);
      json.end_object();
    }
    json.end_array();
    json.field("pass", all_met);
    json.end_object();
    write_text_file(json.str(), "BENCH_compile_2d.json", "bench_compile_2d");
    bench::note("machine-readable summary written to BENCH_compile_2d.json");
  }

  std::printf("\n  %s: every bivariate registry entry %s the %.3g budget on "
              "the %zux%zu grid\n",
              all_met ? "PASS" : "WARN", all_met ? "met" : "missed", budget,
              grid_points, grid_points);
  return 0;
}
