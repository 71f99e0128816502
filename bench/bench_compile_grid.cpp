/// Operating-point grid certification bench: sweep every registry function
/// across a grid of probe powers x stream lengths (the link budget maps
/// each probe power to its Eq. (9) BER), then close the loop with the
/// auto-tuner on sigmoid and tanh against a 0.01 MAE budget. Emits
/// results/compile_grid.csv and the machine-readable BENCH_compile_grid.json
/// tracked as a CI artifact.

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
#include "compile/export.hpp"
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
  ArgParser args("bench_compile_grid",
                 "Noise-aware grid certification of the function registry "
                 "plus degree/width/length auto-tuning");
  args.add_int("repeats", 6, "MC repeats per grid point");
  args.add_int("grid_points", 7, "x grid points per certification");
  args.add_double("budget", 0.01, "auto-tune accuracy budget (MC MAE)");
  if (!args.parse(argc, argv)) return 0;
  const auto repeats =
      static_cast<std::size_t>(std::max(1L, args.get_int("repeats")));
  const auto grid_points =
      static_cast<std::size_t>(std::max(1L, args.get_int("grid_points")));
  const double budget = args.get_double("budget");

  bench::banner("Operating-point grid certification + auto-tuning");

  cc::GridCertificationOptions grid_options;
  grid_options.probe_scales = {0.5, 1.0, 2.0};
  grid_options.stream_lengths = {1024, 4096};
  grid_options.repeats = repeats;
  grid_options.grid_points = grid_points;

  std::printf("  probe scales x0.5/x1/x2 of the design probe, stream "
              "lengths {1024, 4096}, %zu repeats x %zu x-points\n\n",
              repeats, grid_points);
  std::printf("  %-10s %-9s %-10s %-9s %-11s %-10s\n", "function",
              "probe mW", "BER", "bits", "MC MAE", "(best/worst)");

  std::vector<cc::GridCertification> grids;
  double total_seconds = 0.0;
  for (const cc::RegistryFunction& fn : cc::function_registry()) {
    cc::CompileOptions copt;
    copt.projection.max_degree = fn.degree;
    copt.certify = false;  // the grid pass below certifies
    const auto program = cc::compile_function(fn.id, fn.f, copt);
    const auto t0 = std::chrono::steady_clock::now();
    cc::GridCertification grid = cc::certify_grid(*program, fn.f, grid_options);
    total_seconds += seconds_since(t0);
    for (const cc::GridCell& cell : grid.cells) {
      std::printf("  %-10s %-9.3f %-10.2e %-9zu %-11.4f\n", fn.id.c_str(),
                  cell.op.probe_power_mw, cell.op.ber, cell.op.stream_length,
                  cell.cert.mc_mae);
    }
    std::printf("  %-10s best %.4f / worst %.4f over %zu operating points\n\n",
                fn.id.c_str(), grid.best_mc_mae(), grid.worst_mc_mae(),
                grid.cells.size());
    grids.push_back(std::move(grid));
  }
  std::printf("  grid certification wall time: %.2f s (%zu functions)\n",
              total_seconds, grids.size());
  {
    // One CSV across the whole registry for plotting.
    oscs::CsvTable all = cc::grid_csv(grids.front());
    for (std::size_t g = 1; g < grids.size(); ++g) {
      const oscs::CsvTable t = cc::grid_csv(grids[g]);
      for (std::size_t r = 0; r < t.rows(); ++r) {
        all.start_row();
        for (std::size_t c = 0; c < t.header().size(); ++c) {
          all.cell(t.at(r, c));
        }
      }
    }
    all.write(bench::results_dir() + "/compile_grid.csv");
  }

  bench::section("auto-tune: cheapest (degree, width, length) per budget");
  struct TuneReport {
    std::string id;
    cc::AutoTuneResult result;
    double seconds = 0.0;
  };
  std::vector<TuneReport> tuned;
  for (const std::string id : {"sigmoid", "tanh"}) {
    const auto t0 = std::chrono::steady_clock::now();
    cc::AutoTuneOptions tune_options;
    tune_options.repeats = repeats;
    tune_options.grid_points = grid_points;
    TuneReport report;
    report.id = id;
    report.result = cc::auto_tune(id, budget, tune_options);
    report.seconds = seconds_since(t0);
    const cc::AutoTuneCandidate& c = report.result.chosen;
    std::printf("  %-8s %s: degree %zu, width %u, %zu bits -> MC MAE "
                "%.4f +/- %.4f (%zu candidates, %.2f s)\n",
                id.c_str(), report.result.met ? "met" : "MISSED", c.degree,
                c.width, c.stream_length, c.mc_mae, c.mc_mae_ci,
                report.result.trace.size(), report.seconds);
    tuned.push_back(std::move(report));
  }

  // Machine-readable roll-up for CI / tracking dashboards.
  bool all_met = true;
  {
    JsonWriter json;
    json.begin_object()
        .field("repeats", repeats)
        .field("grid_points", grid_points)
        .field("grid_seconds", total_seconds)
        .field("functions", grids.size());
    json.key("grid").begin_array();
    for (const cc::GridCertification& grid : grids) {
      json.begin_object()
          .field("function", grid.function_id)
          .field("cells", grid.cells.size())
          .field("best_mc_mae", grid.best_mc_mae())
          .field("worst_mc_mae", grid.worst_mc_mae())
          .end_object();
    }
    json.end_array();
    json.field("autotune_budget", budget);
    json.key("autotune").begin_array();
    for (const TuneReport& report : tuned) {
      all_met = all_met && report.result.met;
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
    write_text_file(json.str(), "BENCH_compile_grid.json",
                    "bench_compile_grid");
    bench::note("machine-readable summary written to BENCH_compile_grid.json");
  }

  std::printf("\n  %s: auto-tune %s the %.3g MAE budget for sigmoid and "
              "tanh\n",
              all_met ? "PASS" : "WARN", all_met ? "met" : "missed", budget);
  return 0;
}
