/// Throughput and scaling bench for the word-parallel batch engine
/// (src/engine/): single-thread speedup of the packed kernel over the
/// legacy per-bit TransientSimulator loop at stream length 4096, strong
/// scaling of the BatchRunner across 1/2/4 worker threads, and the fused
/// multi-program mode against K independent BatchRunner invocations.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/simd.hpp"
#include "engine/batch.hpp"
#include "engine/export.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "optsc/defaults.hpp"
#include "optsc/simulator.hpp"
#include "stochastic/functions.hpp"

using namespace oscs;
using namespace oscs::optsc;
namespace eng = oscs::engine;
namespace sc = oscs::stochastic;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Sample standard deviation of the trial wall times, so the tables can
/// state how noisy each row is instead of presenting best-of as truth.
double stddev_of(const std::vector<double>& samples) {
  if (samples.size() < 2) return 0.0;
  double mean = 0.0;
  for (double s : samples) mean += s;
  mean /= static_cast<double>(samples.size());
  double var = 0.0;
  for (double s : samples) var += (s - mean) * (s - mean);
  return std::sqrt(var / static_cast<double>(samples.size() - 1));
}

/// Mean wall time of one sim.run() over the x grid, best-of-`trials`.
double time_simulator(const TransientSimulator& sim,
                      const sc::BernsteinPoly& poly,
                      const SimulationConfig& cfg,
                      const std::vector<double>& xs, long trials,
                      double* checksum) {
  double best = 1e300;
  for (long t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    for (double x : xs) *checksum += sim.run(poly, x, cfg).optical_estimate;
    const double dt = seconds_since(t0) / static_cast<double>(xs.size());
    if (dt < best) best = dt;
  }
  return best;
}

/// The engine pool's task-wait histogram on the global registry - the
/// same instance src/engine/thread_pool.cpp records into, so the scaling
/// table can reset it per thread-count run and report the queue-wait
/// tail of exactly that run.
oscs::obs::Histogram& queue_wait_histogram() {
  return oscs::obs::Registry::global().histogram(
      "oscs_engine_pool_task_wait_us",
      "time from task submit to a worker dequeuing it [microseconds]", {},
      oscs::obs::Histogram::latency_us());
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_engine",
                 "Word-parallel batch engine: speedup, thread scaling and "
                 "fused multi-program mode");
  args.add_int("trials", 7, "timing repetitions (best-of, stddev reported)");
  args.add_int("length", 4096, "stream length [bits] for the speedup run");
  args.add_int("repeats", 8, "MC repeats per batch cell");
  args.add_int("fused_k", 8, "programs sharing one circuit in the fused run");
  args.add_flag("prom", "dump the Prometheus text exposition to stdout");
  if (!args.parse(argc, argv)) return 0;
  const long trials = std::max(1L, args.get_int("trials"));
  const auto length =
      static_cast<std::size_t>(std::max(64L, args.get_int("length")));
  const auto repeats =
      static_cast<std::size_t>(std::max(1L, args.get_int("repeats")));
  const auto fused_k =
      static_cast<std::size_t>(std::max(2L, args.get_int("fused_k")));

  bench::banner("Batch engine - packed kernel speedup and thread scaling");

  // Paper f2 (Fig. 1b) on the order-3 reference circuit.
  const sc::BernsteinPoly poly = sc::paper_f2_bernstein();
  const OpticalScCircuit circuit(paper_defaults(3, 1.0));
  const TransientSimulator sim(circuit);
  const eng::BatchRunner runner(circuit);

  const char* backend_name = oscs::simd_backend_name(oscs::simd_backend());
  std::printf("  order %zu, stream length %zu, noise enabled, "
              "operating-point BER %.3g, mux-exact fast path: %s, "
              "kernel backend: %s\n",
              circuit.order(), length, runner.design_point().ber,
              runner.kernel().mux_exact() ? "yes" : "no", backend_name);

  bench::section("single-thread: packed kernel vs legacy per-bit loop");
  std::vector<double> xs;
  for (double x = 0.05; x <= 0.96; x += 0.1) xs.push_back(x);

  SimulationConfig cfg;
  cfg.stream_length = length;
  double checksum = 0.0;

  cfg.engine = SimEngine::kPerBit;
  const double t_legacy = time_simulator(sim, poly, cfg, xs, trials, &checksum);
  cfg.engine = SimEngine::kPacked;
  const double t_packed = time_simulator(sim, poly, cfg, xs, trials, &checksum);

  // Forced-scalar packed run: isolates the SIMD backend's contribution
  // from the word-parallel restructuring itself.
  double t_packed_scalar = t_packed;
  if (oscs::simd_backend() != oscs::SimdBackend::kScalar) {
    oscs::set_simd_backend(oscs::SimdBackend::kScalar);
    t_packed_scalar = time_simulator(sim, poly, cfg, xs, trials, &checksum);
    oscs::reset_simd_backend();
  }
  const double simd_speedup = t_packed_scalar / t_packed;

  const double bits = static_cast<double>(length);
  const double speedup = t_legacy / t_packed;
  std::printf("  legacy per-bit : %10.1f us/eval  %8.1f Mbit/s\n",
              t_legacy * 1e6, bits / t_legacy / 1e6);
  std::printf("  packed scalar  : %10.1f us/eval  %8.1f Mbit/s\n",
              t_packed_scalar * 1e6, bits / t_packed_scalar / 1e6);
  std::printf("  packed (%s) : %8.1f us/eval  %8.1f Mbit/s  "
              "(%.2fx over forced scalar)\n",
              backend_name, t_packed * 1e6, bits / t_packed / 1e6,
              simd_speedup);
  bench::compare("packed vs per-bit speedup (target >= 8)", 8.0, speedup, "x");

  CsvTable speed({"engine", "us_per_eval", "mbit_per_s", "speedup"});
  speed.add_row({0.0, t_legacy * 1e6, bits / t_legacy / 1e6, 1.0});
  speed.add_row({1.0, t_packed * 1e6, bits / t_packed / 1e6, speedup});
  speed.write(bench::results_dir() + "/engine_speedup.csv");

  bench::section("batch scaling across worker threads");
  eng::BatchRequest req;
  req.polynomials.push_back(poly);
  req.xs = xs;
  req.stream_lengths = {1024, length};
  req.repeats = repeats;
  req.seed = 42;

  // hardware_concurrency() may return 0 when the count is unknown; the
  // scaling rows below still run 2/4 workers either way, so flag rows
  // that oversubscribe the machine instead of pretending they scale.
  const unsigned hardware_threads =
      std::max(1u, std::thread::hardware_concurrency());
  std::printf("  hardware threads: %u\n", hardware_threads);
  std::printf("  grid: %zu cells x %zu repeats = %zu tasks\n", req.cells(),
              req.repeats, req.tasks());

  CsvTable scaling({"threads", "seconds", "seconds_stddev", "tasks_per_s",
                    "speedup_vs_1", "oversubscribed", "wait_p50_us",
                    "wait_p95_us", "wait_p99_us"});
  double t_one = 0.0;
  for (std::size_t threads : {1u, 2u, 4u}) {
    // Per-run queue-wait distribution: reset, run, snapshot - the
    // histogram only holds this thread count's waits when read below.
    queue_wait_histogram().reset();
    double best = 1e300;
    std::vector<double> samples;
    eng::BatchSummary summary;
    for (long t = 0; t < trials; ++t) {
      const auto t0 = std::chrono::steady_clock::now();
      summary = runner.run_nd(req, threads);
      samples.push_back(seconds_since(t0));
      best = std::min(best, samples.back());
    }
    const double spread = stddev_of(samples);
    const oscs::obs::Histogram::Snapshot wait =
        queue_wait_histogram().snapshot();
    if (threads == 1) t_one = best;
    const bool oversubscribed = threads > hardware_threads;
    const double rate = static_cast<double>(summary.tasks) / best;
    std::printf("  %zu thread(s): %8.2f ms +- %.2f  %8.1f tasks/s  "
                "speedup %.2fx%s  wait p50/p95/p99 %.0f/%.0f/%.0f us  "
                "(batch MAE %.4f)\n",
                threads, best * 1e3, spread * 1e3, rate, t_one / best,
                oversubscribed ? " [oversubscribed]" : "",
                wait.quantile(0.50), wait.quantile(0.95),
                wait.quantile(0.99), summary.optical_mae);
    scaling.add_row({static_cast<double>(threads), best, spread, rate,
                     t_one / best, oversubscribed ? 1.0 : 0.0,
                     wait.quantile(0.50), wait.quantile(0.95),
                     wait.quantile(0.99)});
  }
  scaling.write(bench::results_dir() + "/engine_scaling.csv");
  bench::note(
      "scaling is bounded by the hardware thread count above; rows flagged "
      "[oversubscribed] run more workers than cores and cannot speed up. "
      "Per-task results are bit-identical for every thread count and slab "
      "grain");

  bench::section("fused multi-program mode vs independent invocations");
  // K degree-3 programs sharing one circuit: the paper's f2, a gamma fit,
  // and synthetic Bernstein kernels filling up the set.
  std::vector<sc::BernsteinPoly> programs;
  programs.push_back(poly);
  programs.push_back(sc::BernsteinPoly::fit(sc::gamma_correction().f, 3));
  for (std::size_t k = programs.size(); k < fused_k; ++k) {
    const double a = 0.1 + 0.08 * static_cast<double>(k);
    programs.push_back(sc::BernsteinPoly(
        {a, 1.0 - a, a * 0.5, std::min(1.0, 0.2 + 0.09 * double(k))}));
  }

  eng::BatchRequest fused_req;
  fused_req.polynomials = programs;
  fused_req.xs = xs;
  fused_req.stream_lengths = {length};
  fused_req.repeats = repeats;
  fused_req.seed = 42;

  // One shared single-thread pool for both sides, so the comparison
  // measures fusion amortization and not pool create/join overhead.
  eng::ThreadPool fused_pool(1);

  // Independent baseline: K separate single-program BatchRunner
  // invocations (what a caller without the fused mode would do).
  double t_independent = 1e300;
  double independent_mae = 0.0;
  for (long t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    double mae = 0.0;
    for (const sc::BernsteinPoly& p : programs) {
      eng::BatchRequest single = fused_req;
      single.polynomials = {p};
      mae += runner.run_nd(single, fused_pool).optical_mae;
    }
    t_independent = std::min(t_independent, seconds_since(t0));
    independent_mae = mae / static_cast<double>(programs.size());
  }

  double t_fused = 1e300;
  double fused_mae = 0.0;
  for (long t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    const eng::BatchSummary summary = runner.run_fused(fused_req, fused_pool);
    t_fused = std::min(t_fused, seconds_since(t0));
    fused_mae = summary.optical_mae;
  }

  const double fused_speedup = t_independent / t_fused;
  std::printf("  K = %zu programs, %zu x-points, %zu-bit streams, "
              "%zu repeats, 1 thread\n",
              programs.size(), xs.size(), length, repeats);
  std::printf("  independent : %8.1f ms  (MAE %.4f)\n", t_independent * 1e3,
              independent_mae);
  std::printf("  fused       : %8.1f ms  (MAE %.4f)\n", t_fused * 1e3,
              fused_mae);
  bench::compare("fused vs independent speedup (target >= 1.2)", 1.2,
                 fused_speedup, "x");

  // Machine-readable roll-up for CI / tracking dashboards.
  {
    JsonWriter json;
    json.begin_object()
        .field("stream_length", length)
        .field("trials", static_cast<std::int64_t>(trials))
        .field("speedup_target", 8.0)
        .field("speedup", speedup)
        .field("legacy_us_per_eval", t_legacy * 1e6)
        .field("packed_us_per_eval", t_packed * 1e6)
        .field("packed_us_per_eval_scalar", t_packed_scalar * 1e6)
        .field("packed_mbit_per_s", bits / t_packed / 1e6)
        .field("kernel_backend", std::string(backend_name))
        .field("simd_speedup", simd_speedup)
        .field("hardware_threads", hardware_threads);
    json.key("operating_point");
    operating_point_json(json, runner.design_point());
    json.key("scaling").begin_array();
    for (std::size_t r = 0; r < scaling.rows(); ++r) {
      json.begin_object();
      // CsvTable stores formatted strings; re-emit the raw numbers.
      json.field("threads", std::stoul(scaling.at(r, 0)))
          .field("seconds", std::stod(scaling.at(r, 1)))
          .field("seconds_stddev", std::stod(scaling.at(r, 2)))
          .field("tasks_per_s", std::stod(scaling.at(r, 3)))
          .field("speedup_vs_1", std::stod(scaling.at(r, 4)))
          .field("oversubscribed", std::stod(scaling.at(r, 5)) != 0.0)
          .field("wait_p50_us", std::stod(scaling.at(r, 6)))
          .field("wait_p95_us", std::stod(scaling.at(r, 7)))
          .field("wait_p99_us", std::stod(scaling.at(r, 8)))
          .end_object();
    }
    json.end_array();
    json.key("fused")
        .begin_object()
        .field("programs", programs.size())
        .field("independent_seconds", t_independent)
        .field("fused_seconds", t_fused)
        .field("fused_speedup", fused_speedup)
        .field("pass", fused_speedup >= 1.2)
        .end_object();
    json.field("pass", speedup >= 8.0 && fused_speedup >= 1.2);
    json.end_object();
    write_text_file(json.str(), "BENCH_engine.json", "bench_engine");
    bench::note("machine-readable summary written to BENCH_engine.json");
  }

  if (args.flag("prom")) {
    bench::section("Prometheus exposition (global registry)");
    std::fputs(oscs::obs::Registry::global().prometheus().c_str(), stdout);
  }

  std::printf("  (checksum %.3f)\n", checksum);
  std::printf("\n  %s: packed kernel speedup %.1fx (target 8x), "
              "fused speedup %.2fx (target 1.2x)\n",
              (speedup >= 8.0 && fused_speedup >= 1.2) ? "PASS" : "WARN",
              speedup, fused_speedup);
  return 0;
}
