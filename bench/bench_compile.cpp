/// Compiler pipeline bench: lower every registry function to a packed
/// program (projection -> quantization -> codegen -> MC certification),
/// report per-function accuracy and compile latency, and measure the
/// program-cache speedup for repeated requests - the serving-path
/// scenario the cache exists for.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "compile/compiler.hpp"
#include "compile/registry.hpp"

using namespace oscs;
namespace cc = oscs::compile;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_compile",
                 "Function-to-Bernstein compiler: accuracy and cache "
                 "serving latency");
  args.add_int("length", 4096, "certification stream length [bits]");
  args.add_int("repeats", 16, "certification MC repeats per grid point");
  args.add_int("requests", 1000, "cache-hit requests for the serving timing");
  if (!args.parse(argc, argv)) return 0;

  cc::CompileOptions options;
  options.certification.stream_length =
      static_cast<std::size_t>(std::max(64L, args.get_int("length")));
  options.certification.repeats =
      static_cast<std::size_t>(std::max(1L, args.get_int("repeats")));

  bench::banner("Function compiler - registry accuracy and cache serving");
  std::printf("  certification: %zu-bit streams x %zu repeats, MAE budget "
              "0.02\n\n",
              options.certification.stream_length,
              options.certification.repeats);

  cc::Compiler compiler(options);
  CsvTable report({"function", "degree", "clamped", "feasibility_gap",
                   "sup_error", "mc_mae", "mc_mae_ci", "mc_worst",
                   "compile_ms"});
  std::printf("  %-10s %-7s %-9s %-10s %-19s %-9s %-10s\n", "function",
              "degree", "sup err", "feas gap", "MC MAE (95% CI)", "worst",
              "compile");

  bool all_pass = true;
  double total_cold_ms = 0.0;
  for (const cc::RegistryFunction& fn : cc::function_registry()) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto program = compiler.compile(fn.id);
    const double cold_ms = ms_since(t0);
    total_cold_ms += cold_ms;
    const cc::FitReport& fit = program->report();
    const cc::Certification& cert = *program->certification();
    all_pass = all_pass && cert.mc_mae <= 0.02;
    std::printf("  %-10s %-7zu %-9.2e %-10.3g %.4f +/- %-8.4f %-9.4f "
                "%6.1f ms\n",
                fn.id.c_str(), fit.degrees.front(), fit.max_error,
                fit.feasibility_gap, cert.mc_mae, cert.mc_mae_ci,
                cert.mc_worst, cold_ms);
    report.start_row();
    report.cell(fn.id);
    report.cell(fit.degrees.front());
    report.cell(fit.clamped ? 1 : 0);
    report.cell(fit.feasibility_gap);
    report.cell(fit.max_error);
    report.cell(cert.mc_mae);
    report.cell(cert.mc_mae_ci);
    report.cell(cert.mc_worst);
    report.cell(cold_ms);
  }
  report.write(bench::results_dir() + "/compile_report.csv");

  bench::section("program cache serving");
  const long requests = std::max(1L, args.get_int("requests"));
  const auto t0 = std::chrono::steady_clock::now();
  for (long r = 0; r < requests; ++r) {
    for (const cc::RegistryFunction& fn : cc::function_registry()) {
      (void)compiler.compile(fn.id);
    }
  }
  const double warm_ms = ms_since(t0);
  const auto n_fns = cc::function_registry().size();
  const double per_request_us =
      warm_ms * 1e3 / (static_cast<double>(requests) *
                       static_cast<double>(n_fns));
  const double cold_per_fn_ms = total_cold_ms / static_cast<double>(n_fns);
  std::printf("  cold compile: %.1f ms/function (pipeline + certification)\n",
              cold_per_fn_ms);
  std::printf("  cached serve: %.2f us/request over %ld x %zu requests\n",
              per_request_us, requests, n_fns);
  std::printf("  cache speedup: %.0fx (target >= 1000x)\n",
              cold_per_fn_ms * 1e3 / per_request_us);
  const cc::ProgramCache::Stats stats = compiler.cache().stats();
  std::printf("  cache stats: %zu hits, %zu misses, %zu evictions\n",
              stats.hits, stats.misses, stats.evictions);

  std::printf("\n  %s: registry MC MAE budget 0.02 at %zu bits\n",
              all_pass ? "PASS" : "FAIL",
              options.certification.stream_length);
  return all_pass ? 0 : 1;
}
