/// Persistent-cache bench: the acceptance criteria of the persistence PR
/// made measurable.
///   1. Cold startup: compile the full registry (1D + 2D + N-ary
///      catalogues) through the prewarm manifest, timed, then persist the
///      cache file a restarted server would load.
///   2. Prewarmed startup: construct a fresh server against that file,
///      timed - target >= 10x faster than the cold compile pass.
///   3. Zero cold compiles: serve every registry function on the
///      prewarmed server and hard-assert the cache never missed (exit 1
///      otherwise - this is the restart guarantee, not a soft metric).
/// Emits BENCH_cache.json and leaves the cache file on disk (default
/// oscs_cache.bin) so CI can archive both as artifacts.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "compile/registry.hpp"
#include "serve/server.hpp"

using namespace oscs;
namespace sv = oscs::serve;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// One evaluate request per registry entry across all three arities;
/// returns the number of failed responses.
std::size_t serve_full_registry(sv::ProgramServer& server,
                                std::size_t length, std::size_t repeats) {
  std::size_t failed = 0;
  const std::string tail = R"(, "stream_lengths": [)" +
                           std::to_string(length) + R"(], "repeats": )" +
                           std::to_string(repeats) + "}";
  const auto check = [&](const std::string& line) {
    if (!json_parse(server.handle_json(line)).find("ok")->as_bool()) {
      ++failed;
    }
  };
  for (const compile::RegistryEntry& entry : compile::registry_entries()) {
    std::string inputs = R"(, "inputs": [)";
    for (std::size_t axis = 0; axis < entry.arity; ++axis) {
      inputs += axis == 0 ? "[0.25, 0.75]" : ", [0.25, 0.75]";
    }
    inputs += "]";
    check(R"({"function": ")" + entry.id + R"(")" + inputs + tail);
  }
  return failed;
}

sv::ServerOptions server_options(bool certify) {
  sv::ServerOptions options;
  options.compile.certify = certify;
  options.threads = 1;
  options.cache_capacity = 64;  // the whole registry stays resident
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_cache",
                 "Persistent program cache: cold registry compile vs "
                 "prewarmed startup from a saved cache file");
  args.add_string("cache_file", "oscs_cache.bin",
                  "cache file to write and prewarm from");
  args.add_int("length", 512, "stream length per evaluation [bits]");
  args.add_int("repeats", 2, "MC repeats per grid cell");
  args.add_flag("certify",
                "certify cold compiles (heavier, closer to production)");
  if (!args.parse(argc, argv)) return 0;

  const std::string cache_file = args.get_string("cache_file");
  const auto length =
      static_cast<std::size_t>(std::max(64L, args.get_int("length")));
  const auto repeats =
      static_cast<std::size_t>(std::max(1L, args.get_int("repeats")));
  const bool certify = args.flag("certify");

  const std::size_t registry_total = compile::registry_entries().size();

  bench::banner("Persistent program cache - cold compile vs prewarm");

  // ---- Phase 1: cold startup. Compile the full registry through the
  // manifest (fanned across the pool, the same path a cold restart with
  // compile_missing takes), then persist the cache.
  bench::section("Cold startup: compile the full registry");
  sv::ProgramServer cold_server(server_options(certify));
  sv::PrewarmOptions manifest;
  manifest.compile_missing = true;
  const auto t_cold = Clock::now();
  const sv::PrewarmReport cold = cold_server.prewarm(manifest);
  const double cold_ms = ms_since(t_cold);
  std::printf("  compiled %zu/%zu registry programs in %.2f ms%s\n",
              cold.compiled, registry_total, cold_ms,
              certify ? " (certified)" : "");
  if (cold.compiled != registry_total || cold.compile_errors != 0) {
    std::printf("FAIL: cold compile pass incomplete (%zu errors)\n",
                cold.compile_errors);
    return 1;
  }
  const std::size_t saved = cold_server.save_cache(cache_file);
  std::printf("  saved %zu programs -> %s\n", saved, cache_file.c_str());

  // ---- Phase 2: prewarmed startup against the saved file.
  bench::section("Prewarmed startup: load the cache file");
  sv::ServerOptions warm_options = server_options(certify);
  warm_options.prewarm.cache_file = cache_file;
  const auto t_warm = Clock::now();
  sv::ProgramServer warm_server(warm_options);
  const double warm_ms = ms_since(t_warm);
  const sv::ServerMetrics after_load = warm_server.metrics();
  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
  const bool speedup_pass = speedup >= 10.0;
  std::printf("  loaded %zu programs in %.2f ms (%zu load errors)\n",
              after_load.cache_loaded, warm_ms,
              after_load.cache_load_errors);
  std::printf("  prewarmed startup speedup: %.0fx (target >= 10x) -> %s\n",
              speedup, speedup_pass ? "PASS" : "FAIL");
  const bool load_pass = after_load.cache_loaded == registry_total &&
                         after_load.cache_load_errors == 0 &&
                         after_load.cache_prewarmed == 0;
  if (!load_pass) {
    std::printf("FAIL: prewarm load incomplete (%zu/%zu, %zu errors)\n",
                after_load.cache_loaded, registry_total,
                after_load.cache_load_errors);
  }

  // ---- Phase 3: the restart guarantee. Serve every registry function
  // on the prewarmed server; a single cache miss means a cold compile
  // leaked onto the request path.
  bench::section("Full-registry traffic on the prewarmed server");
  const std::size_t failed =
      serve_full_registry(warm_server, length, repeats);
  const sv::ServerMetrics after_traffic = warm_server.metrics();
  const bool zero_cold_pass =
      failed == 0 && after_traffic.cache.misses == 0;
  std::printf("  served %zu functions: %zu failed, %zu cache misses, "
              "%zu hits -> %s\n",
              registry_total, failed, after_traffic.cache.misses,
              after_traffic.cache.hits,
              zero_cold_pass ? "PASS (zero cold compiles)" : "FAIL");

  JsonWriter json;
  json.begin_object()
      .field("bench", "cache")
      .field("certify", certify)
      .field("registry_total", registry_total)
      .field("cold_compile_ms", cold_ms)
      .field("prewarmed_startup_ms", warm_ms)
      .field("speedup", speedup)
      .field("cache_file", cache_file)
      .field("saved_programs", saved)
      .field("loaded_programs", after_load.cache_loaded)
      .field("load_errors", after_load.cache_load_errors)
      .field("served_failed", failed)
      .field("cache_misses_after_traffic", after_traffic.cache.misses)
      .field("cache_hits_after_traffic", after_traffic.cache.hits)
      .field("speedup_pass", speedup_pass)
      .field("load_pass", load_pass)
      .field("zero_cold_compiles_pass", zero_cold_pass)
      .end_object();
  write_text_file(json.str(), "BENCH_cache.json", "bench_cache");

  const bool pass = speedup_pass && load_pass && zero_cold_pass;
  std::printf("\n  %s: prewarmed startup >= 10x cold, full registry "
              "served with zero cold compiles\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
