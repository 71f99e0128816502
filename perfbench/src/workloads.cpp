#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <unistd.h>
#include <utility>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "serve/tcp.hpp"
#include "stats.hpp"

namespace perfbench {

using oscs::serve::ProgramServer;
using oscs::serve::ServerOptions;
using oscs::serve::TcpClient;
using oscs::serve::TcpServer;

WorkloadSpec workload_spec(const std::string& name, double seconds) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "bulk_eval") {
    spec.shape.functions = {"sigmoid", "euclid2", "smoothstep3"};
    spec.shape.points = 16;
    spec.shape.repeats = 8;
    spec.shape.stream_length = 32768;
    spec.shape.probe_powers = {std::nullopt, 0.15};
    spec.server.threads = 2;
    spec.nominal_rps = 100.0;
    spec.setups = 10;
    spec.warmup_requests = 12;
  } else if (name == "cold_start") {
    // Follow-up traffic after the first touch of all 16 programs: one
    // program per arity, so each latency class holds a third of the
    // requests and neither p50 nor p90 sits on a class boundary. Requests
    // of 2.1 Mbit (5-25 ms each) keep it compute-bound.
    spec.shape.functions = {"gamma", "bilinear_gamma", "rgb_luma"};
    spec.shape.points = 16;
    spec.shape.repeats = 8;
    spec.shape.stream_length = 16384;
    spec.nominal_rps = 30.0;
    spec.setups = 101;  // sub-millisecond each
    spec.chunks = 2;  // per cycle
    spec.cycles = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::lround(seconds * 0.3)));
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (spec.cycles == 0) {
    // bulk_eval prewarms exactly the programs its traffic uses.
    spec.server.prewarm.compile_missing = true;
    spec.server.prewarm.functions = spec.shape.functions;
  }
  return spec;
}

std::size_t RunResult::attempted() const {
  std::size_t n = 0;
  for (const PhaseCounts& p : phases) n += p.attempted;
  return n;
}

std::size_t RunResult::failed() const {
  std::size_t n = 0;
  for (const PhaseCounts& p : phases) n += p.failed();
  return n;
}

namespace {

/// A server plus its TCP front end; the listener (which references the
/// server) always goes first.
struct Deployment {
  std::unique_ptr<ProgramServer> server;
  std::unique_ptr<TcpServer> tcp;

  Deployment() = default;
  Deployment(Deployment&&) = default;
  /// Deleted: member-wise assignment would drop the server first.
  Deployment& operator=(Deployment&&) = delete;
  ~Deployment() { stop(); }

  void start(const ServerOptions& options) {
    stop();
    server = std::make_unique<ProgramServer>(options);
    tcp = std::make_unique<TcpServer>(*server);
  }
  void stop() {
    tcp.reset();
    server.reset();
  }
};

/// Client-side record of one batch of requests.
struct Traffic {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<std::string> responses;  ///< empty on a transport failure
  std::vector<double> latency_ms;
};

/// Closed loop over one connection: each request is sent after the
/// previous response arrived. The connection opens before the clock starts.
Traffic drive(std::uint16_t port, std::span<const Request> requests,
              SpanRecorder* spans, int parent_span) {
  Traffic traffic;
  traffic.responses.resize(requests.size());
  traffic.latency_ms.resize(requests.size());
  TcpClient connection(port);
  const Stopwatch watch;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const int span =
        spans ? spans->begin("client.request", parent_span,
                             static_cast<std::int64_t>(requests[i].index))
              : -1;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      traffic.responses[i] = connection.request(requests[i].line);
    } catch (const std::exception&) {
      // Left empty: counted as a transport failure by check().
    }
    traffic.latency_ms[i] = seconds_since(t0) * 1e3;
    if (spans) spans->end(span);
  }
  traffic.wall_s = watch.wall_s();
  traffic.cpu_s = watch.cpu_s();
  return traffic;
}

/// Checked outcome of one batch of requests.
struct Checked {
  PhaseCounts counts;
  LatencySample latency;
  double mae_sum = 0.0;      ///< optical_mae summed in request order
  std::size_t bits = 0;      ///< total_bits over succeeded responses
  /// Succeeded latencies per request class (program @ probe power).
  std::map<std::string, std::vector<double>> class_ms;
  /// Per-chunk throughput, latency percentiles and CPU cost; the reported
  /// values are their medians, so a burst of outside load spoils one
  /// chunk, not the run.
  std::vector<double> chunk_rps;
  std::vector<double> chunk_p50_ms;
  std::vector<double> chunk_p90_ms;
  std::vector<double> chunk_ns_per_bit;
  std::size_t chunked_requests = 0;  ///< requests behind the chunk medians

  void add(const Checked& other) {
    chunked_requests += other.chunked_requests;
    chunk_p50_ms.insert(chunk_p50_ms.end(), other.chunk_p50_ms.begin(),
                        other.chunk_p50_ms.end());
    chunk_p90_ms.insert(chunk_p90_ms.end(), other.chunk_p90_ms.begin(),
                        other.chunk_p90_ms.end());
    chunk_rps.insert(chunk_rps.end(), other.chunk_rps.begin(), other.chunk_rps.end());
    chunk_ns_per_bit.insert(chunk_ns_per_bit.end(), other.chunk_ns_per_bit.begin(),
                            other.chunk_ns_per_bit.end());
    for (const auto& [key, ms] : other.class_ms) {
      class_ms[key].insert(class_ms[key].end(), ms.begin(), ms.end());
    }
    counts.attempted += other.counts.attempted;
    counts.succeeded += other.counts.succeeded;
    for (const auto& [reason, n] : other.counts.failed_by_reason) {
      counts.failed_by_reason[reason] += n;
    }
    latency.ok_ms.insert(latency.ok_ms.end(), other.latency.ok_ms.begin(),
                         other.latency.ok_ms.end());
    latency.failed += other.latency.failed;
    mae_sum += other.mae_sum;
    bits += other.bits;
  }
};

/// Member `key` of an object.
/// \throws std::invalid_argument when it is absent.
const oscs::JsonValue& member(const oscs::JsonValue& doc, const char* key) {
  const oscs::JsonValue* value = doc.find(key);
  if (value == nullptr) {
    throw std::invalid_argument(std::string("response lacks \"") + key + "\"");
  }
  return *value;
}

std::string failure_reason(const oscs::JsonValue& doc) {
  const oscs::JsonValue* error = doc.find("error");
  const oscs::JsonValue* reason = error ? error->find("reason") : nullptr;
  if (reason != nullptr && reason->is_string()) {
    const std::string& r = reason->as_string();
    if (r == "busy" || r == "compile_budget" || r == "too_large") return r;
  }
  return "other";
}

std::string class_key(const Request& r) {
  return r.function + "@" + (r.probe_power_mw.has_value()
                                 ? std::to_string(*r.probe_power_mw) + "mW"
                                 : std::string("design"));
}

/// Every response must be ok, carry one cell per requested point and
/// account for exactly the requested stream bits.
Checked check(const std::string& phase, std::span<const Request> requests,
              const Traffic& traffic) {
  Checked out;
  out.counts.phase = phase;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ++out.counts.attempted;
    std::string reason = "other";
    try {
      const oscs::JsonValue doc = oscs::json_parse(traffic.responses[i]);
      if (member(doc, "ok").as_bool()) {
        const std::size_t cells = member(doc, "cells").items().size();
        const std::size_t bits = member(doc, "total_bits").as_uint64();
        if (cells == requests[i].coords.front().size() &&
            bits == requests[i].bits()) {
          ++out.counts.succeeded;
          out.mae_sum += member(doc, "optical_mae").as_number();
          out.bits += bits;
          out.latency.ok_ms.push_back(traffic.latency_ms[i]);
          out.class_ms[class_key(requests[i])].push_back(traffic.latency_ms[i]);
          continue;
        }
      } else {
        reason = failure_reason(doc);
      }
    } catch (const std::exception&) {
      // Transport failure, malformed response or a missing member.
    }
    ++out.counts.failed_by_reason[reason];
    ++out.latency.failed;
  }
  return out;
}

/// Send `requests` as spec.chunks consecutive slices, checking each; every
/// slice contributes one throughput, latency and CPU-cost sample.
/// `between(k)` runs after every chunk k but the last.
Checked chunked(const std::string& phase, std::uint16_t port,
                std::span<const Request> requests, const WorkloadSpec& spec,
                SpanRecorder* spans, int parent_span,
                const std::function<void(std::size_t)>& between = {}) {
  Checked total;
  total.counts.phase = phase;
  for (std::size_t k = 0; k < spec.chunks; ++k) {
    if (k > 0 && between) between(k - 1);
    const std::size_t lo = requests.size() * k / spec.chunks;
    const std::size_t hi = requests.size() * (k + 1) / spec.chunks;
    const auto slice = requests.subspan(lo, hi - lo);
    const Traffic traffic = drive(port, slice, spans, parent_span);
    Checked c = check(phase, slice, traffic);
    c.chunked_requests = slice.size();
    c.chunk_rps.push_back(static_cast<double>(c.counts.succeeded) / traffic.wall_s);
    c.chunk_p50_ms.push_back(c.latency.percentile_ms(0.5));
    c.chunk_p90_ms.push_back(c.latency.percentile_ms(0.9));
    c.chunk_ns_per_bit.push_back(traffic.cpu_s * 1e9 /
                                 static_cast<double>(std::max<std::size_t>(1, c.bits)));
    total.add(c);
  }
  return total;
}

/// "<label>: v1 v2 ..." - the samples behind a reported median.
std::string series(const std::string& label, const std::vector<double>& values) {
  std::string out = label + ":";
  for (const double v : values) {
    char cell[24];
    std::snprintf(cell, sizeof cell, " %.4g", v);
    out += cell;
  }
  return out;
}

void record(RunResult& result, const Checked& checked) {
  result.phases.push_back(checked.counts);
  if (checked.counts.failed() > 0) {
    result.problems.push_back(checked.counts.phase + ": " +
                              std::to_string(checked.counts.failed()) + " of " +
                              std::to_string(checked.counts.attempted) +
                              " requests failed");
  }
}

/// Wall-clock figures of a pass. On a shared 4-vCPU VM they move with the
/// host: across ten runs their spread (IQR / median) reached 0.26 on
/// bulk_eval and 0.73 on cold_start, while the CPU-time figures of the
/// same runs stayed within 0.15. So they are reported per-layer as
/// wall.<name> and not gated end to end.
bool is_wall_clock(const std::string& name) {
  return name == "throughput_rps" || name == "latency_p50_ms" ||
         name == "latency_p90_ms" || name == "cold_start_s";
}

/// Every figure of a pass: the end-to-end metrics in BENCHMARK.json order,
/// with the wall-clock figures among them.
struct EndToEnd {
  double setup_s = 0.0;
  Checked traffic;
  double cold_start_s = 0.0;
  double cold_start_cpu_s = 0.0;
  double certified_mae = 0.0;

  [[nodiscard]] std::vector<Metric> metrics() const {
    const std::size_t ok = traffic.counts.succeeded;
    const std::string n = "n=" + std::to_string(traffic.counts.attempted) + " (" +
                          std::to_string(traffic.counts.failed()) + " failed)";
    const std::string chunks =
        "n=" + std::to_string(traffic.chunked_requests) + ", median of " +
        std::to_string(traffic.chunk_rps.size()) + " chunks";
    return {
        {"setup_s", setup_s, "s", ""},
        {"throughput_rps", median(traffic.chunk_rps), "1/s", chunks},
        {"latency_p50_ms", median(traffic.chunk_p50_ms), "ms", chunks},
        {"latency_p90_ms", median(traffic.chunk_p90_ms), "ms", chunks},
        {"cpu_ns_per_bit", median(traffic.chunk_ns_per_bit), "ns/bit", chunks},
        {"mae", ok == 0 ? 1.0 : traffic.mae_sum / static_cast<double>(ok),
         "abs", n},
        {"success_rate",
         static_cast<double>(ok) /
             static_cast<double>(std::max<std::size_t>(1, traffic.counts.attempted)),
         "ratio", n},
        {"cold_start_s", cold_start_s, "s", ""},
        {"cold_start_cpu_s", cold_start_cpu_s, "s", ""},
        {"certified_mae", certified_mae, "abs", ""},
    };
  }
};

/// Certified MC MAE of each named resident program; every one must carry
/// a certificate.
std::vector<double> certified_maes(ProgramServer& server,
                                   const std::vector<std::string>& functions,
                                   std::vector<std::string>& problems) {
  std::vector<double> maes;
  for (const std::string& id : functions) {
    const auto program = resident_program(server.compiler(), id);
    if (!program->certification().has_value()) {
      problems.push_back("program '" + id + "' is not certified");
      maes.push_back(0.0);
    } else {
      maes.push_back(program->certification()->mc_mae);
    }
  }
  return maes;
}

double mean(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

/// One pass of a workload: the untraced measurement, or its traced twin.
struct Pass {
  EndToEnd e2e;
  Deployment live;         ///< the serving deployment, kept for the probes
  LayerReadings readings;  ///< per-layer numbers read off the timed traffic
};

ServerOptions traced_options(ServerOptions options, const std::string& path) {
  options.trace_log.path = path;
  options.trace_log.sample_every = 1;
  return options;
}

std::string out_file(const RunOptions& run, const std::string& stem) {
  return run.out_dir + "/" + run.workload + "-" + std::to_string(getpid()) +
         "-" + stem;
}

/// The engine pool counters of the global registry, summed over the timed
/// traffic only: collect() folds in everything since the last reset and
/// resets, so work between chunks (interleaved set-ups) can be dropped
/// with a plain reset.
struct PoolTally {
  oscs::obs::Histogram wait{oscs::obs::Histogram::latency_us()};
  std::uint64_t tasks = 0;

  void collect() {
    auto& global = oscs::obs::Registry::global();
    if (const auto* h = global.find_histogram("oscs_engine_pool_task_wait_us")) {
      wait.merge(*h);
    }
    if (const auto* c = global.find_counter("oscs_engine_pool_tasks_total")) {
      tasks += c->value();
    }
    global.reset_all();
  }
};

/// Read the timed traffic's layer numbers: the engine pool tally and the
/// server's stage histograms and cache counters.
LayerReadings read_layers(const ProgramServer& server,
                          const oscs::compile::ProgramCache::Stats& before,
                          const Checked& traffic, const PoolTally& pool) {
  LayerReadings r;
  r.queue_wait_us = pool.wait.snapshot().quantile(0.5);
  r.pool_tasks_per_req = static_cast<double>(pool.tasks) /
                         static_cast<double>(traffic.counts.attempted);
  const oscs::serve::ServerMetrics m = server.metrics();
  r.stage_parse_us = m.parse.p50_us;
  r.stage_resolve_us = m.resolve.p50_us;
  r.stage_execute_us = m.execute.p50_us;
  r.stage_serialize_us = m.serialize.p50_us;
  r.stage_total_us = m.total.p50_us;
  r.client_p50_us = traffic.latency.percentile_ms(0.5) * 1e3;
  const auto after = m.cache;
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups =
      hits + static_cast<double>(after.misses - before.misses) +
      static_cast<double>(after.coalesced - before.coalesced);
  r.cache_hit_ratio = lookups > 0.0 ? hits / lookups : 0.0;
  r.cold_compiles = after.misses - before.misses;
  r.accuracy_drift = m.accuracy_drift;
  return r;
}

/// bulk_eval: bring the serving deployment up, then send the
/// timed traffic over one connection. The other `setups - 1`
/// set-ups bring up throwaway deployments between traffic chunks, so the
/// set-up samples spread over the whole run (median reported).
Pass warm_pass(const WorkloadSpec& spec,
               const ServerOptions& options,
               const std::vector<Request>& timed,
               const std::vector<Request>& warmup, const std::string& label,
               SpanRecorder* spans, RunResult& result) {
  Pass pass;
  std::vector<double> setup_s, start_s, start_cpu_s;
  Checked warm_total;
  warm_total.counts.phase = label + ".warmup";
  auto bring_up = [&](Deployment& deployment) {
    const Stopwatch setup;
    const Stopwatch start;
    deployment.start(options);
    start_s.push_back(start.wall_s());
    start_cpu_s.push_back(start.cpu_s());
    const Traffic warm =
        drive(deployment.tcp->port(), warmup, nullptr, -1);
    setup_s.push_back(setup.wall_s());
    warm_total.add(check(label + ".warmup", warmup, warm));
    const std::size_t prewarmed = deployment.server->metrics().cache_prewarmed;
    if (prewarmed != spec.shape.functions.size()) {
      result.problems.push_back(label + ": prewarm compiled " +
                                std::to_string(prewarmed) + " of " +
                                std::to_string(spec.shape.functions.size()) +
                                " programs");
    }
  };
  bring_up(pass.live);
  ProgramServer& server = *pass.live.server;

  const std::size_t every =
      std::max<std::size_t>(1, (spec.chunks - 1) / std::max<std::size_t>(1, spec.setups - 1));
  auto between = [&](std::size_t chunk) {
    if ((chunk + 1) % every != 0 || setup_s.size() >= spec.setups) return;
    Deployment scratch;
    bring_up(scratch);
  };
  PoolTally pool;
  const auto cache_before = server.compiler().cache().stats();
  oscs::obs::Registry::global().reset_all();
  const int root = spans ? spans->begin(label + ".traffic") : -1;
  pass.e2e.traffic = chunked(label + ".timed", pass.live.tcp->port(), timed,
                             spec, spans, root, [&](std::size_t chunk) {
                               pool.collect();
                               between(chunk);
                               // Drops the set-up's pool work.
                               oscs::obs::Registry::global().reset_all();
                             });
  pool.collect();
  if (spans) spans->end(root);
  record(result, warm_total);
  record(result, pass.e2e.traffic);
  pass.readings = read_layers(server, cache_before, pass.e2e.traffic, pool);

  result.notes.push_back(series(label + " setup_s", setup_s));
  result.notes.push_back(series(label + " cold_start_s", start_s));
  result.notes.push_back(series(label + " cold_start_cpu_s", start_cpu_s));
  pass.e2e.setup_s = median(setup_s);
  pass.e2e.cold_start_s = median(start_s);
  pass.e2e.cold_start_cpu_s = median(start_cpu_s);
  pass.e2e.certified_mae =
      mean(certified_maes(server, spec.shape.functions, result.problems));
  return pass;
}

/// cold_start: `setups` bring-ups of an empty server (median reported),
/// then `cycles` of compile-the-registry / save / reload / first touch.
Pass cold_pass(const RunOptions& run, const WorkloadSpec& spec,
               const std::vector<std::vector<Request>>& per_cycle,
               const std::string& label, SpanRecorder* spans,
               RunResult& result) {
  Pass pass;
  const std::string cache_path = out_file(run, label + "-cache.bin");
  const bool traced = spans != nullptr;
  const ServerOptions base =
      traced ? traced_options(spec.server, out_file(run, label + "-serve.jsonl"))
             : spec.server;

  std::vector<double> setup_s;
  for (std::size_t k = 0; k < spec.setups; ++k) {
    const Stopwatch setup;
    pass.live.start(base);
    TcpClient client(pass.live.tcp->port());
    const std::string pong = client.request("{\"op\":\"ping\"}");
    setup_s.push_back(setup.wall_s());
    if (pong.find("\"ok\":true") == std::string::npos) {
      result.problems.push_back(label + ": ping failed: " + pong);
    }
  }
  pass.live.stop();

  const std::vector<std::string> ids = all_registry_ids();
  std::vector<double> cycle_s, cycle_cpu_s;
  std::vector<double> certified;  // first cycle's per-program MAEs
  Checked first_touch, follow_up;
  first_touch.counts.phase = label + ".first_touch";
  follow_up.counts.phase = label + ".follow_up";
  for (std::size_t cycle = 0; cycle < per_cycle.size(); ++cycle) {
    const std::span<const Request> reqs = per_cycle[cycle];
    const auto touch = reqs.first(ids.size());
    const auto rest = reqs.subspan(ids.size());
    pass.live.stop();  // the previous cycle's reloaded server
    const int cycle_span = spans ? spans->begin(label + ".cycle") : -1;
    const Stopwatch watch;

    ServerOptions compile_all = base;
    compile_all.prewarm.compile_missing = true;
    std::unique_ptr<ProgramServer> cold;
    {
      const int s = spans ? spans->begin("serve.ProgramServer(compile_missing)", cycle_span) : -1;
      cold = std::make_unique<ProgramServer>(compile_all);
      if (spans) spans->end(s);
    }
    const oscs::serve::ServerMetrics built = cold->metrics();
    if (built.cache_prewarmed != ids.size() || built.cache_size != ids.size()) {
      result.problems.push_back(label + ": cold prewarm compiled " +
                                std::to_string(built.cache_prewarmed) + " of " +
                                std::to_string(ids.size()) + " programs");
    }
    const std::vector<double> maes = certified_maes(*cold, ids, result.problems);
    if (cycle == 0) {
      certified = maes;
    } else if (maes != certified) {
      result.problems.push_back(label + ": certified MAEs differ between cycles");
    }
    {
      const int s = spans ? spans->begin("compile.ProgramCache::save", cycle_span) : -1;
      const std::size_t saved = cold->save_cache(cache_path);
      if (spans) spans->end(s);
      if (saved != ids.size()) {
        result.problems.push_back(label + ": saved " + std::to_string(saved) +
                                  " programs");
      }
    }
    cold.reset();

    ServerOptions reload = base;
    reload.prewarm.cache_file = cache_path;
    reload.prewarm.compile_missing = true;
    {
      const int s = spans ? spans->begin("serve.ProgramServer(cache_file)", cycle_span) : -1;
      pass.live.start(reload);
      if (spans) spans->end(s);
    }
    ProgramServer& server = *pass.live.server;
    const oscs::serve::ServerMetrics loaded = server.metrics();
    if (loaded.cache_loaded != ids.size() || loaded.cache_prewarmed != 0 ||
        loaded.cache_load_errors != 0) {
      result.problems.push_back(
          label + ": reload restored " + std::to_string(loaded.cache_loaded) +
          " programs, compiled " + std::to_string(loaded.cache_prewarmed) +
          ", " + std::to_string(loaded.cache_load_errors) + " load errors");
    }
    const auto cache_before = server.compiler().cache().stats();
    const Checked touched =
        check(label + ".first_touch", touch,
              drive(pass.live.tcp->port(), touch, spans, cycle_span));
    cycle_s.push_back(watch.wall_s());
    cycle_cpu_s.push_back(watch.cpu_s());
    if (spans) spans->end(cycle_span);
    first_touch.add(touched);

    oscs::obs::Registry::global().reset_all();
    const int root = spans ? spans->begin(label + ".traffic") : -1;
    const Checked rest_checked = chunked(label + ".follow_up", pass.live.tcp->port(),
                                         rest, spec, spans, root);
    if (spans) spans->end(root);
    follow_up.add(rest_checked);
    if (cycle + 1 == per_cycle.size()) {
      PoolTally pool;
      pool.collect();
      pass.readings = read_layers(server, cache_before, rest_checked, pool);
    }
    const auto cache_after = server.compiler().cache().stats();
    if (cache_after.misses != cache_before.misses) {
      result.problems.push_back(
          label + ": " + std::to_string(cache_after.misses - cache_before.misses) +
          " cold compiles after the reload");
    }
  }
  std::filesystem::remove(cache_path);
  record(result, first_touch);
  record(result, follow_up);

  result.notes.push_back(series(label + " cold_start_s", cycle_s));
  result.notes.push_back(series(label + " cold_start_cpu_s", cycle_cpu_s));
  pass.e2e.setup_s = median(setup_s);
  pass.e2e.traffic = first_touch;
  pass.e2e.traffic.add(follow_up);
  pass.e2e.traffic.counts.phase = label + ".timed";
  pass.e2e.cold_start_s = median(cycle_s);
  pass.e2e.cold_start_cpu_s = median(cycle_cpu_s);
  pass.e2e.certified_mae = mean(certified);
  return pass;
}

/// Workload-specific output checks on the untraced pass.
void check_outputs(const WorkloadSpec& spec, Pass& pass, RunResult& result) {
  ProgramServer& server = *pass.live.server;
  if (spec.name == "bulk_eval") {
    // Health must answer and shadow sampling must cover every request (the
    // server default). The drift alarm is reported, not gated: it compares
    // a 10-request EWMA of observed error against the upper edge of the
    // certificate's confidence band, and fires on healthy traffic at some
    // seeds (serve.accuracy_drift_total).
    const oscs::serve::ServerMetrics m = server.metrics();
    const oscs::JsonValue health = oscs::json_parse(server.health_json());
    const std::string status = member(health, "status").as_string();
    const std::uint64_t drift = member(health, "drift_total").as_uint64();
    result.notes.push_back("health status " + status + ", drift_total " +
                           std::to_string(drift) + ", shadow sampled " +
                           std::to_string(m.shadow_sampled));
    if (!member(health, "ok").as_bool() || m.shadow_unsampled != 0 ||
        m.shadow_sampled < pass.e2e.traffic.counts.attempted) {
      result.problems.push_back(
          "bulk_eval: health status " + status + ", shadow sampled " +
          std::to_string(m.shadow_sampled) + " / unsampled " +
          std::to_string(m.shadow_unsampled));
    }
    const double budget = spec.server.accuracy.default_budget;
    const double mae = pass.e2e.traffic.mae_sum /
                       static_cast<double>(std::max<std::size_t>(
                           1, pass.e2e.traffic.counts.succeeded));
    if (!(mae < budget)) {
      result.problems.push_back("bulk_eval: mae " + std::to_string(mae) +
                                " is not under the " + std::to_string(budget) +
                                " budget");
    }
  }
  if (pass.readings.cold_compiles != 0) {
    result.problems.push_back(spec.name + ": " +
                              std::to_string(pass.readings.cold_compiles) +
                              " cold compiles during the timed traffic");
  }
}

std::vector<std::vector<Request>> cold_requests(const WorkloadSpec& spec,
                                                const RunOptions& run) {
  // Per cycle: one first-touch request per registry program, then whole
  // rounds of the follow-up rotation. First touches take request indices
  // [0, cycles * 16), follow-ups the indices after them.
  RequestShape touch = spec.shape;
  touch.functions = all_registry_ids();
  const std::size_t n_touch = touch.functions.size();
  const std::size_t round = spec.shape.functions.size();
  const std::size_t follow = std::max<std::size_t>(
      round, static_cast<std::size_t>(std::lround(run.seconds * spec.nominal_rps)) /
                 spec.cycles / round * round);
  std::vector<std::vector<Request>> out;
  for (std::size_t c = 0; c < spec.cycles; ++c) {
    std::vector<Request> cycle = make_requests(touch, run.seed, c * n_touch, n_touch);
    for (Request& r : make_requests(spec.shape, run.seed,
                                    spec.cycles * n_touch + c * follow, follow)) {
      cycle.push_back(std::move(r));
    }
    out.push_back(std::move(cycle));
  }
  return out;
}

}  // namespace

RunResult run_workload(const RunOptions& run) {
  const WorkloadSpec spec = workload_spec(run.workload, run.seconds);
  std::filesystem::create_directories(run.out_dir);
  RunResult result;
  const bool cold = spec.cycles > 0;

  // Every request line is generated before any clock starts.
  std::vector<Request> timed, warmup;
  std::vector<std::vector<Request>> per_cycle;
  if (cold) {
    per_cycle = cold_requests(spec, run);
    for (const auto& c : per_cycle) timed.insert(timed.end(), c.begin(), c.end());
  } else {
    const auto count = static_cast<std::size_t>(
        std::lround(run.seconds * spec.nominal_rps));
    timed = make_requests(spec.shape, run.seed, 0, count);
    // Warm-up lines come from the same stream, past the timed ones.
    warmup = make_requests(spec.shape, run.seed, count, spec.warmup_requests);
  }

  Pass plain = cold ? cold_pass(run, spec, per_cycle, "untraced", nullptr, result)
                    : warm_pass(spec, spec.server, timed, warmup,
                                "untraced", nullptr, result);
  check_outputs(spec, plain, result);
  // p90 must not sit on a class boundary: print each class's share.
  for (const auto& [key, ms] : plain.e2e.traffic.class_ms) {
    char line[160];
    std::snprintf(line, sizeof line, "class %-24s share %5.1f%%  p50 %.4f ms  p90 %.4f ms",
                  key.c_str(),
                  100.0 * static_cast<double>(ms.size()) /
                      static_cast<double>(plain.e2e.traffic.counts.attempted),
                  percentile(ms, 0.5), percentile(ms, 0.9));
    result.notes.push_back(line);
  }
  std::string chunks = "chunks (rps, ns/bit):";
  for (std::size_t k = 0; k < plain.e2e.traffic.chunk_rps.size(); ++k) {
    char cell[48];
    std::snprintf(cell, sizeof cell, " %.4g/%.4g", plain.e2e.traffic.chunk_rps[k],
                  plain.e2e.traffic.chunk_ns_per_bit[k]);
    chunks += cell;
  }
  result.notes.push_back(chunks);
  const std::vector<Metric> untraced_all = plain.e2e.metrics();
  std::vector<Metric> wall;
  for (const Metric& m : untraced_all) {
    if (!is_wall_clock(m.name)) {
      result.end_to_end.push_back(m);
      continue;
    }
    const std::string note = m.note.empty() ? "not gated" : "not gated; " + m.note;
    wall.push_back({"wall." + m.name, m.value, m.unit, note});
    result.notes.push_back("wall." + m.name + " " + std::to_string(m.value) +
                           " " + m.unit + " (" + note + ")");
  }
  if (!run.trace) return result;

  // Probes run on the untraced deployment, each call under a span. Then
  // the traced twin: the server logs every request's span tree and the
  // client records a span per request; the difference between the two
  // passes is the tracing overhead.
  SpanRecorder spans;
  result.per_layer = run_probes(spec, run, *plain.live.server, timed,
                                plain.readings, spans, result.problems);
  result.per_layer.insert(result.per_layer.end(), wall.begin(), wall.end());
  plain.live.stop();
  const Pass traced =
      cold ? cold_pass(run, spec, per_cycle, "traced", &spans, result)
           : warm_pass(spec,
                       traced_options(spec.server,
                                      out_file(run, "traced-serve.jsonl")),
                       timed, warmup, "traced", &spans, result);
  const std::vector<Metric> traced_e2e = traced.e2e.metrics();
  for (std::size_t i = 0; i < traced_e2e.size(); ++i) {
    result.per_layer.push_back(
        {"obs.trace_overhead." + traced_e2e[i].name,
         traced_e2e[i].value - untraced_all[i].value, traced_e2e[i].unit,
         "traced minus untraced"});
  }
  // The server's own span log only served the overhead measurement.
  std::filesystem::remove(out_file(run, "traced-serve.jsonl"));

  const std::vector<SpanRecord> all = spans.spans();
  const std::vector<std::int64_t> self = self_times(all);
  std::map<std::string, std::pair<std::size_t, std::int64_t>> by_name;
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto& [count, self_ns] = by_name[all[i].name];
    ++count;
    self_ns += self[i];
  }
  for (const auto& [name, totals] : by_name) {
    char line[160];
    std::snprintf(line, sizeof line, "span %-40s n=%-7zu self %.3f ms",
                  name.c_str(), totals.first,
                  static_cast<double>(totals.second) * 1e-6);
    result.notes.push_back(line);
  }
  spans.write_json(run.out_dir + "/" + run.workload + "-seed" +
                   std::to_string(run.seed) + "-spans.json");
  return result;
}

}  // namespace perfbench
