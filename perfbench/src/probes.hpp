#pragma once
/// \file probes.hpp
/// \brief Per-layer probes of the traced run. Each probe times calls into
///        one module's public functions (serve, engine, stochastic, optsc,
///        compile) on the workload's own requests and shapes, records a
///        span around every call, and reports the layer's numbers tagged
///        with the end-to-end metric (and workload) they should move.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "compile/compiler.hpp"
#include "load.hpp"
#include "serve/server.hpp"
#include "spans.hpp"

namespace perfbench {

struct Metric;
struct RunOptions;
struct WorkloadSpec;

/// Layer numbers read off the untraced timed traffic.
struct LayerReadings {
  double queue_wait_us = 0.0;       ///< p50 oscs_engine_pool_task_wait_us
  double pool_tasks_per_req = 0.0;  ///< oscs_engine_pool_tasks_total / request
  double stage_parse_us = 0.0;      ///< ProgramServer::metrics() stage p50s
  double stage_resolve_us = 0.0;
  double stage_execute_us = 0.0;
  double stage_serialize_us = 0.0;
  double stage_total_us = 0.0;
  double client_p50_us = 0.0;       ///< client-observed p50
  double cache_hit_ratio = 0.0;     ///< ProgramCache::stats() over the traffic
  std::size_t cold_compiles = 0;    ///< cache misses during the traffic
  std::size_t accuracy_drift = 0;   ///< accuracy-plane drift edges so far
};

/// The resident compiled program for a registry id of any arity (a cache
/// hit on a server whose traffic uses it).
[[nodiscard]] std::shared_ptr<const oscs::compile::CompiledProgram>
resident_program(oscs::compile::Compiler& compiler, const std::string& id);

/// Run every probe against `server` (already serving the workload) and
/// return the probed per-layer metrics (the traced run appends one
/// obs.trace_overhead.<metric> per end-to-end metric). Failed cross-checks
/// land in `problems`.
[[nodiscard]] std::vector<Metric> run_probes(
    const WorkloadSpec& spec, const RunOptions& run,
    oscs::serve::ProgramServer& server, const std::vector<Request>& requests,
    const LayerReadings& readings, SpanRecorder& spans,
    std::vector<std::string>& problems);

}  // namespace perfbench
