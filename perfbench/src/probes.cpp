#include "probes.hpp"

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <unistd.h>

#include "compile/certify.hpp"
#include "compile/fit.hpp"
#include "compile/quantize.hpp"
#include "compile/registry.hpp"
#include "engine/batch.hpp"
#include "engine/thread_pool.hpp"
#include "optsc/link_budget.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"
#include "stochastic/sng_fill.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace compile = oscs::compile;

namespace {

/// Workload lines fed to the serve and engine probes.
constexpr std::size_t kProbeRequests = 48;

/// Results the optimizer must not discard (single-threaded probes only).
volatile std::uint64_t g_sink = 0;

constexpr const char* kServeMoves = "cold_start + bulk_eval wall.latency_p50_ms";
constexpr const char* kCompileMoves =
    "cold_start cold_start_cpu_s + wall.cold_start_s, bulk_eval setup_s";

/// Run `f` under a span and return its duration [us].
template <typename F>
double timed_us(SpanRecorder& spans, const char* name, int parent,
                std::int64_t request, F&& f) {
  const ScopedSpan span(spans, name, parent, request);
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The engine request the server builds for one generated request.
oscs::engine::BatchRequest batch_for(const compile::CompiledProgram& program,
                                     const Request& r) {
  oscs::engine::BatchRequest b;
  if (r.arity == 1) {
    b.polynomials = {program.poly()};
    b.xs = r.coords[0];
  } else if (r.arity == 2) {
    b.polynomials2 = {program.poly2()};
    b.xs = r.coords[0];
    b.ys = r.coords[1];
  } else {
    b.programs_nd = {program.program_nd()};
    b.inputs = r.coords;
  }
  b.stream_lengths = {r.stream_length};
  b.repeats = r.repeats;
  b.seed = r.seed;
  if (r.probe_power_mw.has_value()) {
    b.op = oscs::optsc::LinkBudget(program.circuit(),
                                   oscs::optsc::EyeModel::kPhysical)
               .operating_point(*r.probe_power_mw, r.stream_length,
                                program.design_point().sng_width);
  }
  return b;
}

/// serve + engine: parse / handle / serialize every probe line, and run
/// the same request straight on the engine, which must reproduce the
/// served response bit for bit.
void probe_serve_engine(const WorkloadSpec& spec,
                        oscs::serve::ProgramServer& server,
                        const std::vector<Request>& requests,
                        const LayerReadings& readings, SpanRecorder& spans,
                        std::map<std::string, double>& out,
                        std::vector<std::string>& problems) {
  const std::size_t n = std::min(kProbeRequests, requests.size());
  oscs::engine::ThreadPool pool(spec.server.threads);
  std::vector<double> parse_us, handle_us, serialize_us, run_us;
  double run_total_us = 0.0;
  double run_bits = 0.0;
  std::size_t mismatches = 0;
  const ScopedSpan group(spans, "probe.serve_engine");
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = requests[i];
    const auto id = static_cast<std::int64_t>(r.index);
    oscs::serve::ServeRequest request;
    parse_us.push_back(timed_us(spans, "serve.parse_request", group.index(), id,
                                [&] { request = oscs::serve::parse_request(r.line); }));
    oscs::serve::ServeResponse response;
    handle_us.push_back(timed_us(spans, "serve.ProgramServer::handle", group.index(), id,
                                 [&] { response = server.handle(request); }));
    std::size_t bytes = 0;
    serialize_us.push_back(timed_us(spans, "serve.write_response", group.index(), id, [&] {
      bytes = oscs::serve::write_response(response).size();
    }));
    if (bytes == 0) ++mismatches;

    const auto program = resident_program(server.compiler(), r.function);
    const oscs::engine::BatchRequest batch = batch_for(*program, r);
    const oscs::engine::BatchRunner runner(program->kernel(),
                                           program->design_point());
    oscs::engine::BatchSummary summary;
    const double us = timed_us(spans, "engine.BatchRunner::run_nd", group.index(), id,
                               [&] { summary = runner.run_nd(batch, pool); });
    run_us.push_back(us);
    run_total_us += us;
    run_bits += static_cast<double>(summary.total_bits);
    if (summary.optical_mae != response.optical_mae ||
        summary.total_bits != response.total_bits) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    problems.push_back("engine probe: " + std::to_string(mismatches) + " of " +
                       std::to_string(n) +
                       " requests did not reproduce the served response");
  }
  out["serve.parse_us"] = median(parse_us);
  out["serve.serialize_us"] = median(serialize_us);
  out["serve.handle_us"] = median(handle_us);
  out["engine.run_us"] = median(run_us);
  out["engine.kernel_mbit_s"] = run_bits / run_total_us;
  out["serve.overhead_share"] = 1.0 - out["engine.run_us"] / out["serve.handle_us"];
  out["serve.transport_us"] = readings.client_p50_us - readings.stage_total_us;
  out["serve.stage_parse_us"] = readings.stage_parse_us;
  out["serve.stage_resolve_us"] = readings.stage_resolve_us;
  out["serve.stage_execute_us"] = readings.stage_execute_us;
  out["serve.stage_serialize_us"] = readings.stage_serialize_us;
  out["serve.stage_total_us"] = readings.stage_total_us;
  out["engine.queue_wait_us"] = readings.queue_wait_us;
  out["engine.pool_tasks_per_req"] = readings.pool_tasks_per_req;
  out["compile.cache_hit_ratio"] = readings.cache_hit_ratio;
  out["serve.accuracy_drift_total"] = static_cast<double>(readings.accuracy_drift);
}

/// stochastic: the SNG comparator fill at the workload's width and length.
double probe_sng_fill(const WorkloadSpec& spec, unsigned width,
                      SpanRecorder& spans) {
  const auto& cycle = oscs::stochastic::detail::lfsr_cycle(width);
  const std::size_t length = spec.shape.stream_length;
  const std::size_t period = cycle.states.size();
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  std::vector<std::uint64_t> words((length + 63) / 64);
  const std::size_t calls = std::max<std::size_t>(1, (std::size_t{1} << 22) / length);
  std::vector<double> rates;
  const ScopedSpan group(spans, "probe.stochastic");
  for (std::size_t batch = 0; batch < 15; ++batch) {
    const double us = timed_us(spans, "stochastic.fill_lfsr_words", group.index(), -1, [&] {
      for (std::size_t k = 0; k < calls; ++k) {
        const std::uint64_t key = mix64(batch * calls + k);
        oscs::stochastic::detail::fill_lfsr_words(
            cycle, key % period, mix64(key) | 1, mask, (key >> 20) & mask,
            length, words.data());
        g_sink = g_sink ^ words.front();
      }
    });
    rates.push_back(static_cast<double>(calls * length) / us);
  }
  return median(rates);
}

/// optsc: the link-budget derivation the server runs for a probe power.
double probe_operating_point(const compile::CompiledProgram& program,
                             std::size_t length, SpanRecorder& spans) {
  std::vector<double> us;
  const ScopedSpan group(spans, "probe.optsc");
  for (int k = 0; k < 200; ++k) {
    us.push_back(timed_us(spans, "optsc.LinkBudget::operating_point", group.index(), -1, [&] {
      const double ber = oscs::optsc::LinkBudget(program.circuit(),
                                                 oscs::optsc::EyeModel::kPhysical)
                             .operating_point(0.15, length,
                                              program.design_point().sng_width)
                             .ber;
      g_sink = g_sink + static_cast<std::uint64_t>(ber * 1e9);
    }));
  }
  return median(us);
}

/// compile: every registry entry through the uncached pipeline (the same
/// options the server's prewarm uses), then each stage on its own.
void probe_compile(const compile::CompileOptions& defaults, SpanRecorder& spans,
                   std::map<std::string, double>& out,
                   std::vector<std::string>& problems) {
  double project_ms[4] = {0.0, 0.0, 0.0, 0.0};
  double quantize_ms = 0.0;
  double certify_ms = 0.0;
  const ScopedSpan group(spans, "probe.compile");
  const int parent = group.index();
  for (const std::string& id : all_registry_ids()) {
    compile::CompileOptions opts = defaults;
    std::shared_ptr<const compile::CompiledProgram> program;
    double cold_us = 0.0;
    if (const auto* fn = compile::find_function(id)) {
      opts.projection.max_degree = fn->degree;
      cold_us = timed_us(spans, "compile.compile_function", parent, -1, [&] {
        program = compile::compile_function(id, fn->f, opts);
      });
      compile::ProjectionResult p;
      project_ms[1] += timed_us(spans, "compile.project", parent, -1, [&] {
        p = compile::project(fn->f, opts.projection);
      }) * 1e-3;
      quantize_ms += timed_us(spans, "compile.quantize", parent, -1, [&] {
        (void)compile::quantize(p.poly, opts.sng_width);
      }) * 1e-3;
      certify_ms += timed_us(spans, "compile.certify", parent, -1, [&] {
        (void)compile::certify(*program, fn->f, opts.certification);
      }) * 1e-3;
    } else if (const auto* fn2 = compile::find_function2(id)) {
      opts.projection2.max_degree_x = fn2->degree_x;
      opts.projection2.max_degree_y = fn2->degree_y;
      cold_us = timed_us(spans, "compile.compile_function2", parent, -1, [&] {
        program = compile::compile_function2(id, fn2->f, opts);
      });
      compile::ProjectionResult2 p;
      project_ms[2] += timed_us(spans, "compile.project2", parent, -1, [&] {
        p = compile::project2(fn2->f, opts.projection2);
      }) * 1e-3;
      quantize_ms += timed_us(spans, "compile.quantize2", parent, -1, [&] {
        (void)compile::quantize2(p.poly, opts.sng_width);
      }) * 1e-3;
      certify_ms += timed_us(spans, "compile.certify2", parent, -1, [&] {
        (void)compile::certify2(*program, fn2->f, opts.certification);
      }) * 1e-3;
    } else {
      const auto* fnn = compile::find_function_nd(id);
      opts.projection_nd.degree = fnn->degree;
      opts.projection_nd.max_terms = fnn->max_terms;
      cold_us = timed_us(spans, "compile.compile_function_nd", parent, -1, [&] {
        program = compile::compile_function_nd(id, fnn->arity, fnn->f, opts);
      });
      compile::ProjectionResultN p;
      project_ms[3] += timed_us(spans, "compile.project_nd", parent, -1, [&] {
        p = compile::project_nd(fnn->f, fnn->arity, opts.projection_nd);
      }) * 1e-3;
      quantize_ms += timed_us(spans, "compile.quantize", parent, -1, [&] {
        for (const auto& term : p.program.terms()) {
          for (const auto& factor : term.factors) {
            (void)compile::quantize(factor.poly, opts.sng_width);
          }
        }
      }) * 1e-3;
      certify_ms += timed_us(spans, "compile.certify_nd", parent, -1, [&] {
        (void)compile::certify_nd(*program, fnn->f, opts.certification);
      }) * 1e-3;
    }
    if (!program->certification().has_value()) {
      problems.push_back("compile probe: '" + id + "' came back uncertified");
    }
    out["compile.cold_ms." + id] = cold_us * 1e-3;
  }
  for (int arity = 1; arity <= 3; ++arity) {
    out["compile.project_ms.arity" + std::to_string(arity)] = project_ms[arity];
  }
  out["compile.quantize_ms"] = quantize_ms;
  out["compile.certify_ms"] = certify_ms;
}

/// compile: the serving cache's save and a fresh cache's load of that file.
void probe_cache(const RunOptions& run, oscs::serve::ProgramServer& server,
                 SpanRecorder& spans, std::map<std::string, double>& out,
                 std::vector<std::string>& problems) {
  const std::string path = run.out_dir + "/" + run.workload + "-" +
                           std::to_string(getpid()) + "-probe-cache.bin";
  const compile::ProgramCache& cache = server.compiler().cache();
  std::vector<double> save_ms, load_ms;
  std::size_t saved = 0;
  const ScopedSpan group(spans, "probe.cache");
  for (int k = 0; k < 5; ++k) {
    save_ms.push_back(timed_us(spans, "compile.ProgramCache::save", group.index(), -1,
                               [&] { saved = cache.save(path); }) * 1e-3);
  }
  for (int k = 0; k < 5; ++k) {
    compile::ProgramCache fresh(cache.capacity());
    compile::CacheLoadReport report;
    load_ms.push_back(timed_us(spans, "compile.ProgramCache::load", group.index(), -1,
                               [&] { report = fresh.load(path); }) * 1e-3);
    if (report.loaded != saved || report.errors != 0) {
      problems.push_back("cache probe: loaded " + std::to_string(report.loaded) +
                         " of " + std::to_string(saved) + " programs");
    }
  }
  std::filesystem::remove(path);
  out["compile.cache_save_ms"] = median(save_ms);
  out["compile.cache_load_ms"] = median(load_ms);
}

/// One per-layer metric: name, unit, and the end-to-end metric it should
/// move.
struct LayerMetricInfo {
  std::string name;
  std::string unit;
  std::string moves;
};

/// The probed per-layer metrics, in output order.
std::vector<LayerMetricInfo> layer_catalogue() {
  std::vector<LayerMetricInfo> c = {
      {"serve.parse_us", "us", "cold_start + bulk_eval cpu_ns_per_bit"},
      {"serve.serialize_us", "us", "cold_start + bulk_eval cpu_ns_per_bit"},
      {"serve.handle_us", "us", kServeMoves},
      {"serve.overhead_share", "ratio", "cold_start + bulk_eval wall.throughput_rps"},
      {"serve.transport_us", "us", kServeMoves},
      {"serve.stage_parse_us", "us", "cross-check of serve.parse_us"},
      {"serve.stage_resolve_us", "us", kServeMoves},
      {"serve.stage_execute_us", "us", "cross-check of engine.run_us"},
      {"serve.stage_serialize_us", "us", "cross-check of serve.serialize_us"},
      {"serve.stage_total_us", "us", "cross-check of serve.handle_us"},
      {"serve.accuracy_drift_total", "count",
       "false alarms of the accuracy plane (reported, not gated)"},
      {"engine.run_us", "us", "bulk_eval cpu_ns_per_bit + wall.throughput_rps"},
      {"engine.kernel_mbit_s", "Mbit/s", "bulk_eval cpu_ns_per_bit + wall.throughput_rps"},
      {"engine.queue_wait_us", "us", kServeMoves},
      {"engine.pool_tasks_per_req", "count", kServeMoves},
      {"stochastic.sng_fill_mbit_s", "Mbit/s", "bulk_eval cpu_ns_per_bit"},
      {"optsc.operating_point_us", "us", "bulk_eval wall.latency_p50_ms (should stay negligible)"},
  };
  for (const std::string& id : all_registry_ids()) {
    c.push_back({"compile.cold_ms." + id, "ms", kCompileMoves});
  }
  for (int arity = 1; arity <= 3; ++arity) {
    c.push_back({"compile.project_ms.arity" + std::to_string(arity), "ms",
                 kCompileMoves});
  }
  c.push_back({"compile.quantize_ms", "ms", kCompileMoves});
  c.push_back({"compile.certify_ms", "ms", kCompileMoves});
  c.push_back({"compile.cache_hit_ratio", "ratio",
               "1.0 on bulk_eval after set-up"});
  c.push_back({"compile.cache_save_ms", "ms", "cold_start cold_start_cpu_s + wall.cold_start_s"});
  c.push_back({"compile.cache_load_ms", "ms", "cold_start cold_start_cpu_s + wall.cold_start_s"});
  return c;
}

}  // namespace

std::shared_ptr<const compile::CompiledProgram> resident_program(
    compile::Compiler& compiler, const std::string& id) {
  if (compile::find_function(id) != nullptr) return compiler.compile(id);
  if (compile::find_function2(id) != nullptr) return compiler.compile2(id);
  return compiler.compile_nd(id);
}

std::vector<Metric> run_probes(const WorkloadSpec& spec, const RunOptions& run,
                               oscs::serve::ProgramServer& server,
                               const std::vector<Request>& requests,
                               const LayerReadings& readings,
                               SpanRecorder& spans,
                               std::vector<std::string>& problems) {
  std::map<std::string, double> values;
  probe_serve_engine(spec, server, requests, readings, spans, values, problems);
  const auto first = resident_program(server.compiler(), spec.shape.functions.front());
  values["stochastic.sng_fill_mbit_s"] =
      probe_sng_fill(spec, first->design_point().sng_width, spans);
  values["optsc.operating_point_us"] =
      probe_operating_point(*first, spec.shape.stream_length, spans);
  probe_compile(server.compiler().defaults(), spans, values, problems);
  probe_cache(run, server, spans, values, problems);

  std::vector<Metric> out;
  for (const LayerMetricInfo& info : layer_catalogue()) {
    const auto it = values.find(info.name);
    if (it == values.end()) continue;  // run.py refuses the short list
    out.push_back({info.name, it->second, info.unit, info.moves});
  }
  return out;
}

}  // namespace perfbench
