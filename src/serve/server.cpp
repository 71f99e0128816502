#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/json.hpp"
#include "compile/registry.hpp"
#include "engine/thread_pool.hpp"
#include "optsc/defaults.hpp"
#include "optsc/link_budget.hpp"

namespace oscs::serve {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

constexpr const char* kRequestsHelp = "requests received (any op)";
constexpr const char* kCompletedHelp = "successful evaluate responses";
constexpr const char* kErrorsHelp = "error responses by reason";
constexpr const char* kStageHelp = "per-stage request latency [microseconds]";

/// RAII slot in the bounded in-flight gate. Lock-free: one atomic add
/// claims a slot, and a result above the limit means the claim loses -
/// give the slot back and reject. Rejection storms never serialize.
class InFlightGuard {
 public:
  InFlightGuard(obs::Gauge& in_flight, std::size_t limit)
      : in_flight_(in_flight) {
    if (in_flight_.add(1) > static_cast<std::int64_t>(limit)) {
      in_flight_.add(-1);
      armed_ = false;
      throw ServeError(429, "busy",
                       "server at capacity (" + std::to_string(limit) +
                           " requests in flight)");
    }
  }

  ~InFlightGuard() {
    if (armed_) in_flight_.add(-1);
  }

  InFlightGuard(const InFlightGuard&) = delete;
  InFlightGuard& operator=(const InFlightGuard&) = delete;

 private:
  obs::Gauge& in_flight_;
  bool armed_ = true;
};

StageStats stage_snapshot(const obs::Histogram& histogram) {
  const obs::Histogram::Snapshot s = histogram.snapshot();
  StageStats out;
  out.count = static_cast<std::size_t>(s.count());
  out.total_us = s.sum;
  out.max_us = s.max;
  out.p50_us = s.quantile(0.50);
  out.p95_us = s.quantile(0.95);
  out.p99_us = s.quantile(0.99);
  return out;
}

void stage_json(JsonWriter& json, const char* name, const StageStats& stage) {
  json.key(name)
      .begin_object()
      .field("count", stage.count)
      .field("total_us", stage.total_us)
      .field("mean_us", stage.mean_us())
      .field("max_us", stage.max_us)
      .field("p50_us", stage.p50_us)
      .field("p95_us", stage.p95_us)
      .field("p99_us", stage.p99_us)
      .end_object();
}

}  // namespace

ProgramServer::ProgramServer(ServerOptions options)
    : options_(options),
      compiler_(options.compile, options.cache_capacity),
      received_(registry_.counter("oscs_serve_requests_received_total",
                                  kRequestsHelp)),
      completed_univariate_(
          registry_.counter("oscs_serve_requests_completed_total",
                            kCompletedHelp, {{"arity", "univariate"}})),
      completed_bivariate_(
          registry_.counter("oscs_serve_requests_completed_total",
                            kCompletedHelp, {{"arity", "bivariate"}})),
      completed_nd_(
          registry_.counter("oscs_serve_requests_completed_total",
                            kCompletedHelp, {{"arity", "nd"}})),
      errors_{registry_.counter("oscs_serve_errors_total", kErrorsHelp,
                                {{"reason", "bad_request"}}),
              registry_.counter("oscs_serve_errors_total", kErrorsHelp,
                                {{"reason", "unknown_function"}}),
              registry_.counter("oscs_serve_errors_total", kErrorsHelp,
                                {{"reason", "too_large"}}),
              registry_.counter("oscs_serve_errors_total", kErrorsHelp,
                                {{"reason", "busy"}}),
              registry_.counter("oscs_serve_errors_total", kErrorsHelp,
                                {{"reason", "compile_budget"}}),
              registry_.counter("oscs_serve_errors_total", kErrorsHelp,
                                {{"reason", "internal"}}),
              registry_.counter("oscs_serve_errors_total", kErrorsHelp,
                                {{"reason", "other"}})},
      in_flight_(registry_.gauge("oscs_serve_in_flight",
                                 "evaluate requests executing right now")),
      cache_size_gauge_(registry_.gauge("oscs_serve_cache_size",
                                        "compiled programs resident")),
      cache_capacity_gauge_(registry_.gauge("oscs_serve_cache_capacity",
                                            "program cache capacity")),
      cache_loaded_(registry_.counter(
          "oscs_cache_loaded_total",
          "compiled programs restored from persisted cache files")),
      cache_load_errors_(registry_.counter(
          "oscs_cache_load_errors_total",
          "cache-file load failures (corrupt records fall back to cold "
          "compiles)")),
      cache_prewarmed_(registry_.counter(
          "oscs_cache_prewarmed_total",
          "programs compiled by startup prewarm passes")),
      parse_hist_(registry_.histogram("oscs_serve_stage_latency_us",
                                      kStageHelp, {{"stage", "parse"}},
                                      obs::Histogram::latency_us())),
      resolve_hist_(registry_.histogram("oscs_serve_stage_latency_us",
                                        kStageHelp, {{"stage", "resolve"}},
                                        obs::Histogram::latency_us())),
      execute_hist_(registry_.histogram("oscs_serve_stage_latency_us",
                                        kStageHelp, {{"stage", "execute"}},
                                        obs::Histogram::latency_us())),
      serialize_hist_(registry_.histogram(
          "oscs_serve_stage_latency_us", kStageHelp,
          {{"stage", "serialize"}}, obs::Histogram::latency_us())),
      total_hist_(registry_.histogram("oscs_serve_stage_latency_us",
                                      kStageHelp, {{"stage", "total"}},
                                      obs::Histogram::latency_us())),
      accuracy_(registry_, options.accuracy),
      trace_log_(options.trace_log) {
  cache_capacity_gauge_.set(
      static_cast<std::int64_t>(compiler_.cache().capacity()));
  if (options_.prewarm.enabled()) {
    // Fail-soft by contract: prewarm() never throws, so a missing or
    // corrupt cache file can never take server startup down with it.
    (void)prewarm(options_.prewarm);
  }
}

PrewarmReport ProgramServer::prewarm(const PrewarmOptions& options) {
  PrewarmReport report;
  if (!options.cache_file.empty()) {
    const compile::CacheLoadReport loaded =
        compiler_.cache().load(options.cache_file);
    report.file_opened = loaded.opened;
    report.loaded = loaded.loaded;
    report.load_errors = loaded.errors;
    report.message = loaded.message;
    if (loaded.loaded > 0) cache_loaded_.inc(loaded.loaded);
    if (loaded.errors > 0) cache_load_errors_.inc(loaded.errors);
  }
  if (!options.compile_missing) return report;

  // Resolve the manifest: the named registry functions, or - with an
  // empty list - every registry entry. Each resolves exactly like the
  // serve resolve path (compiler defaults plus the registry degree), so a
  // prewarmed program is the one traffic hits.
  std::vector<std::string> ids = options.functions;
  if (ids.empty()) {
    for (const compile::RegistryEntry& entry : compile::registry_entries()) {
      ids.push_back(entry.id);
    }
  }
  std::vector<compile::RegistryProgram> manifest;
  for (const std::string& id : ids) {
    if (auto program = compile::registry_program(id, options_.compile)) {
      manifest.push_back(std::move(*program));
    } else {
      ++report.compile_errors;
      if (report.message.empty()) {
        report.message = "prewarm: unknown registry function '" + id + "'";
      }
    }
  }

  // Fan the missing compiles across the leased pool. get_or_compile's
  // single-flight makes this idempotent against concurrent traffic, and
  // entries the cache file already covered are skipped by the residency
  // probe (contains() perturbs neither the LRU order nor the counters).
  std::mutex report_mutex;
  std::unique_ptr<engine::ThreadPool> pool = acquire_pool();
  for (const compile::RegistryProgram& program : manifest) {
    pool->submit([this, &program, &report, &report_mutex] {
      if (compiler_.cache().contains(program.key)) return;
      try {
        (void)compiler_.compile(program);
        cache_prewarmed_.inc();
        std::lock_guard<std::mutex> lock(report_mutex);
        ++report.compiled;
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(report_mutex);
        ++report.compile_errors;
        if (report.message.empty()) {
          report.message = "prewarm: compile '" + program.key.function_id +
                           "': " + e.what();
        }
      }
    });
  }
  try {
    pool->wait_idle();  // jobs catch their own errors; belt and braces
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(report_mutex);
    ++report.compile_errors;
    if (report.message.empty()) {
      report.message = std::string("prewarm: ") + e.what();
    }
  }
  release_pool(std::move(pool));
  return report;
}

std::unique_ptr<engine::ThreadPool> ProgramServer::acquire_pool() {
  {
    std::lock_guard<std::mutex> lock(pools_mutex_);
    if (!idle_pools_.empty()) {
      std::unique_ptr<engine::ThreadPool> pool =
          std::move(idle_pools_.back());
      idle_pools_.pop_back();
      return pool;
    }
  }
  return std::make_unique<engine::ThreadPool>(options_.threads);
}

void ProgramServer::release_pool(std::unique_ptr<engine::ThreadPool> pool) {
  if (pool == nullptr) return;
  std::lock_guard<std::mutex> lock(pools_mutex_);
  idle_pools_.push_back(std::move(pool));
}

const ProgramServer::OrderEngine& ProgramServer::order_engine(
    const std::vector<std::size_t>& orders) {
  std::lock_guard<std::mutex> lock(engines_mutex_);
  auto it = order_engines_.find(orders);
  if (it == order_engines_.end()) {
    OrderEngine built;
    built.circuit = std::make_shared<const optsc::OpticalScCircuit>(
        optsc::paper_defaults(orders.front()));
    built.kernel =
        std::make_shared<const engine::PackedKernel>(*built.circuit, orders);
    built.design_point = optsc::design_operating_point(*built.circuit);
    it = order_engines_.emplace(orders, std::move(built)).first;
  }
  return it->second;
}

namespace {

/// Per-axis kernel orders `program` runs at: the dense degrees, or the
/// common factor degree of a sum-of-rank-1 program (one-axis kernel).
std::vector<std::size_t> kernel_orders(
    const stochastic::SeparableProgram& program) {
  std::vector<std::size_t> orders = engine::dense_orders(program);
  if (orders.empty()) orders = {program.factor_degree()};
  return orders;
}

/// `program` degree-elevated (value-preserving) to the per-axis `orders`
/// one kernel pass runs at.
stochastic::SeparableProgram elevated_to(
    stochastic::SeparableProgram program,
    const std::vector<std::size_t>& orders) {
  if (program.has_dense1()) {
    const stochastic::BernsteinPoly& poly = program.dense1();
    if (poly.degree() == orders[0]) return program;
    return stochastic::SeparableProgram(
        poly.elevated(orders[0] - poly.degree()));
  }
  if (program.has_dense2()) {
    const stochastic::BernsteinPoly2& poly = program.dense2();
    if (poly.deg_x() == orders[0] && poly.deg_y() == orders[1]) {
      return program;
    }
    return stochastic::SeparableProgram(poly.elevated(
        orders[0] - poly.deg_x(), orders[1] - poly.deg_y()));
  }
  if (program.factor_degree() == orders[0]) return program;
  return program.elevated_to(orders[0]);
}

void check_unit_coefficients(const std::vector<double>& coefficients) {
  for (double c : coefficients) {
    if (!(c >= 0.0 && c <= 1.0)) {
      throw ServeError(400, "bad_request",
                       "coefficients must be finite and lie in [0, 1]");
    }
  }
}

/// The one arity rule: every program of a request takes exactly the
/// request's input count (arities cannot mix within one batch).
void require_arity(const std::string& program, std::size_t program_arity,
                   std::size_t request_arity) {
  if (program_arity == request_arity) return;
  throw ServeError(400, "bad_request",
                   program + " takes " + std::to_string(program_arity) +
                       (program_arity == 1 ? " input" : " inputs") +
                       " but the request carries " +
                       std::to_string(request_arity) +
                       " (arities cannot mix)");
}

/// A raw-coefficient program spec - a flat vector takes one input, a
/// nested grid two - as a dense program, lifted to the
/// one-data-channel-per-input circuit minimum.
stochastic::SeparableProgram raw_program(const ProgramSpec& spec,
                                         std::size_t arity) {
  if (spec.coefficients.empty() && spec.coefficients2.empty()) {
    // Typed-path callers can hand over an all-empty spec; keep it a
    // client error instead of a 500 out of BernsteinPoly.
    throw ServeError(
        400, "bad_request",
        "each program needs exactly one of 'function'/'coefficients'");
  }
  require_arity("program '" + spec.display_id() + "'",
                spec.is_raw_bivariate() ? 2 : 1, arity);
  const std::string too_deep =
      "coefficient degree exceeds the kernel order limit (" +
      std::to_string(engine::PackedKernel::kMaxOrder) + ")";
  if (spec.is_raw_bivariate()) {
    for (const std::vector<double>& row : spec.coefficients2) {
      check_unit_coefficients(row);
    }
    // Typed-path callers can hand over a ragged or empty-row grid; keep
    // it a client error instead of a 500 out of BernsteinPoly2.
    std::optional<stochastic::BernsteinPoly2> parsed;
    try {
      parsed.emplace(spec.coefficients2);
    } catch (const std::invalid_argument& e) {
      throw ServeError(400, "bad_request", e.what());
    }
    stochastic::BernsteinPoly2 poly =
        parsed->elevated(parsed->deg_x() == 0 ? 1 : 0,
                         parsed->deg_y() == 0 ? 1 : 0);
    if (poly.deg_x() > engine::PackedKernel::kMaxOrder ||
        poly.deg_y() > engine::PackedKernel::kMaxOrder) {
      throw ServeError(400, "bad_request", too_deep);
    }
    return stochastic::SeparableProgram(std::move(poly));
  }
  check_unit_coefficients(spec.coefficients);
  stochastic::BernsteinPoly poly(spec.coefficients);
  if (poly.degree() == 0) poly = poly.elevated();  // circuit minimum
  if (poly.degree() > engine::PackedKernel::kMaxOrder) {
    throw ServeError(400, "bad_request", too_deep);
  }
  return stochastic::SeparableProgram(std::move(poly));
}

}  // namespace

ProgramServer::Resolved ProgramServer::resolve(const ServeRequest& request) {
  Resolved resolved;
  resolved.labels.reserve(request.programs.size());
  // The request's arity is its axis count; every program must take
  // exactly that many inputs.
  const std::size_t arity = request.inputs.size();

  // Pass 1: compile (or accept) every program. `holds` and `refs` stay
  // parallel to the request's program list (nullptr / empty for
  // raw-coefficient entries).
  std::vector<stochastic::SeparableProgram> programs;
  programs.reserve(request.programs.size());
  for (const ProgramSpec& spec : request.programs) {
    resolved.labels.push_back(spec.display_id());
    if (spec.is_raw()) {
      programs.push_back(raw_program(spec, arity));
      resolved.holds.emplace_back();
      resolved.refs.emplace_back();  // raw: reference = cell expected
      continue;
    }

    compile::CompileOptions base = options_.compile;
    if (request.sng_width.has_value()) base.sng_width = *request.sng_width;
    std::optional<compile::RegistryProgram> registered =
        compile::registry_program(spec.function_id, base, spec.degree);
    if (!registered) {
      throw ServeError(404, "unknown_function",
                       "unknown function '" + spec.function_id + "'");
    }
    require_arity("function '" + spec.function_id + "'", registered->arity(),
                  arity);
    // Cold-compile admission: expensive high-degree pipelines only run
    // when the program is already resident.
    if (registered->admission_degree() > options_.max_cold_degree &&
        !compiler_.cache().contains(registered->key)) {
      throw ServeError(
          429, "compile_budget",
          "cold compile at degree " +
              std::to_string(registered->admission_degree()) +
              " exceeds the admission budget (max_cold_degree = " +
              std::to_string(options_.max_cold_degree) + ")");
    }
    std::shared_ptr<const compile::CompiledProgram> program;
    try {
      program = compiler_.compile(*registered);
    } catch (const std::invalid_argument& e) {
      throw ServeError(400, "bad_request", e.what());
    }
    programs.push_back(program->program());
    resolved.holds.push_back(std::move(program));
    resolved.refs.push_back(std::move(registered->reference));  // registry f
  }

  // Pass 2: elevate every program to the common per-axis orders (value-
  // preserving) so one kernel pass can evaluate them all. The circuit
  // minimum is order 1 on every axis.
  std::vector<std::size_t> target(arity == 2 ? 2 : 1, 1);
  for (const stochastic::SeparableProgram& program : programs) {
    const std::vector<std::size_t> orders = kernel_orders(program);
    for (std::size_t a = 0; a < target.size(); ++a) {
      target[a] = std::max(target[a], orders[a]);
    }
  }
  resolved.programs.reserve(programs.size());
  for (stochastic::SeparableProgram& program : programs) {
    resolved.programs.push_back(elevated_to(std::move(program), target));
  }

  for (const auto& program : resolved.holds) {
    if (program != nullptr && program->kernel()->orders() == target) {
      resolved.kernel = program->kernel();
      resolved.design_point = program->design_point();
      resolved.circuit = &program->circuit();
      break;
    }
  }
  if (resolved.kernel == nullptr) {
    const OrderEngine& fallback = order_engine(target);
    resolved.kernel = fallback.kernel;
    resolved.design_point = fallback.design_point;
    resolved.circuit = fallback.circuit.get();
  }
  return resolved;
}

oscs::OperatingPoint ProgramServer::resolve_operating_point(
    const ServeRequest& request, const Resolved& resolved) const {
  oscs::OperatingPoint op;
  if (request.operating_point.has_value()) {
    op = *request.operating_point;
    if (request.sng_width.has_value()) op = op.with_sng_width(*request.sng_width);
  } else if (request.probe_power_mw.has_value()) {
    const unsigned width =
        request.sng_width.value_or(resolved.design_point.sng_width);
    try {
      op = optsc::LinkBudget(*resolved.circuit, optsc::EyeModel::kPhysical)
               .operating_point(*request.probe_power_mw,
                                request.stream_lengths.front(), width);
    } catch (const std::invalid_argument& e) {
      throw ServeError(400, "bad_request", e.what());
    }
  } else {
    op = resolved.design_point;
    if (request.sng_width.has_value()) op = op.with_sng_width(*request.sng_width);
  }
  try {
    op.validate();
  } catch (const std::invalid_argument& e) {
    throw ServeError(400, "bad_request", e.what());
  }
  return op;
}

ServeResponse ProgramServer::handle(const ServeRequest& request) {
  received_.inc();
  obs::Trace trace(request.trace.empty() ? obs::Trace::make_id()
                                         : request.trace);
  obs::TraceScope scope(&trace);
  try {
    if (request.op != RequestOp::kEvaluate) {
      throw ServeError(400, "bad_request",
                       "handle() only serves evaluate requests");
    }
    // parse_request applies these rules to every wire request; typed
    // requests get them here.
    validate_evaluate(request);
    ServeResponse response = evaluate(request, trace);
    response.trace_id = trace.id();
    const double total_us = trace.elapsed_us();
    total_hist_.record(total_us);
    accuracy_.log_slow(trace.id(), total_us);
    trace_log_.observe(trace, request.id, "ok");
    return response;
  } catch (const ServeError& e) {
    count_error(e.reason());
    trace_log_.observe(trace, request.id, e.reason());
    throw;
  } catch (const std::exception&) {
    count_error("internal");
    trace_log_.observe(trace, request.id, "internal");
    throw;
  }
}

void ProgramServer::count_error(const std::string& reason) {
  if (reason == "busy") {
    errors_.busy.inc();
  } else if (reason == "compile_budget") {
    errors_.compile_budget.inc();
  } else if (reason == "bad_request") {
    errors_.bad_request.inc();
  } else if (reason == "unknown_function") {
    errors_.unknown_function.inc();
  } else if (reason == "too_large") {
    errors_.too_large.inc();
  } else if (reason == "internal") {
    errors_.internal.inc();
  } else {
    errors_.other.inc();
  }
}

ServeResponse ProgramServer::evaluate(const ServeRequest& request,
                                      obs::Trace& trace) {
  // Evaluate-cost admission, in floating point so absurd uint64 values
  // cannot overflow their way past the gate. Checked before any compile
  // work and before an in-flight slot is taken.
  double length_bits = 0.0;
  for (std::size_t len : request.stream_lengths) {
    length_bits += static_cast<double>(len);
  }
  const double work_bits = static_cast<double>(request.programs.size()) *
                           static_cast<double>(request.inputs.front().size()) *
                           static_cast<double>(request.repeats) * length_bits;
  if (work_bits > options_.max_request_bits) {
    throw ServeError(413, "too_large",
                     "request demands " + std::to_string(work_bits) +
                         " stream bits, above the per-request budget of " +
                         std::to_string(options_.max_request_bits));
  }
  InFlightGuard guard(in_flight_, options_.max_in_flight);

  ServeResponse response;
  response.id = request.id;

  const auto t_resolve = Clock::now();
  Resolved resolved;
  {
    // Compile/certify spans attach under this one through the thread-
    // local trace scope (the compiler runs inside the cache factory).
    obs::Span span(&trace, "resolve");
    resolved = resolve(request);
  }
  response.latency.resolve_us = us_since(t_resolve);
  resolve_hist_.record(response.latency.resolve_us);

  const oscs::OperatingPoint op = resolve_operating_point(request, resolved);

  // One batch form for every arity: programs over per-axis input columns.
  const std::size_t arity = request.inputs.size();
  const bool nd = arity > 2;
  engine::BatchRequest batch;
  batch.programs_nd = std::move(resolved.programs);
  batch.inputs = request.inputs;
  batch.stream_lengths = request.stream_lengths;
  batch.repeats = request.repeats;
  batch.seed = request.seed;
  batch.op = op;

  const auto t_execute = Clock::now();
  engine::BatchSummary summary;
  // The fused kernel is a dense-path optimization; N-ary programs run
  // the separable lattice whatever the program count.
  response.fused = !nd && request.programs.size() > 1;
  {
    obs::Span span(&trace, "execute");
    // Leased, not constructed: thread spawn/join stays off the warm path.
    // A worker-task exception leaves the pool reusable (ThreadPool
    // contract), so the lease returns it to the free list either way.
    std::unique_ptr<engine::ThreadPool> pool = acquire_pool();
    try {
      const engine::BatchRunner runner(resolved.kernel,
                                       resolved.design_point);
      summary = response.fused ? runner.run_fused(batch, *pool)
                               : runner.run_nd(batch, *pool);
    } catch (const std::invalid_argument& e) {
      release_pool(std::move(pool));
      // Everything the engine rejects traces back to request content.
      throw ServeError(400, "bad_request", e.what());
    } catch (...) {
      release_pool(std::move(pool));
      throw;
    }
    release_pool(std::move(pool));
  }
  response.latency.execute_us = us_since(t_execute);
  execute_hist_.record(response.latency.execute_us);

  response.programs = resolved.labels;
  response.op = summary.op;
  response.optical_mae = summary.optical_mae;
  response.worst_cell_error = summary.worst_cell_error;
  response.total_bits = summary.total_bits;
  response.cells.reserve(summary.cells.size());
  for (const engine::BatchCell& cell : summary.cells) {
    CellResult out;
    out.program = resolved.labels[cell.poly_index];
    out.point = cell.point;
    out.stream_length = cell.stream_length;
    out.repeats = cell.repeats;
    out.expected = cell.expected;
    out.optical_mean = cell.optical_mean;
    out.optical_ci = cell.optical_ci;
    out.abs_error_mean = cell.optical_abs_error_mean;
    out.abs_error_ci = cell.optical_abs_error_ci;
    out.flip_rate = cell.flip_rate_mean;
    response.cells.push_back(std::move(out));
  }

  // Accuracy plane: per-cell telemetry is free (the numbers are already
  // in the summary); the double-precision shadow reference only runs for
  // deterministically sampled requests.
  accuracy_.record_cells(summary, resolved.labels, arity);
  if (accuracy_.should_sample(trace.id())) {
    std::vector<ShadowObservation> shadow(resolved.labels.size());
    std::vector<std::size_t> counts(resolved.labels.size(), 0);
    for (const engine::BatchCell& cell : summary.cells) {
      const std::size_t pi = cell.poly_index;
      // Registry programs compare against the original f (what their
      // certificate measured); raw-coefficient programs against the
      // engine's exact Bernstein value - the same reference that already
      // backs the response's `expected` field.
      const double reference =
          resolved.refs[pi] ? resolved.refs[pi](cell.point) : cell.expected;
      shadow[pi].observed_error += std::abs(cell.optical_mean - reference);
      ++counts[pi];
    }
    for (std::size_t pi = 0; pi < shadow.size(); ++pi) {
      shadow[pi].program = resolved.labels[pi];
      shadow[pi].arity = arity;
      if (counts[pi] > 0) {
        shadow[pi].observed_error /= static_cast<double>(counts[pi]);
      }
      if (resolved.holds[pi] != nullptr) {
        if (const auto& cert = resolved.holds[pi]->certification()) {
          shadow[pi].certified_mae = cert->mc_mae;
          shadow[pi].certified_ci = cert->mc_mae_ci;
        }
      }
    }
    accuracy_.record_shadow(trace.id(), shadow);
  } else {
    accuracy_.count_unsampled();
  }

  response.latency.total_us = trace.elapsed_us();
  // Completion is three arity counters; `completed` is derived as their
  // sum at snapshot time, so the invariant holds without a lock here.
  (nd ? completed_nd_
      : arity == 2 ? completed_bivariate_
                   : completed_univariate_)
      .inc();
  return response;
}

std::string ProgramServer::handle_json(const std::string& line) {
  const auto t0 = Clock::now();
  received_.inc();
  obs::Trace trace;
  obs::TraceScope scope(&trace);
  std::string request_id;
  try {
    ServeRequest request;
    {
      obs::Span span(&trace, "parse");
      request = parse_request(line);
    }
    request_id = request.id;
    if (!request.trace.empty()) trace.set_id(request.trace);
    const double parse_us = us_since(t0);
    parse_hist_.record(parse_us);

    switch (request.op) {
      case RequestOp::kPing: {
        JsonWriter json(/*pretty=*/false);
        json.begin_object();
        if (!request.id.empty()) json.field("id", request.id);
        json.field("ok", true)
            .field("trace_id", trace.id())
            .field("pong", true)
            .end_object();
        return json.str();
      }
      case RequestOp::kMetrics:
        return metrics_json(/*pretty=*/false, request.id);
      case RequestOp::kMetricsProm:
        return metrics_prom_json(request.id);
      case RequestOp::kHealth:
        return health_json(request.id);
      case RequestOp::kEvaluate: {
        ServeResponse response = evaluate(request, trace);
        response.latency.parse_us = parse_us;
        response.trace_id = trace.id();
        std::string text;
        {
          obs::Span span(&trace, "serialize");
          const auto t_serialize = Clock::now();
          response.latency.total_us = us_since(t0);
          text = write_response(response);
          serialize_hist_.record(us_since(t_serialize));
        }
        const double total_us = us_since(t0);
        total_hist_.record(total_us);
        accuracy_.log_slow(trace.id(), total_us);
        trace_log_.observe(trace, request_id, "ok");
        return text;
      }
    }
    throw ServeError(500, "internal", "unhandled request op");
  } catch (const ServeError& e) {
    count_error(e.reason());
    trace_log_.observe(trace, request_id, e.reason());
    return write_error(request_id, e.status(), e.reason(), e.what(),
                       trace.id());
  } catch (const std::exception& e) {
    count_error("internal");
    trace_log_.observe(trace, request_id, "internal");
    return write_error(request_id, 500, "internal", e.what(), trace.id());
  }
}

ServerMetrics ProgramServer::metrics() const {
  ServerMetrics snapshot;
  snapshot.cache = compiler_.cache().stats();
  snapshot.cache_size = compiler_.cache().size();
  snapshot.cache_capacity = compiler_.cache().capacity();
  snapshot.cache_loaded = static_cast<std::size_t>(cache_loaded_.value());
  snapshot.cache_load_errors =
      static_cast<std::size_t>(cache_load_errors_.value());
  snapshot.cache_prewarmed =
      static_cast<std::size_t>(cache_prewarmed_.value());

  snapshot.received = static_cast<std::size_t>(received_.value());
  snapshot.completed_univariate =
      static_cast<std::size_t>(completed_univariate_.value());
  snapshot.completed_bivariate =
      static_cast<std::size_t>(completed_bivariate_.value());
  snapshot.completed_nd = static_cast<std::size_t>(completed_nd_.value());
  // Derived, never stored: the invariant survives any interleaving of
  // concurrent completions with this read.
  snapshot.completed = snapshot.completed_univariate +
                       snapshot.completed_bivariate + snapshot.completed_nd;

  snapshot.errors = {
      {"bad_request", static_cast<std::size_t>(errors_.bad_request.value())},
      {"unknown_function",
       static_cast<std::size_t>(errors_.unknown_function.value())},
      {"too_large", static_cast<std::size_t>(errors_.too_large.value())},
      {"busy", static_cast<std::size_t>(errors_.busy.value())},
      {"compile_budget",
       static_cast<std::size_t>(errors_.compile_budget.value())},
      {"internal", static_cast<std::size_t>(errors_.internal.value())},
      {"other", static_cast<std::size_t>(errors_.other.value())},
  };
  snapshot.rejected_busy = snapshot.errors["busy"];
  snapshot.rejected_budget = snapshot.errors["compile_budget"];
  snapshot.failed = snapshot.errors["bad_request"] +
                    snapshot.errors["unknown_function"] +
                    snapshot.errors["too_large"] +
                    snapshot.errors["internal"] + snapshot.errors["other"];
  const std::int64_t in_flight = in_flight_.value();
  snapshot.in_flight =
      in_flight > 0 ? static_cast<std::size_t>(in_flight) : 0;

  snapshot.parse = stage_snapshot(parse_hist_);
  snapshot.resolve = stage_snapshot(resolve_hist_);
  snapshot.execute = stage_snapshot(execute_hist_);
  snapshot.serialize = stage_snapshot(serialize_hist_);
  snapshot.total = stage_snapshot(total_hist_);

  const AccuracyReport accuracy = accuracy_.report();
  snapshot.shadow_sampled = static_cast<std::size_t>(accuracy.sampled);
  snapshot.shadow_unsampled = static_cast<std::size_t>(accuracy.unsampled);
  snapshot.accuracy_drift = static_cast<std::size_t>(accuracy.drift_total);
  return snapshot;
}

std::string ProgramServer::metrics_json(bool pretty,
                                        const std::string& request_id) const {
  const ServerMetrics m = metrics();
  JsonWriter json(pretty);
  json.begin_object();
  if (!request_id.empty()) json.field("id", request_id);
  json.field("ok", true).key("metrics").begin_object();
  json.key("cache")
      .begin_object()
      .field("hits", m.cache.hits)
      .field("misses", m.cache.misses)
      .field("inserts", m.cache.inserts)
      .field("evictions", m.cache.evictions)
      .field("coalesced", m.cache.coalesced)
      .field("size", m.cache_size)
      .field("capacity", m.cache_capacity)
      .field("loaded", m.cache_loaded)
      .field("load_errors", m.cache_load_errors)
      .field("prewarmed", m.cache_prewarmed)
      .end_object();
  json.key("requests")
      .begin_object()
      .field("received", m.received)
      .field("completed", m.completed)
      .field("completed_univariate", m.completed_univariate)
      .field("completed_bivariate", m.completed_bivariate)
      .field("completed_nd", m.completed_nd)
      .field("rejected_busy", m.rejected_busy)
      .field("rejected_budget", m.rejected_budget)
      .field("failed", m.failed)
      .field("in_flight", m.in_flight)
      .end_object();
  json.key("errors").begin_object();
  for (const auto& [reason, count] : m.errors) {
    json.field(reason.c_str(), count);
  }
  json.end_object();
  json.key("latency_us").begin_object();
  stage_json(json, "parse", m.parse);
  stage_json(json, "resolve", m.resolve);
  stage_json(json, "execute", m.execute);
  stage_json(json, "serialize", m.serialize);
  stage_json(json, "total", m.total);
  json.end_object();
  // Accuracy-plane totals; per-program detail answers on {"op":"health"}.
  json.key("accuracy")
      .begin_object()
      .field("shadow_sampled", m.shadow_sampled)
      .field("shadow_unsampled", m.shadow_unsampled)
      .field("drift_total", m.accuracy_drift)
      .end_object();
  json.end_object().end_object();
  return json.str();
}

std::string ProgramServer::metrics_prometheus() const {
  // Scrape-time gauges: the cache answers for itself, the exposition just
  // reflects it.
  cache_size_gauge_.set(static_cast<std::int64_t>(compiler_.cache().size()));
  cache_capacity_gauge_.set(
      static_cast<std::int64_t>(compiler_.cache().capacity()));
  // Serve families first (this instance), then the process-global
  // registry (engine pools, batch throughput, compile pipeline).
  return registry_.prometheus() + obs::Registry::global().prometheus();
}

std::string ProgramServer::health_json(const std::string& request_id) const {
  const AccuracyReport report = accuracy_.report();
  JsonWriter json(/*pretty=*/false);
  json.begin_object();
  if (!request_id.empty()) json.field("id", request_id);
  json.field("ok", true).field("status",
                               obs::slo_state_name(report.status));
  json.key("shadow")
      .begin_object()
      .field("fraction", report.shadow_fraction)
      .field("sampled", report.sampled)
      .field("unsampled", report.unsampled)
      .end_object();
  json.field("drift_total", report.drift_total);
  json.key("observed")
      .begin_object()
      .field("count", report.observed.count)
      .field("mean", report.observed.mean)
      .field("p50", report.observed.p50)
      .field("p95", report.observed.p95)
      .field("p99", report.observed.p99)
      .field("max", report.observed.max)
      .end_object();
  json.key("programs").begin_array();
  for (const ProgramHealth& program : report.programs) {
    json.begin_object()
        .field("program", program.program)
        .field("arity", program.arity)
        .field("state", obs::slo_state_name(program.state))
        .field("certified", program.certified)
        .field("certified_mae", program.certified_mae)
        .field("certified_ci", program.certified_ci)
        .field("budget", program.budget)
        .field("ewma", program.ewma)
        .field("samples", program.samples)
        .field("drift_total", program.drift_total)
        .end_object();
  }
  json.end_array().end_object();
  return json.str();
}

std::string ProgramServer::metrics_prom_json(
    const std::string& request_id) const {
  // The exposition text is multi-line; the wire protocol is one document
  // per line - so the text ships inside a JSON envelope whose writer
  // escapes the newlines.
  JsonWriter json(/*pretty=*/false);
  json.begin_object();
  if (!request_id.empty()) json.field("id", request_id);
  json.field("ok", true)
      .field("content_type", "text/plain; version=0.0.4")
      .field("body", metrics_prometheus())
      .end_object();
  return json.str();
}

}  // namespace oscs::serve
