#include "engine/batch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/arity_guard.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "optsc/link_budget.hpp"

namespace oscs::engine {

namespace sc = oscs::stochastic;

namespace {

// Engine throughput metrics (global registry; references resolved once).

obs::Counter& bits_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "oscs_engine_bits_evaluated_total",
      "stream bits evaluated by the batch engine");
  return counter;
}

obs::Counter& words_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "oscs_engine_words_processed_total",
      "64-bit stimulus words processed by the packed kernel");
  return counter;
}

obs::Histogram& request_bits_histogram() {
  static obs::Histogram& histogram = obs::Registry::global().histogram(
      "oscs_engine_request_bits",
      "stream bits evaluated per batch run [bits]", {},
      obs::Histogram::size_units());
  return histogram;
}

obs::Histogram& fused_k_histogram() {
  static obs::Histogram& histogram = obs::Registry::global().histogram(
      "oscs_engine_fused_k", "programs fused into one kernel pass", {},
      obs::Histogram::Options{/*min_value=*/1.0, /*growth=*/2.0,
                              /*buckets=*/12});
  return histogram;
}

obs::Histogram& slab_tasks_histogram() {
  static obs::Histogram& histogram = obs::Registry::global().histogram(
      "oscs_engine_slab_tasks", "tasks per scheduled slab", {},
      obs::Histogram::Options{/*min_value=*/1.0, /*growth=*/2.0,
                              /*buckets=*/16});
  return histogram;
}

/// 64-bit words one evaluation of a `length`-bit stream touches.
std::size_t words_for(std::size_t length) noexcept {
  return (length + 63) / 64;
}

/// Stream-bit budget per slab in auto mode: chunky enough that a slab is
/// on the order of a millisecond of packed-kernel work, so queue overhead
/// (one lock hand-off + one std::function dispatch per slab) disappears
/// into the noise even for dense grids of short streams.
constexpr std::size_t kSlabTargetBits = std::size_t{1} << 20;

/// Slabs-per-worker floor in auto mode, for load balance on ragged work.
constexpr std::size_t kSlabsPerWorker = 4;

/// Tasks per slab for this request. `passes_per_task` scales the per-task
/// work estimate: the fused mode evaluates every program in one task.
std::size_t slab_size(const BatchRequest& request, std::size_t workers,
                      std::size_t n_tasks, std::size_t passes_per_task) {
  if (n_tasks == 0) return 1;
  if (request.slab_tasks != 0) return std::min(request.slab_tasks, n_tasks);
  std::size_t total_len = 0;
  for (std::size_t length : request.stream_lengths) total_len += length;
  const std::size_t mean_bits_per_task = std::max<std::size_t>(
      1, total_len / request.stream_lengths.size() * passes_per_task);
  const std::size_t by_target =
      std::max<std::size_t>(1, kSlabTargetBits / mean_bits_per_task);
  const std::size_t by_balance = std::max<std::size_t>(
      1, n_tasks / (kSlabsPerWorker * std::max<std::size_t>(1, workers)));
  return std::min({by_target, by_balance, n_tasks});
}

/// Export one finished batch into the engine counters. `passes_per_task`
/// is the number of kernel passes per (point, length, repeat) task summed
/// over the request's programs: see kernel_passes() for run_nd, 1 for the
/// fused mode (shared stimulus).
void record_batch(const BatchRequest& request, const BatchSummary& summary,
                  std::size_t passes_per_task) {
  bits_counter().inc(summary.total_bits);
  request_bits_histogram().record(static_cast<double>(summary.total_bits));
  std::size_t words = 0;
  for (std::size_t length : request.stream_lengths) {
    words += words_for(length) * request.points() * request.repeats;
  }
  words_counter().inc(words * passes_per_task);
}

/// Packed-kernel passes one run_nd evaluation of `program` makes: one
/// dense MUX pass, or one pass per factor of every rank-1 term.
std::size_t kernel_passes(const sc::SeparableProgram& program) {
  if (!dense_orders(program).empty()) return 1;
  std::size_t passes = 0;
  for (const sc::SeparableTerm& term : program.terms()) {
    passes += term.factors.size();
  }
  return passes;
}

/// The canonical form of a request: its programs as separable programs
/// and its evaluation points as coordinate tuples. This is the one place
/// the `polynomials`/`polynomials2` + `xs`/`ys` sugar is lowered (onto
/// the dense univariate / tensor-product forms).
struct SeparableView {
  std::vector<sc::SeparableProgram> programs;
  std::vector<std::vector<double>> points;
};

SeparableView separable_view(const BatchRequest& request) {
  SeparableView view;
  std::vector<std::vector<double>> columns = request.inputs;
  if (request.programs_nd.empty()) {
    columns = {request.xs};
    if (!request.polynomials2.empty()) columns.push_back(request.ys);
    for (const sc::BernsteinPoly& poly : request.polynomials) {
      view.programs.emplace_back(poly);
    }
    for (const sc::BernsteinPoly2& poly : request.polynomials2) {
      view.programs.emplace_back(poly);
    }
  } else {
    view.programs = request.programs_nd;
  }
  view.points.resize(request.points());
  for (std::size_t i = 0; i < view.points.size(); ++i) {
    for (const std::vector<double>& column : columns) {
      view.points[i].push_back(column[i]);
    }
  }
  return view;
}

/// One evaluation's outcome, written into its task's own slot.
struct TaskOut {
  double optical = 0.0;
  double electronic = 0.0;
  std::size_t flips = 0;
};

/// Aggregate per-task outputs into program-major cells. `slot` maps
/// (program, point, length, repeat) indices to a TaskOut slot; the exact
/// expected values come from the view's programs.
template <typename SlotFn>
BatchSummary aggregate(const BatchRequest& request, const SeparableView& view,
                       const std::vector<TaskOut>& outs,
                       const oscs::OperatingPoint& op, SlotFn&& slot) {
  const std::vector<sc::SeparableProgram>& programs = view.programs;
  const std::vector<std::vector<double>>& points = view.points;
  BatchSummary summary;
  summary.tasks = outs.size();
  summary.op = op.with_stream_length(
      request.stream_lengths.size() == 1 ? request.stream_lengths.front() : 0);
  summary.cells.reserve(request.cells());
  const std::size_t n_lengths = request.stream_lengths.size();
  summary.program_accuracy.resize(programs.size());
  for (std::size_t pi = 0; pi < programs.size(); ++pi) {
    ProgramAccuracy& acc = summary.program_accuracy[pi];
    for (std::size_t xi = 0; xi < points.size(); ++xi) {
      const std::vector<double>& point = points[xi];
      // Dense forms evaluate the dense polynomial exactly.
      const double expected = programs[pi](point);
      for (std::size_t li = 0; li < n_lengths; ++li) {
        const std::size_t length = request.stream_lengths[li];
        oscs::Accumulator optical;
        oscs::Accumulator optical_err;
        oscs::Accumulator electronic_err;
        oscs::Accumulator flip_rate;
        for (std::size_t rep = 0; rep < request.repeats; ++rep) {
          const TaskOut& out = outs[slot(pi, xi, li, rep)];
          optical.add(out.optical);
          optical_err.add(std::abs(out.optical - expected));
          electronic_err.add(std::abs(out.electronic - expected));
          flip_rate.add(static_cast<double>(out.flips) /
                        static_cast<double>(length));
          summary.total_bits += length;
        }
        BatchCell cell;
        cell.poly_index = pi;
        cell.point = point;
        cell.x = point[0];
        if (point.size() > 1) cell.y = point[1];
        cell.stream_length = length;
        cell.repeats = request.repeats;
        cell.expected = expected;
        cell.optical_mean = optical.mean();
        cell.optical_ci = optical.ci_halfwidth();
        cell.optical_abs_error_mean = optical_err.mean();
        cell.optical_abs_error_ci = optical_err.ci_halfwidth();
        cell.electronic_abs_error_mean = electronic_err.mean();
        cell.flip_rate_mean = flip_rate.mean();
        summary.optical_mae += cell.optical_abs_error_mean;
        summary.electronic_mae += cell.electronic_abs_error_mean;
        summary.worst_cell_error =
            std::max(summary.worst_cell_error, cell.optical_abs_error_mean);
        // Certification-aligned roll-up: deviation of the mean estimate,
        // not the mean of per-repeat deviations.
        const double mean_err = std::abs(cell.optical_mean - expected);
        acc.cells += 1;
        acc.mean_error += mean_err;
        acc.worst_error = std::max(acc.worst_error, mean_err);
        acc.ci_mean += cell.optical_ci;
        summary.cells.push_back(cell);
      }
    }
  }
  for (ProgramAccuracy& acc : summary.program_accuracy) {
    if (acc.cells > 0) {
      acc.mean_error /= static_cast<double>(acc.cells);
      acc.ci_mean /= static_cast<double>(acc.cells);
    }
  }
  const double n_cells = static_cast<double>(summary.cells.size());
  summary.optical_mae /= n_cells;
  summary.electronic_mae /= n_cells;
  return summary;
}

}  // namespace

std::size_t BatchRequest::cells() const noexcept {
  return program_count() * points() * stream_lengths.size();
}

std::size_t BatchRequest::tasks() const noexcept { return cells() * repeats; }

void BatchRequest::validate() const {
  // Shared arity-guard rendering keeps these messages in lockstep with the
  // serve-layer checks; "" means the check passed.
  const arity::GuardStyle& style = arity::kEngineStyle;
  const auto raise = [](const std::string& message) {
    if (!message.empty()) throw std::invalid_argument(message);
  };
  const std::size_t populated =
      static_cast<std::size_t>(!polynomials.empty()) +
      static_cast<std::size_t>(!polynomials2.empty()) +
      static_cast<std::size_t>(!programs_nd.empty());
  raise(arity::exactly_one_error(
      style, populated, "polynomials/polynomials2/programs_nd",
      "polynomials"));
  if (!programs_nd.empty()) {
    if (!xs.empty() || !ys.empty()) {
      throw std::invalid_argument(
          "BatchRequest: xs/ys are only legal with polynomials/polynomials2 "
          "(N-ary points ride in inputs)");
    }
    if (inputs.empty()) {
      throw std::invalid_argument("BatchRequest: no inputs axes");
    }
    for (const sc::SeparableProgram& program : programs_nd) {
      if (program.arity() != inputs.size()) {
        throw std::invalid_argument(
            "BatchRequest: program arity " + std::to_string(program.arity()) +
            " does not match the " + std::to_string(inputs.size()) +
            " inputs axes");
      }
    }
    raise(arity::nonempty_error(style, "inputs[0]", inputs.front().size()));
    for (std::size_t a = 1; a < inputs.size(); ++a) {
      // Evaluation points are coordinate TUPLES across the axis columns; a
      // length mismatch would silently truncate or read past one of them.
      const std::string axis = "inputs[" + std::to_string(a) + "]";
      raise(arity::pairwise_error(style, "inputs[0]", inputs.front().size(),
                                  axis, inputs[a].size()));
    }
    for (std::size_t a = 0; a < inputs.size(); ++a) {
      // SC encodes each coordinate as a bit probability: anything outside
      // [0, 1] (or a NaN smuggled in through a parsed request) would
      // silently produce a meaningless stream instead of an error.
      raise(arity::unit_range_error(
          style, "inputs[" + std::to_string(a) + "]", inputs[a]));
    }
  } else {
    if (!inputs.empty()) {
      throw std::invalid_argument(
          "BatchRequest: inputs is only legal with programs_nd");
    }
    raise(arity::nonempty_error(style, "x", xs.size()));
    if (!polynomials2.empty()) {
      raise(arity::pairwise_error(style, "xs", xs.size(), "ys", ys.size()));
    } else if (!ys.empty()) {
      throw std::invalid_argument(
          "BatchRequest: ys is only legal with bivariate polynomials2");
    }
    raise(arity::unit_range_error(style, "x", xs));
    raise(arity::unit_range_error(style, "y", ys));
  }
  if (stream_lengths.empty()) {
    throw std::invalid_argument("BatchRequest: no stream lengths");
  }
  for (std::size_t len : stream_lengths) {
    if (len == 0) {
      throw std::invalid_argument("BatchRequest: zero stream length");
    }
  }
  if (repeats == 0) {
    throw std::invalid_argument("BatchRequest: zero repeats");
  }
  if (op.has_value()) {
    op->validate();
  }
}

std::uint64_t derive_task_seed(std::uint64_t master, std::size_t task_index,
                               std::uint64_t lane) {
  // Decorrelate (task, lane) pairs before the SplitMix64 expansion so
  // nearby indices do not share low-entropy state.
  oscs::SplitMix64 sm(master ^
                      (0x9E3779B97F4A7C15ULL * (2 * task_index + lane + 1)));
  return sm.next();
}

BatchRunner::BatchRunner(const optsc::OpticalScCircuit& circuit)
    : kernel_(std::make_shared<PackedKernel>(circuit)),
      design_point_(optsc::design_operating_point(circuit)) {}

BatchRunner::BatchRunner(std::shared_ptr<const PackedKernel> kernel,
                         oscs::OperatingPoint design_point)
    : kernel_(std::move(kernel)), design_point_(design_point) {
  if (!kernel_) {
    throw std::invalid_argument("BatchRunner: null kernel");
  }
  design_point_.validate();
}

BatchSummary BatchRunner::run_nd(const BatchRequest& request,
                                 ThreadPool& pool) const {
  request.validate();
  const SeparableView view = separable_view(request);
  for (const sc::SeparableProgram& program : view.programs) {
    kernel_->check_program(program);
  }
  const oscs::OperatingPoint base = request.op.value_or(design_point_);

  const std::size_t n_tasks = request.tasks();
  std::vector<TaskOut> outs(n_tasks);

  // Fan the (cell, repeat) grid across the pool in contiguous-index slabs.
  // Each task decomposes its global index t (repeat innermost), derives
  // its seeds from t alone and writes only its own output slot, so results
  // are independent of scheduling order, thread count and slab grain.
  const std::size_t n_lengths = request.stream_lengths.size();
  const std::size_t n_xs = view.points.size();
  const std::size_t repeats = request.repeats;
  const std::size_t slab = slab_size(request, pool.size(), n_tasks, 1);
  slab_tasks_histogram().record(static_cast<double>(slab));
  pool.submit_range(
      (n_tasks + slab - 1) / slab,
      [this, &request, &view, &outs, &base, n_lengths, n_xs, repeats, slab,
       n_tasks](std::size_t si) {
        const std::size_t end = std::min(n_tasks, (si + 1) * slab);
        for (std::size_t t = si * slab; t < end; ++t) {
          const std::size_t cell = t / repeats;
          const std::size_t li = cell % n_lengths;
          const std::size_t xi = (cell / n_lengths) % n_xs;
          const std::size_t pi = cell / (n_lengths * n_xs);
          PackedRunConfig cfg;
          cfg.op = base.with_stream_length(request.stream_lengths[li]);
          cfg.source_kind = request.source_kind;
          cfg.stimulus_seed = derive_task_seed(request.seed, t, 0);
          cfg.noise_seed = derive_task_seed(request.seed, t, 1);
          const PackedRunResult r =
              kernel_->run_nd(view.programs[pi], view.points[xi], cfg);
          outs[t] = {r.optical_estimate, r.electronic_estimate,
                     r.transmission_flips};
        }
      });
  pool.wait_idle();

  BatchSummary summary = aggregate(
      request, view, outs, base,
      [n_xs, n_lengths, repeats](std::size_t pi, std::size_t xi,
                                 std::size_t li, std::size_t rep) {
        return ((pi * n_xs + xi) * n_lengths + li) * repeats + rep;
      });
  std::size_t passes = 0;
  for (const sc::SeparableProgram& program : view.programs) {
    passes += kernel_passes(program);
  }
  record_batch(request, summary, passes);
  return summary;
}

BatchSummary BatchRunner::run_nd(const BatchRequest& request,
                                 std::size_t threads) const {
  ThreadPool pool(threads);
  return run_nd(request, pool);
}

BatchSummary BatchRunner::run_fused(const BatchRequest& request,
                                    ThreadPool& pool) const {
  request.validate();
  const SeparableView view = separable_view(request);
  for (const sc::SeparableProgram& program : view.programs) {
    // Fusion shares one stimulus bank across dense programs; a
    // sum-of-rank-1 program runs each term on its own factor streams.
    if (dense_orders(program).empty()) {
      throw std::invalid_argument(
          "BatchRunner: fused mode takes dense programs; run separable-term "
          "programs through run_nd");
    }
    kernel_->check_program(program);
  }
  const oscs::OperatingPoint base = request.op.value_or(design_point_);

  const std::size_t n_programs = view.programs.size();
  const std::size_t n_lengths = request.stream_lengths.size();
  const std::size_t n_tasks = view.points.size() * n_lengths * request.repeats;
  std::vector<TaskOut> outs(n_tasks * n_programs);

  // One task per (point, length, repeat): a single fused kernel pass
  // evaluates every program on shared data streams (one bank per axis)
  // and one flip mask, then scatters into per-program slots. Tasks go out
  // in contiguous-index slabs, same contract as run_nd().
  const std::size_t repeats = request.repeats;
  const std::size_t slab = slab_size(request, pool.size(), n_tasks, n_programs);
  slab_tasks_histogram().record(static_cast<double>(slab));
  pool.submit_range(
      (n_tasks + slab - 1) / slab,
      [this, &request, &view, &outs, &base, n_lengths, repeats, slab, n_tasks,
       n_programs](std::size_t si) {
        const std::size_t end = std::min(n_tasks, (si + 1) * slab);
        for (std::size_t t = si * slab; t < end; ++t) {
          const std::size_t li = (t / repeats) % n_lengths;
          const std::size_t xi = t / (repeats * n_lengths);
          PackedRunConfig cfg;
          cfg.op = base.with_stream_length(request.stream_lengths[li]);
          cfg.source_kind = request.source_kind;
          cfg.stimulus_seed = derive_task_seed(request.seed, t, 0);
          cfg.noise_seed = derive_task_seed(request.seed, t, 1);
          const std::vector<PackedRunResult> results =
              kernel_->run_fused(view.programs, view.points[xi], cfg);
          for (std::size_t pi = 0; pi < n_programs; ++pi) {
            const PackedRunResult& r = results[pi];
            outs[t * n_programs + pi] = {r.optical_estimate,
                                         r.electronic_estimate,
                                         r.transmission_flips};
          }
        }
      });
  pool.wait_idle();

  BatchSummary summary = aggregate(
      request, view, outs, base,
      [n_lengths, repeats, n_programs](std::size_t pi, std::size_t xi,
                                       std::size_t li, std::size_t rep) {
        const std::size_t t = (xi * n_lengths + li) * repeats + rep;
        return t * n_programs + pi;
      });
  // One shared stimulus pass serves all K programs - that is the point of
  // fusion, and the words counter reflects it.
  record_batch(request, summary, 1);
  fused_k_histogram().record(static_cast<double>(n_programs));
  return summary;
}

BatchSummary BatchRunner::run_fused(const BatchRequest& request,
                                    std::size_t threads) const {
  ThreadPool pool(threads);
  return run_fused(request, pool);
}

}  // namespace oscs::engine
