#include "compile/certify.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "engine/batch.hpp"
#include "optsc/link_budget.hpp"

namespace oscs::compile {

namespace eng = oscs::engine;

void CertificationOptions::validate() const {
  if (stream_length == 0) {
    throw std::invalid_argument("CertificationOptions: zero stream length");
  }
  if (repeats == 0) {
    throw std::invalid_argument("CertificationOptions: zero repeats");
  }
  if (grid_points == 0) {
    throw std::invalid_argument("CertificationOptions: zero grid points");
  }
}

void GridCertificationOptions::validate() const {
  if (probe_powers_mw.empty() && probe_scales.empty()) {
    throw std::invalid_argument("GridCertificationOptions: no probe powers");
  }
  for (double p : probe_powers_mw) {
    if (!(p > 0.0)) {
      throw std::invalid_argument(
          "GridCertificationOptions: probe power must be > 0 mW");
    }
  }
  for (double s : probe_scales) {
    if (!(s > 0.0)) {
      throw std::invalid_argument(
          "GridCertificationOptions: probe scale must be > 0");
    }
  }
  if (stream_lengths.empty()) {
    throw std::invalid_argument("GridCertificationOptions: no stream lengths");
  }
  for (std::size_t len : stream_lengths) {
    if (len == 0) {
      throw std::invalid_argument(
          "GridCertificationOptions: zero stream length");
    }
  }
  if (repeats == 0) {
    throw std::invalid_argument("GridCertificationOptions: zero repeats");
  }
  if (grid_points == 0) {
    throw std::invalid_argument("GridCertificationOptions: zero grid points");
  }
}

Certification certify_at(const CompiledProgram& program,
                         const std::function<double(double)>& reference,
                         const oscs::OperatingPoint& op,
                         const CertificationOptions& options) {
  options.validate();
  op.validate();

  eng::BatchRequest request;
  request.polynomials.push_back(program.poly());
  request.xs.reserve(options.grid_points);
  for (std::size_t i = 1; i <= options.grid_points; ++i) {
    request.xs.push_back(static_cast<double>(i) /
                         static_cast<double>(options.grid_points + 1));
  }
  request.stream_lengths = {op.stream_length};
  request.repeats = options.repeats;
  request.seed = options.seed;
  request.source_kind = options.source_kind;
  request.op = op;

  // Reuse the program's prebuilt kernel: certification shares the decision
  // LUT codegen already paid for. The kernel's LUT is probe-power
  // invariant (transmissions scale linearly), so one kernel serves every
  // operating point; only the BER inside `op` changes.
  const eng::BatchRunner runner(program.kernel(), program.design_point());
  const eng::BatchSummary summary = runner.run_nd(request, options.threads);

  Certification cert;
  cert.op = op;
  cert.stream_length = op.stream_length;
  cert.repeats = options.repeats;
  cert.grid_points = options.grid_points;
  cert.noise_enabled = op.noisy();

  // Per-cell error versus the double-precision reference. The cells carry
  // the MC mean and its CI; the MAE CI follows by independence of the
  // per-cell estimates: CI(mean of means) = sqrt(sum ci_i^2) / N.
  double ci_sq_sum = 0.0;
  for (const eng::BatchCell& cell : summary.cells) {
    const double ref = reference(cell.x);
    const double err = std::abs(cell.optical_mean - ref);
    cert.mc_mae += err;
    cert.mc_worst = std::max(cert.mc_worst, err);
    ci_sq_sum += cell.optical_ci * cell.optical_ci;
  }
  const auto n = static_cast<double>(summary.cells.size());
  cert.mc_mae /= n;
  cert.mc_mae_ci = std::sqrt(ci_sq_sum) / n;
  cert.electronic_mae = summary.electronic_mae;

  // Deterministic pipeline error (projection + quantization), sampled on a
  // dense grid - the floor the MC estimate converges to as streams grow.
  constexpr std::size_t kDenseSamples = 512;
  for (std::size_t s = 0; s <= kDenseSamples; ++s) {
    const double x = static_cast<double>(s) / kDenseSamples;
    cert.approx_max_error = std::max(
        cert.approx_max_error, std::abs(program.poly()(x) - reference(x)));
  }
  return cert;
}

Certification certify2_at(const CompiledProgram& program,
                          const std::function<double(double, double)>& reference,
                          const oscs::OperatingPoint& op,
                          const CertificationOptions& options) {
  options.validate();
  op.validate();
  if (!program.is_bivariate()) {
    throw std::invalid_argument("certify2_at: univariate program");
  }

  // The MC grid is the tensor of `grid_points` interior points per axis:
  // the batch request enumerates every (x, y) pair explicitly since the
  // bivariate engine evaluates pairs, not cross products.
  eng::BatchRequest request;
  request.polynomials2.push_back(program.poly2());
  request.xs.reserve(options.grid_points * options.grid_points);
  request.ys.reserve(options.grid_points * options.grid_points);
  for (std::size_t i = 1; i <= options.grid_points; ++i) {
    const double x = static_cast<double>(i) /
                     static_cast<double>(options.grid_points + 1);
    for (std::size_t j = 1; j <= options.grid_points; ++j) {
      request.xs.push_back(x);
      request.ys.push_back(static_cast<double>(j) /
                           static_cast<double>(options.grid_points + 1));
    }
  }
  request.stream_lengths = {op.stream_length};
  request.repeats = options.repeats;
  request.seed = options.seed;
  request.source_kind = options.source_kind;
  request.op = op;

  const eng::BatchRunner runner(program.kernel(), program.design_point());
  const eng::BatchSummary summary = runner.run_nd(request, options.threads);

  Certification cert;
  cert.op = op;
  cert.stream_length = op.stream_length;
  cert.repeats = options.repeats;
  cert.grid_points = options.grid_points;
  cert.noise_enabled = op.noisy();

  double ci_sq_sum = 0.0;
  for (const eng::BatchCell& cell : summary.cells) {
    const double ref = reference(cell.x, cell.y);
    const double err = std::abs(cell.optical_mean - ref);
    cert.mc_mae += err;
    cert.mc_worst = std::max(cert.mc_worst, err);
    ci_sq_sum += cell.optical_ci * cell.optical_ci;
  }
  const auto n = static_cast<double>(summary.cells.size());
  cert.mc_mae /= n;
  cert.mc_mae_ci = std::sqrt(ci_sq_sum) / n;
  cert.electronic_mae = summary.electronic_mae;

  // Deterministic pipeline error on a dense (x, y) grid.
  constexpr std::size_t kDenseSamples = 128;
  for (std::size_t sx = 0; sx <= kDenseSamples; ++sx) {
    const double x = static_cast<double>(sx) / kDenseSamples;
    for (std::size_t sy = 0; sy <= kDenseSamples; ++sy) {
      const double y = static_cast<double>(sy) / kDenseSamples;
      cert.approx_max_error =
          std::max(cert.approx_max_error,
                   std::abs(program.poly2()(x, y) - reference(x, y)));
    }
  }
  return cert;
}

Certification certify_nd_at(
    const CompiledProgram& program,
    const std::function<double(const std::vector<double>&)>& reference,
    const oscs::OperatingPoint& op, const CertificationOptions& options) {
  options.validate();
  op.validate();
  if (!program.is_nd()) {
    throw std::invalid_argument("certify_nd_at: dense program");
  }
  const std::size_t arity = program.arity();

  // The MC grid is the tensor of `grid_points` interior points per axis,
  // enumerated as explicit coordinate tuples (one column per axis) since
  // the engine evaluates tuples, not cross products.
  eng::BatchRequest request;
  request.programs_nd.push_back(program.program_nd());
  std::size_t tuples = 1;
  for (std::size_t j = 0; j < arity; ++j) tuples *= options.grid_points;
  request.inputs.assign(arity, {});
  for (std::vector<double>& axis : request.inputs) axis.reserve(tuples);
  for (std::size_t g = 0; g < tuples; ++g) {
    std::size_t rest = g;
    for (std::size_t j = arity; j-- > 0;) {
      const std::size_t i = rest % options.grid_points;
      rest /= options.grid_points;
      request.inputs[j].push_back(static_cast<double>(i + 1) /
                                  static_cast<double>(options.grid_points + 1));
    }
  }
  request.stream_lengths = {op.stream_length};
  request.repeats = options.repeats;
  request.seed = options.seed;
  request.source_kind = options.source_kind;
  request.op = op;

  const eng::BatchRunner runner(program.kernel(), program.design_point());
  const eng::BatchSummary summary = runner.run_nd(request, options.threads);

  Certification cert;
  cert.op = op;
  cert.stream_length = op.stream_length;
  cert.repeats = options.repeats;
  cert.grid_points = options.grid_points;
  cert.noise_enabled = op.noisy();

  double ci_sq_sum = 0.0;
  for (const eng::BatchCell& cell : summary.cells) {
    const double ref = reference(cell.point);
    const double err = std::abs(cell.optical_mean - ref);
    cert.mc_mae += err;
    cert.mc_worst = std::max(cert.mc_worst, err);
    ci_sq_sum += cell.optical_ci * cell.optical_ci;
  }
  const auto n = static_cast<double>(summary.cells.size());
  cert.mc_mae /= n;
  cert.mc_mae_ci = std::sqrt(ci_sq_sum) / n;
  cert.electronic_mae = summary.electronic_mae;

  // Deterministic pipeline error on a dense per-axis grid (coarser than
  // the dense-arity paths: the tuple count is exponential in arity).
  constexpr std::size_t kDenseSamples = 24;
  std::size_t dense_tuples = 1;
  for (std::size_t j = 0; j < arity; ++j) dense_tuples *= kDenseSamples + 1;
  std::vector<double> point(arity, 0.0);
  for (std::size_t g = 0; g < dense_tuples; ++g) {
    std::size_t rest = g;
    for (std::size_t j = arity; j-- > 0;) {
      point[j] = static_cast<double>(rest % (kDenseSamples + 1)) /
                 static_cast<double>(kDenseSamples);
      rest /= kDenseSamples + 1;
    }
    cert.approx_max_error =
        std::max(cert.approx_max_error,
                 std::abs(program.program_nd()(point) - reference(point)));
  }
  return cert;
}

Certification certify_nd(
    const CompiledProgram& program,
    const std::function<double(const std::vector<double>&)>& reference,
    const CertificationOptions& options) {
  options.validate();
  oscs::OperatingPoint op =
      program.design_point().with_stream_length(options.stream_length);
  if (!options.noise_enabled) op = op.noiseless();
  return certify_nd_at(program, reference, op, options);
}

Certification certify2(const CompiledProgram& program,
                       const std::function<double(double, double)>& reference,
                       const CertificationOptions& options) {
  options.validate();
  oscs::OperatingPoint op =
      program.design_point().with_stream_length(options.stream_length);
  if (!options.noise_enabled) op = op.noiseless();
  return certify2_at(program, reference, op, options);
}

Certification certify(const CompiledProgram& program,
                      const std::function<double(double)>& reference,
                      const CertificationOptions& options) {
  options.validate();
  oscs::OperatingPoint op =
      program.design_point().with_stream_length(options.stream_length);
  if (!options.noise_enabled) op = op.noiseless();
  return certify_at(program, reference, op, options);
}

GridCertification certify_grid(const CompiledProgram& program,
                               const std::function<double(double)>& reference,
                               const GridCertificationOptions& options) {
  options.validate();

  std::vector<double> probes = options.probe_powers_mw;
  if (probes.empty()) {
    const double design_probe = program.design_point().probe_power_mw;
    probes.reserve(options.probe_scales.size());
    for (double s : options.probe_scales) probes.push_back(s * design_probe);
  }

  CertificationOptions cell_options;
  cell_options.repeats = options.repeats;
  cell_options.grid_points = options.grid_points;
  cell_options.seed = options.seed;
  cell_options.source_kind = options.source_kind;
  cell_options.threads = options.threads;

  const optsc::LinkBudget budget(program.circuit(),
                                 optsc::EyeModel::kPhysical);
  GridCertification grid;
  grid.function_id = program.function_id();
  grid.cells.reserve(probes.size() * options.stream_lengths.size());
  for (double probe : probes) {
    for (std::size_t length : options.stream_lengths) {
      GridCell cell;
      cell.op =
          budget.operating_point(probe, length, program.key().width);
      cell.cert = certify_at(program, reference, cell.op, cell_options);
      const std::size_t index = grid.cells.size();
      if (grid.cells.empty() ||
          cell.cert.mc_mae < grid.cells[grid.best_cell].cert.mc_mae) {
        grid.best_cell = index;
      }
      if (grid.cells.empty() ||
          cell.cert.mc_mae > grid.cells[grid.worst_cell].cert.mc_mae) {
        grid.worst_cell = index;
      }
      grid.cells.push_back(std::move(cell));
    }
  }
  return grid;
}

}  // namespace oscs::compile
