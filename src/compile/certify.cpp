#include "compile/certify.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/sweep.hpp"
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

namespace {

/// `steps` evenly spaced coordinates i/divisor for i in [first, first +
/// steps).
std::vector<double> axis_values(std::size_t first, std::size_t steps,
                                std::size_t divisor) {
  std::vector<double> values;
  values.reserve(steps);
  for (std::size_t i = first; i < first + steps; ++i) {
    values.push_back(static_cast<double>(i) / static_cast<double>(divisor));
  }
  return values;
}

/// The design operating point with the options' stream length and noise
/// switch applied - what certify()/certify2()/certify_nd() run at.
oscs::OperatingPoint design_op(const CompiledProgram& program,
                               const CertificationOptions& options) {
  options.validate();
  oscs::OperatingPoint op =
      program.design_point().with_stream_length(options.stream_length);
  if (!options.noise_enabled) op = op.noiseless();
  return op;
}

void require_arity(const CompiledProgram& program, std::size_t arity,
                   const char* caller) {
  if (program.arity() != arity) {
    throw std::invalid_argument(
        std::string(caller) + ": program '" + program.function_id() +
        "' has arity " + std::to_string(program.arity()) + ", expected " +
        std::to_string(arity));
  }
}

}  // namespace

Certification certify_at(
    const CompiledProgram& program,
    const std::function<double(const std::vector<double>&)>& reference,
    const oscs::OperatingPoint& op, const CertificationOptions& options) {
  options.validate();
  op.validate();
  const std::size_t arity = program.arity();

  // The MC grid is the tensor of `grid_points` interior points per axis,
  // enumerated as explicit coordinate tuples (one column per axis) since
  // the engine evaluates tuples, not cross products.
  eng::BatchRequest request;
  request.programs_nd.push_back(program.program());
  request.inputs.assign(arity, {});
  oscs::tensor_for_each(
      axis_values(1, options.grid_points, options.grid_points + 1), arity,
      [&](const std::vector<double>& point) {
        for (std::size_t j = 0; j < arity; ++j) {
          request.inputs[j].push_back(point[j]);
        }
      });
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
  cert.repeats = options.repeats;
  cert.grid_points = options.grid_points;

  // Per-cell error versus the double-precision reference. The cells carry
  // the MC mean and its CI; the MAE CI follows by independence of the
  // per-cell estimates: CI(mean of means) = sqrt(sum ci_i^2) / N.
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

  // Deterministic pipeline error (projection + quantization), sampled on a
  // dense grid - the floor the MC estimate converges to as streams grow.
  // Coarser per axis as arity grows: the tuple count is exponential in it.
  cert.approx_max_error =
      dense_error(program, reference,
                  arity == 1 ? 512 : arity == 2 ? 128 : 24)
          .max;
  return cert;
}

DenseError dense_error(
    const CompiledProgram& program,
    const std::function<double(const std::vector<double>&)>& reference,
    std::size_t samples) {
  if (samples == 0) {
    throw std::invalid_argument("dense_error: zero samples per axis");
  }
  DenseError error;
  std::size_t tuples = 0;
  oscs::tensor_for_each(
      axis_values(0, samples + 1, samples), program.arity(),
      [&](const std::vector<double>& point) {
        const double err =
            std::abs(program.program()(point) - reference(point));
        error.max = std::max(error.max, err);
        error.mean += err;
        ++tuples;
      });
  error.mean /= static_cast<double>(tuples);
  return error;
}

Certification certify(const CompiledProgram& program,
                      const std::function<double(double)>& reference,
                      const CertificationOptions& options) {
  require_arity(program, 1, "certify");
  return certify_at(
      program, [&](const std::vector<double>& p) { return reference(p[0]); },
      design_op(program, options), options);
}

Certification certify2(const CompiledProgram& program,
                       const std::function<double(double, double)>& reference,
                       const CertificationOptions& options) {
  require_arity(program, 2, "certify2");
  return certify_at(
      program,
      [&](const std::vector<double>& p) { return reference(p[0], p[1]); },
      design_op(program, options), options);
}

Certification certify_nd(
    const CompiledProgram& program,
    const std::function<double(const std::vector<double>&)>& reference,
    const CertificationOptions& options) {
  if (!program.is_nd()) {
    throw std::invalid_argument("certify_nd: program '" +
                                program.function_id() +
                                "' is a dense (uni/bivariate) program");
  }
  return certify_at(program, reference, design_op(program, options), options);
}

GridCertification certify_grid(const CompiledProgram& program,
                               const std::function<double(double)>& reference,
                               const GridCertificationOptions& options) {
  options.validate();
  require_arity(program, 1, "certify_grid");
  const auto point_reference = [&](const std::vector<double>& p) {
    return reference(p[0]);
  };

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
      cell.cert = certify_at(program, point_reference, cell.op, cell_options);
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
