#include "compile/autotune.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "compile/registry.hpp"

namespace oscs::compile {

void AutoTuneOptions::validate() const {
  if (degrees.empty() || widths.empty() || stream_lengths.empty()) {
    throw std::invalid_argument("AutoTuneOptions: empty candidate dimension");
  }
  for (unsigned w : widths) {
    if (w == 0 || w > 62) {
      throw std::invalid_argument("AutoTuneOptions: width out of [1, 62]");
    }
  }
  for (std::size_t len : stream_lengths) {
    if (len == 0) {
      throw std::invalid_argument("AutoTuneOptions: zero stream length");
    }
  }
  if (repeats == 0 || grid_points == 0) {
    throw std::invalid_argument("AutoTuneOptions: zero repeats/grid points");
  }
}

AutoTuneResult auto_tune(const std::string& registry_id,
                         double accuracy_budget,
                         const AutoTuneOptions& options) {
  const std::optional<RegistryProgram> registered =
      registry_program(registry_id, CompileOptions{});
  if (!registered) {
    throw std::invalid_argument("auto_tune: unknown registry function '" +
                                registry_id + "'");
  }
  const std::size_t arity = registered->arity();
  const auto& f = registered->reference;
  if (!(accuracy_budget > 0.0)) {
    throw std::invalid_argument("auto_tune: accuracy budget must be > 0");
  }
  options.validate();

  struct Candidate {
    std::size_t degree;
    unsigned width;
    std::size_t stream_length;
    double cost;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(options.degrees.size() * options.widths.size() *
                     options.stream_lengths.size());
  for (std::size_t degree : options.degrees) {
    for (unsigned width : options.widths) {
      for (std::size_t length : options.stream_lengths) {
        // Every input bank carries degree+1 coefficient channels.
        double cost = static_cast<double>(length);
        for (std::size_t axis = 0; axis < arity; ++axis) {
          cost *= static_cast<double>(degree + 1);
        }
        cost *= static_cast<double>(width);
        candidates.push_back({degree, width, length, cost});
      }
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.cost != b.cost) return a.cost < b.cost;
                     if (a.stream_length != b.stream_length) {
                       return a.stream_length < b.stream_length;
                     }
                     if (a.degree != b.degree) return a.degree < b.degree;
                     return a.width < b.width;
                   });

  CertificationOptions cert_options;
  cert_options.repeats = options.repeats;
  cert_options.grid_points = options.grid_points;
  cert_options.seed = options.seed;
  cert_options.source_kind = options.source_kind;
  cert_options.threads = options.threads;

  // One compile per (degree cap, width); every stream length reuses it.
  struct Fit {
    std::shared_ptr<const CompiledProgram> program;
    double floor = 0.0;
  };
  std::map<std::pair<std::size_t, unsigned>, Fit> fits;

  AutoTuneResult result;
  result.accuracy_budget = accuracy_budget;
  double best_score = std::numeric_limits<double>::infinity();

  for (const Candidate& cand : candidates) {
    Fit& fit = fits[{cand.degree, cand.width}];
    if (!fit.program) {
      // The candidate degree caps every axis (the request-degree rule)
      // and may reach down to a constant fit; the tuner certifies at its
      // own lengths.
      CompileOptions base;
      base.projection.min_degree = std::min<std::size_t>(1, cand.degree);
      base.projection2.min_degree_x = base.projection.min_degree;
      base.projection2.min_degree_y = base.projection.min_degree;
      base.sng_width = cand.width;
      base.certify = false;
      fit.program = registry_program(registry_id, base, cand.degree)->build();
      // The deterministic floor the MC MAE converges to as streams grow
      // (mean, not sup, to match the MAE metric).
      fit.floor = dense_error(*fit.program, f, arity == 1 ? 512 : 64).mean;
    }

    AutoTuneCandidate visited;
    visited.degree = cand.degree;
    visited.width = cand.width;
    visited.stream_length = cand.stream_length;
    visited.cost = cand.cost;
    visited.approx_floor = fit.floor;

    double score = std::numeric_limits<double>::infinity();
    const oscs::OperatingPoint op =
        fit.program->design_point().with_stream_length(cand.stream_length);
    if (fit.floor > accuracy_budget) {
      // No stream length can undo the projection/quantization bias.
      visited.floor_rejected = true;
    } else {
      const Certification cert =
          certify_at(*fit.program, f, op, cert_options);
      visited.mc_mae = cert.mc_mae;
      visited.mc_mae_ci = cert.mc_mae_ci;
      visited.met = cert.mc_mae + cert.mc_mae_ci <= accuracy_budget;
      score = cert.mc_mae;
    }
    result.trace.push_back(visited);

    const bool better = result.program == nullptr || score < best_score;
    if (better) {
      best_score = score;
      result.program = fit.program;
      result.op = op;
      result.chosen = visited;
    }
    if (visited.met) {
      // Candidates are cost-sorted: the first hit is the cheapest.
      result.met = true;
      result.program = fit.program;
      result.op = op;
      result.chosen = visited;
      break;
    }
  }
  return result;
}

}  // namespace oscs::compile
