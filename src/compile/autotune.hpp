#pragma once
/// \file autotune.hpp
/// \brief Degree/width/length auto-tuning: close the certification loop by
///        walking candidate (degree cap, SNG width, stream length)
///        configurations in cost order and returning the cheapest one
///        whose certified MC MAE (plus its CI half-width) meets a user
///        accuracy budget (ROADMAP "degree/width auto-tuning").
///
/// One walk serves every arity; the registry resolves each candidate's
/// compile step.
/// The cost model is a bit-operations proxy: stream_length *
/// (degree + 1)^arity * width - stream bits dominate latency/energy, the
/// coefficient channels of every input bank and the SNG resolution scale
/// the hardware. Candidates whose deterministic approximation floor
/// (dense-grid mean |program - f|, 512 samples per axis for one input, 64
/// for more) already exceeds the budget are rejected without spending
/// Monte-Carlo on any stream length.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/operating_point.hpp"
#include "compile/certify.hpp"
#include "compile/program.hpp"

namespace oscs::compile {

/// Candidate grid and certification controls for one auto-tune run.
struct AutoTuneOptions {
  std::vector<std::size_t> degrees{2, 3, 4, 5, 6};
  std::vector<unsigned> widths{8, 16};
  std::vector<std::size_t> stream_lengths{256, 1024, 4096, 16384};
  std::size_t repeats = 8;
  std::size_t grid_points = 9;
  std::uint64_t seed = 0xA070;
  stochastic::SourceKind source_kind = stochastic::SourceKind::kLfsr;
  std::size_t threads = 0;

  /// \throws std::invalid_argument on an empty candidate dimension or a
  ///         zero repeats/grid size.
  void validate() const;
};

/// One evaluated configuration, in the order the tuner visited it.
struct AutoTuneCandidate {
  std::size_t degree = 0;         ///< degree cap requested
  unsigned width = 16;            ///< SNG resolution [bits]
  std::size_t stream_length = 0;  ///< bits per evaluation
  double cost = 0.0;  ///< stream_length * (degree+1)^arity * width
  double mc_mae = 0.0;            ///< certified MAE (0 when floor-rejected)
  double mc_mae_ci = 0.0;
  double approx_floor = 0.0;  ///< dense-grid mean |program - f|
  bool floor_rejected = false;  ///< skipped without MC: floor > budget
  bool met = false;             ///< mc_mae + mc_mae_ci <= budget
};

/// Auto-tune outcome: the cheapest configuration meeting the budget (when
/// `met`), its program and operating point, plus the full visit trace.
struct AutoTuneResult {
  bool met = false;
  double accuracy_budget = 0.0;
  std::shared_ptr<const CompiledProgram> program;  ///< chosen (or best) fit
  oscs::OperatingPoint op{};  ///< chosen operating point (design probe)
  AutoTuneCandidate chosen{};
  std::vector<AutoTuneCandidate> trace;  ///< every candidate visited
};

/// Tune registry function `registry_id` (any catalogue): walk (degree,
/// width, stream length) candidates in increasing cost and return the
/// first - hence cheapest - configuration whose certified
/// mc_mae + mc_mae_ci <= accuracy_budget. A degree candidate caps every
/// axis, as a request "degree" does (max_degree, both per-axis caps of a
/// bivariate fit, an N-ary factor degree); certification runs on the
/// grid_points^arity MC grid. When no candidate meets the budget, `met`
/// is false and `chosen`/`program` hold the best (lowest-MAE)
/// configuration seen. Deterministic for a fixed seed.
/// \throws std::invalid_argument on an unknown id, invalid options (a
///         degree candidate of 0 included for an N-ary entry, whose
///         factors need degree >= 1) or a non-positive budget.
[[nodiscard]] AutoTuneResult auto_tune(const std::string& registry_id,
                                       double accuracy_budget,
                                       const AutoTuneOptions& options = {});

}  // namespace oscs::compile
