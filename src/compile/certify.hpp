#pragma once
/// \file certify.hpp
/// \brief Certification stage of the function compiler: run a compiled
///        program through the BatchRunner Monte-Carlo engine and measure
///        its empirical accuracy against the double-precision reference
///        function - an MAE with a 95% confidence interval over a grid of
///        interior points, plus the deterministic approximation-error
///        component.
///
/// One core serves every arity: certify_at() certifies program() at an
/// explicit `oscs::OperatingPoint` against a point reference
/// (double(const std::vector<double>&)), over the tensor grid of
/// options.grid_points interior points per axis. Everything else adapts
/// onto it:
///   * certify() / certify2() / certify_nd() - at the program's design
///     operating point, each wrapping its arity's reference shape;
///   * certify_grid() - a univariate MAE/CI surface across a grid of probe
///     powers and stream lengths (the link budget maps each probe power
///     to its BER; ROADMAP "noise-aware certification").

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/operating_point.hpp"
#include "compile/program.hpp"
#include "stochastic/sng.hpp"

namespace oscs::compile {

/// Controls for the Monte-Carlo certification run.
struct CertificationOptions {
  std::size_t stream_length = 4096;  ///< bits per evaluation
  std::size_t repeats = 16;          ///< MC repeats per grid point
  std::size_t grid_points = 9;       ///< interior x grid: i/(grid_points+1)
  std::uint64_t seed = 0xCE47;       ///< master seed (deterministic result)
  stochastic::SourceKind source_kind = stochastic::SourceKind::kLfsr;
  bool noise_enabled = true;  ///< apply the link-budget BER noise model
  std::size_t threads = 0;    ///< BatchRunner workers (0 = hardware)

  /// \throws std::invalid_argument on a zero dimension.
  void validate() const;
};

/// The certification core: certify `program` against `reference` at an
/// explicit operating point (BER, stream length and SNG width all come
/// from `op`; options.stream_length / noise_enabled are ignored). The MC
/// grid is the tensor of options.grid_points interior points
/// i/(grid_points+1) per axis - grid_points^arity coordinate tuples, the
/// last axis varying fastest - run as one BatchRunner request over
/// program(). The dense approximation-error sweep samples every axis on
/// [0, 1] at 512 (arity 1), 128 (arity 2) or 24 (wider) steps.
/// Deterministic for a fixed seed and any thread count, per the
/// BatchRunner contract.
/// \throws std::invalid_argument on invalid options or operating point.
[[nodiscard]] Certification certify_at(
    const CompiledProgram& program,
    const std::function<double(const std::vector<double>&)>& reference,
    const oscs::OperatingPoint& op, const CertificationOptions& options = {});

/// Deterministic approximation error (projection + quantization, no
/// sampling) of program() against `reference`.
struct DenseError {
  double max = 0.0;   ///< sup estimate of |program - reference|
  double mean = 0.0;  ///< mean of |program - reference|
};

/// |program() - reference| over the dense tensor grid of samples + 1
/// evenly spaced points s/samples per axis on [0, 1] (last axis fastest).
/// certify_at() reports its `max`; auto_tune() floors candidates on its
/// `mean`.
/// \throws std::invalid_argument on zero samples.
[[nodiscard]] DenseError dense_error(
    const CompiledProgram& program,
    const std::function<double(const std::vector<double>&)>& reference,
    std::size_t samples);

/// Certify a univariate `program` against `reference` at its design
/// operating point, with options.stream_length and options.noise_enabled
/// applied on top.
/// \throws std::invalid_argument on invalid options or a program of
///         another arity.
[[nodiscard]] Certification certify(
    const CompiledProgram& program,
    const std::function<double(double)>& reference,
    const CertificationOptions& options = {});

/// Certify a bivariate `program` against its two-input reference at its
/// design operating point (grid_points^2 (x, y) cells).
/// \throws std::invalid_argument on invalid options or a program of
///         another arity.
[[nodiscard]] Certification certify2(
    const CompiledProgram& program,
    const std::function<double(double, double)>& reference,
    const CertificationOptions& options = {});

/// Certify an N-ary separable `program` against its reference at its
/// design operating point (grid_points^arity coordinate tuples).
/// \throws std::invalid_argument on invalid options or a dense
///         (uni/bivariate) program.
[[nodiscard]] Certification certify_nd(
    const CompiledProgram& program,
    const std::function<double(const std::vector<double>&)>& reference,
    const CertificationOptions& options = {});

/// Controls for the operating-point grid sweep.
struct GridCertificationOptions {
  /// Explicit per-channel probe powers [mW]. When empty, `probe_scales`
  /// times the program's design probe power are used instead.
  std::vector<double> probe_powers_mw{};
  std::vector<double> probe_scales{0.5, 1.0, 2.0};
  std::vector<std::size_t> stream_lengths{4096};
  std::size_t repeats = 8;
  std::size_t grid_points = 9;
  std::uint64_t seed = 0xCE47;
  stochastic::SourceKind source_kind = stochastic::SourceKind::kLfsr;
  std::size_t threads = 0;

  /// \throws std::invalid_argument on an empty probe/length grid, a
  ///         non-positive probe power or scale, or a zero dimension.
  void validate() const;
};

/// One grid entry: the operating point (carrying the link-budget BER at
/// that probe power) and the certification measured there.
struct GridCell {
  oscs::OperatingPoint op{};
  Certification cert{};
};

/// MAE/CI surface over (probe power x stream length).
struct GridCertification {
  std::string function_id;
  std::vector<GridCell> cells;  ///< probe-major, then stream length
  std::size_t best_cell = 0;    ///< index of the lowest-MAE cell
  std::size_t worst_cell = 0;   ///< index of the highest-MAE cell

  [[nodiscard]] double best_mc_mae() const {
    return cells.empty() ? 0.0 : cells[best_cell].cert.mc_mae;
  }
  [[nodiscard]] double worst_mc_mae() const {
    return cells.empty() ? 0.0 : cells[worst_cell].cert.mc_mae;
  }
};

/// Certify `program` across a grid of operating points: every probe power
/// is mapped through the program circuit's link budget (physical eye) to
/// its BER, then certified at every stream length. The common random
/// numbers (one seed for all cells) make adjacent cells directly
/// comparable.
/// \throws std::invalid_argument on invalid options or a program that is
///         not univariate.
[[nodiscard]] GridCertification certify_grid(
    const CompiledProgram& program,
    const std::function<double(double)>& reference,
    const GridCertificationOptions& options = {});

}  // namespace oscs::compile
