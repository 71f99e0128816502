#pragma once
/// \file program.hpp
/// \brief Codegen stage of the function compiler: a CompiledProgram binds
///        the quantized program (any arity) and its fit report to an
///        order-matched optical circuit with a prebuilt packed kernel,
///        ready to run through PackedKernel::run_nd / BatchRunner with no
///        further setup. Programs are immutable once certified and shared
///        by const pointer out of the program cache.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/operating_point.hpp"
#include "engine/packed_sim.hpp"
#include "optsc/circuit.hpp"
#include "stochastic/separable.hpp"

namespace oscs::compile {

/// Cache identity of a compiled program: the function's registry id, the
/// requested degree cap(s) and the SNG resolution, plus a digest of the
/// remaining pipeline options (projection tolerances, certification
/// settings) so a cache hit is only ever served for a request that would
/// compile the identical program. Bivariate programs key on
/// (id, degree, degree_y, width) with `degree` carrying the x-axis cap;
/// N-ary separable programs key on (id, factor degree, width). The
/// explicit `arity` field - and the matching arity salt inside
/// options_digest - keeps programs of different arity from ever colliding
/// even when every degree/width field coincides.
struct ProgramKey {
  std::string function_id;
  std::size_t degree = 6;  ///< requested degree cap (projection max_degree;
                           ///< x-axis / per-factor cap for wider arities)
  std::size_t degree_y = 0;  ///< bivariate y-axis cap; 0 otherwise
  unsigned width = 16;     ///< SNG resolution [bits]
  std::uint64_t options_digest = 0;  ///< hash of the remaining options
  std::size_t arity = 1;   ///< program input count

  bool operator==(const ProgramKey&) const = default;

  /// Portable 64-bit identity: FNV-1a over the key's canonical fixed-width
  /// little-endian byte encoding (arity salt first, then the id
  /// length-prefixed, then degree/degree_y/width/options_digest). Unlike
  /// std::hash this value is identical across processes, standard
  /// libraries and platforms, so it is safe to address on-disk cache
  /// records by it. Pinned by a regression test - changing the encoding
  /// is a cache-file format break.
  [[nodiscard]] std::uint64_t digest() const noexcept;
};

/// Hash for unordered containers keyed by ProgramKey.
struct ProgramKeyHash {
  [[nodiscard]] std::size_t operator()(const ProgramKey& key) const noexcept;
};

/// Empirical accuracy certificate: a BatchRunner Monte-Carlo run of the
/// program compared against the double-precision reference function.
struct Certification {
  /// Link operating point the MC run evaluated at (probe power, BER,
  /// stream length, SNG width) - produced by optsc::LinkBudget. Its
  /// stream_length is the bits per evaluation and noisy() says whether
  /// receiver noise was applied.
  oscs::OperatingPoint op{};
  std::size_t repeats = 0;        ///< MC repeats per grid point
  std::size_t grid_points = 0;    ///< grid points per axis
  double mc_mae = 0.0;     ///< mean over grid of |optical mean - f(x)|
  double mc_mae_ci = 0.0;  ///< 95% CI half-width on mc_mae
  double mc_worst = 0.0;   ///< worst grid point |optical mean - f(x)|
  double electronic_mae = 0.0;  ///< ReSC baseline on the same streams
  /// Deterministic pipeline error |program poly - f| sup estimate
  /// (projection + quantization, no sampling).
  double approx_max_error = 0.0;
};

/// What the projection and quantization stages report about a compiled
/// program, in one form for every arity.
struct FitReport {
  /// Per-axis fit degrees before the circuit-minimum elevation (every
  /// axis of a separable program carries its factor degree).
  std::vector<std::size_t> degrees;
  double max_error = 0.0;  ///< sup-norm estimate of f - fit
  /// L2 norm of f - fit (grid RMS for separable fits).
  double l2_error = 0.0;
  /// How far the unconstrained least-squares optimum leaves [0,1]; 0 for
  /// separable fits, which solve on the box.
  double feasibility_gap = 0.0;
  bool clamped = false;     ///< the [0,1] constraint was binding
  bool target_met = false;  ///< max_error <= the projection target
  /// Separable error trajectory: term_errors[t] is the sup-norm estimate
  /// with t+1 terms. Empty for dense programs.
  std::vector<double> term_errors;
  /// Largest quantization snap |quantized - fitted| over every
  /// coefficient (every factor). The Bernstein basis is a partition of
  /// unity, so this is also the analytic sup-norm bound on the error
  /// quantization induces.
  double max_coeff_delta = 0.0;
};

/// A ready-to-run compiled function.
class CompiledProgram {
 public:
  /// Codegen: build the order-matched circuit (paper reference design) and
  /// the packed kernel for `quantized` - a dense univariate or bivariate
  /// Bernstein program, or a sum-of-rank-1 program whose factors share one
  /// degree. A degree-0 axis is elevated to order 1, value-preserving and
  /// the minimum the circuit supports.
  /// \throws std::invalid_argument if an order exceeds the packed-kernel
  ///         order limit, the program does not run on the kernel
  ///         (PackedKernel::check_program), or `report` does not carry one
  ///         degree per program input.
  CompiledProgram(ProgramKey key, stochastic::SeparableProgram quantized,
                  FitReport report);

  CompiledProgram(const CompiledProgram&) = delete;
  CompiledProgram& operator=(const CompiledProgram&) = delete;

  /// The program the hardware runs, in the one form every arity shares:
  /// the dense univariate or bivariate Bernstein program (elevated to the
  /// circuit minimum when a fit came out degree 0), or the quantized
  /// sum-of-separable program. The kernel's orders() are this program's
  /// per-axis orders.
  [[nodiscard]] const stochastic::SeparableProgram& program() const noexcept {
    return program_;
  }

  /// Program input count: 1 (univariate), 2 (bivariate) or the separable
  /// program's arity.
  [[nodiscard]] std::size_t arity() const noexcept { return program_.arity(); }

  /// True for programs compiled from a two-input function (tensor-product
  /// Bernstein surface).
  [[nodiscard]] bool is_bivariate() const noexcept {
    return program_.has_dense2();
  }

  /// True for N-ary sum-of-separable programs (compile_nd); program_nd()
  /// is only meaningful when this is true.
  [[nodiscard]] bool is_nd() const noexcept {
    return !program_.has_dense1() && !program_.has_dense2();
  }

  [[nodiscard]] const ProgramKey& key() const noexcept { return key_; }
  [[nodiscard]] const std::string& function_id() const noexcept {
    return key_.function_id;
  }
  /// The univariate polynomial the hardware runs (a view of program()).
  /// \throws std::logic_error on a bivariate or N-ary program.
  [[nodiscard]] const stochastic::BernsteinPoly& poly() const {
    return program_.dense1();
  }
  /// The tensor-product surface a bivariate program runs (a view of
  /// program()).
  /// \throws std::logic_error on a univariate or N-ary program.
  [[nodiscard]] const stochastic::BernsteinPoly2& poly2() const {
    return program_.dense2();
  }
  /// The quantized separable program an N-ary program runs (a view of
  /// program()).
  /// \throws std::logic_error on a dense (uni/bivariate) program.
  [[nodiscard]] const stochastic::SeparableProgram& program_nd() const;

  /// First-axis circuit order (the factor order of an N-ary program).
  [[nodiscard]] std::size_t circuit_order() const noexcept {
    return kernel_->orders().front();
  }
  /// Bivariate y-axis circuit order (0 for one-axis programs).
  [[nodiscard]] std::size_t circuit_order_y() const noexcept {
    return kernel_->orders().size() > 1 ? kernel_->orders()[1] : 0;
  }
  /// True when a degree-0 fit on some axis was elevated to meet the
  /// order-1 circuit minimum.
  [[nodiscard]] bool elevated() const noexcept {
    return std::find(report_.degrees.begin(), report_.degrees.end(),
                     std::size_t{0}) != report_.degrees.end();
  }
  /// Projection and quantization outcome.
  [[nodiscard]] const FitReport& report() const noexcept { return report_; }
  [[nodiscard]] const optsc::OpticalScCircuit& circuit() const noexcept {
    return *circuit_;
  }
  /// Prebuilt kernel; shared so BatchRunner can reuse it without
  /// re-deriving the decision LUT.
  [[nodiscard]] const std::shared_ptr<const engine::PackedKernel>& kernel()
      const noexcept {
    return kernel_;
  }
  /// The program's design operating point: the circuit's built-in probe
  /// power mapped through the link budget (physical eye), with the
  /// program's SNG width. Certification and serving default to this.
  [[nodiscard]] const oscs::OperatingPoint& design_point() const noexcept {
    return design_point_;
  }

  [[nodiscard]] const std::optional<Certification>& certification()
      const noexcept {
    return cert_;
  }
  /// The program's certified error budget: mc_mae + mc_mae_ci, i.e. the
  /// upper edge of the certificate's 95% confidence band. This is the
  /// number the serving layer's accuracy SLOs compare live observed error
  /// against; nullopt when the program was compiled without certification.
  [[nodiscard]] std::optional<double> certified_error_budget() const noexcept {
    if (!cert_.has_value()) return std::nullopt;
    return cert_->mc_mae + cert_->mc_mae_ci;
  }
  /// Attach the MC certificate (compiler-internal, before the program is
  /// shared out of the cache).
  void attach_certification(Certification cert) { cert_ = cert; }

  /// One evaluation at `point` (one coordinate per input) through the
  /// packed kernel.
  /// \throws std::invalid_argument on a point arity mismatch.
  [[nodiscard]] engine::PackedRunResult run(
      const std::vector<double>& point,
      const engine::PackedRunConfig& config) const {
    return kernel_->run_nd(program_, point, config);
  }

 private:
  ProgramKey key_;
  FitReport report_;
  stochastic::SeparableProgram program_;  ///< the run form (see program())
  std::shared_ptr<optsc::OpticalScCircuit> circuit_;  ///< kernel points here
  std::shared_ptr<const engine::PackedKernel> kernel_;
  oscs::OperatingPoint design_point_{};
  std::optional<Certification> cert_;
};

}  // namespace oscs::compile
