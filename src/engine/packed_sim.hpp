#pragma once
/// \file packed_sim.hpp
/// \brief Word-parallel evaluation kernel for the optical SC circuit.
///
/// The legacy TransientSimulator walks the stimulus one bit at a time and
/// re-evaluates the Eq. (6) transmission physics per cycle. But the
/// physics only depends on the *discrete* circuit state: the n+1
/// coefficient bits z and the number of ones k among the n data bits (the
/// identical MZIs make the pump level a function of k alone, Eq. 7). This
/// kernel therefore precomputes the noiseless slicer decision for every
/// reachable state once - 2^(n+1) * (n+1) received-power evaluations - and
/// then evaluates whole streams 64 bits per uint64_t word:
///
///   1. the adder k(t) is computed for all 64 lanes at once with a
///      carry-save bit-plane accumulation over the packed x words,
///   2. per-coefficient select masks (k(t) == k) come out of the planes as
///      bitwise equality tests,
///   3. the ideal MUX output is OR_k(select_k & z_k) - one such pass per
///      input axis for a multi-axis program; the optical decision stream
///      is assembled from the decision LUT (and when the LUT *is* the
///      ideal MUX - an open eye at the operating point - the MUX word is
///      reused directly),
///   4. receiver noise is applied as sparse decision flips at the BER the
///      caller's `oscs::OperatingPoint` carries (geometric gap sampling),
///      instead of drawing one Gaussian per bit.
///
/// The kernel holds NO noise model of its own: the flip probability always
/// arrives inside the operating point, which `optsc::LinkBudget` (the one
/// place that owns the physics-to-BER mapping) produced. The fused mode
/// evaluates K programs on one shared stimulus with one flip-mask pass.
/// Every arity runs the same dense MUX core; a general N-ary program runs
/// its rank-1 factors through it one at a time (see run_nd).

#include <cstdint>
#include <span>
#include <vector>

#include "common/operating_point.hpp"
#include "common/rng.hpp"
#include "optsc/circuit.hpp"
#include "stochastic/bernstein.hpp"
#include "stochastic/bitstream.hpp"
#include "stochastic/resc.hpp"
#include "stochastic/separable.hpp"

namespace oscs::engine {

/// Per-evaluation controls. The operating point carries everything the
/// physics decided (BER, stream length, SNG resolution); the seeds and
/// source flavour are the evaluation's own randomness plumbing.
struct PackedRunConfig {
  /// Link operating point; obtain from optsc::LinkBudget::operating_point
  /// or optsc::design_operating_point. The default is a noiseless
  /// 1024-bit / 16-bit-SNG point for kernel-only experiments.
  oscs::OperatingPoint op{};
  stochastic::SourceKind source_kind = stochastic::SourceKind::kLfsr;
  std::uint64_t stimulus_seed = 1;    ///< SNG stream seed
  std::uint64_t noise_seed = 0x5EED;  ///< flip-mask RNG seed
};

/// Raw outcome of one packed evaluation.
struct PackedRunResult {
  double optical_estimate = 0.0;     ///< decoded from the optical stream
  double electronic_estimate = 0.0;  ///< ReSC baseline on the same streams
  std::size_t transmission_flips = 0;  ///< bits where the (noisy) optical
                                       ///< decision differs from the ideal
                                       ///< MUX output
  std::size_t noise_flips = 0;  ///< flips injected by the noise model
  std::size_t length = 0;
};

/// Sample the positions of independent per-bit decision flips with
/// probability `flip_p` over a stream of `length` bits, by geometric gap
/// sampling: cost scales with the number of flips (~flip_p * length), not
/// the stream length. Returns strictly increasing positions.
[[nodiscard]] std::vector<std::size_t> sample_flip_positions(
    std::size_t length, double flip_p, oscs::Xoshiro256& rng);

/// Toggle the given bit positions in `stream`.
void flip_positions(stochastic::Bitstream& stream,
                    const std::vector<std::size_t>& positions);

/// Flip each bit independently with probability `flip_p` (one sample +
/// apply pass). Returns the number of flips applied.
std::size_t apply_noise_flips(stochastic::Bitstream& stream, double flip_p,
                              oscs::Xoshiro256& rng);

/// Per-axis select ranges of a dense program: {degree} for the univariate
/// form, {deg_x, deg_y} for the tensor-product form, empty for a general
/// sum-of-rank-1 program.
[[nodiscard]] std::vector<std::size_t> dense_orders(
    const stochastic::SeparableProgram& program);

/// Word-parallel evaluation kernel: one dense tensor-product ReSC MUX over
/// one or more input axes. Axis a owns an adder over orders()[a] data
/// streams; the per-axis adder values select one of the
/// prod_a (orders()[a] + 1) coefficient streams (row-major, last axis
/// fastest). The multi-axis select is nested one-axis MUX passes, innermost
/// axis first - OR_i (s_x,i & OR_j (s_y,j & z_ij)) equals
/// OR_ij (s_x,i & s_y,j & z_ij) exactly - so every arity runs the same
/// word-parallel core. Construction snapshots the eye geometry the hot loop
/// needs (decision LUT, slicer threshold); evaluation is const and safe to
/// share across threads.
class PackedKernel {
 public:
  /// Highest per-axis order the kernel supports: the one-axis LUT has
  /// 2^(order+1) coefficient patterns, each evaluated through the O(n^2)
  /// Eq. (6) physics, so the build cost doubles per order step.
  static constexpr std::size_t kMaxOrder = 12;

  /// Kernel over the per-axis select ranges `orders` (empty: the circuit's
  /// own univariate order). The circuit supplies the eye geometry (slicer
  /// threshold). A one-axis kernel also snapshots the Eq. (6) decision LUT,
  /// so it runs at the circuit's order. A multi-axis kernel uses the ideal
  /// MUX (the per-state physics table would be 2^(prod(n_a+1)) entries), so
  /// its optical decision model is mux-exact by construction; its orders
  /// may be 0 (that input bank degenerates). Receiver noise arrives either
  /// way as Eq. 9 flip masks from the caller's `oscs::OperatingPoint`.
  /// \throws std::invalid_argument if an order exceeds kMaxOrder or a
  ///         one-axis order differs from circuit.order().
  explicit PackedKernel(const optsc::OpticalScCircuit& circuit,
                        std::vector<std::size_t> orders = {});

  /// Per-axis select ranges (adder over orders()[a] data streams).
  [[nodiscard]] const std::vector<std::size_t>& orders() const noexcept {
    return orders_;
  }
  /// First-axis order; the circuit order of a one-axis kernel.
  [[nodiscard]] std::size_t order() const noexcept { return orders_.front(); }
  /// Mid-eye decision threshold [mW], physical-eye semantics (identical to
  /// the legacy TransientSimulator placement).
  [[nodiscard]] double threshold_mw() const noexcept { return threshold_mw_; }
  /// True when every noiseless decision equals the ideal MUX output (the
  /// eye is open in every reachable state), enabling the fast path.
  [[nodiscard]] bool mux_exact() const noexcept { return mux_exact_; }

  /// Noiseless decision of a one-axis kernel for coefficient pattern
  /// `z_pattern` (bit j = z_j) and adder value `ones`.
  [[nodiscard]] bool decision(std::uint32_t z_pattern, std::size_t ones) const;
  /// Received power [mW] in the same state, recomputed from the circuit
  /// snapshot (diagnostics/tests; not on the hot path).
  [[nodiscard]] double received_power_mw(std::uint32_t z_pattern,
                                         std::size_t ones) const;

  /// Noiseless word-parallel pass over shared stimulus.
  struct Streams {
    stochastic::Bitstream optical;     ///< slicer decisions
    stochastic::Bitstream electronic;  ///< ideal MUX output (ReSC baseline)
  };

  /// Fused noiseless pass: every program of `inputs` on its shared data
  /// banks (inputs.axes[a] holds axis a's orders()[a] data streams). The
  /// adder bit-planes and select masks are computed once per axis per word
  /// block and reused by every program. Returns one Streams per program;
  /// each electronic stream is bit-identical to
  /// stochastic::ReSCUnit::output_stream on the same stimulus, at any
  /// arity.
  /// \throws std::invalid_argument on stimulus shape mismatch
  ///         (ScInputs::check_shape).
  [[nodiscard]] std::vector<Streams> evaluate(
      const stochastic::ScInputs& inputs) const;

  /// \throws std::invalid_argument unless `program` runs on this kernel: a
  ///         dense program whose per-axis degrees equal orders(), or a
  ///         sum-of-rank-1 program whose factor degrees all equal the order
  ///         of a one-axis kernel.
  void check_program(const stochastic::SeparableProgram& program) const;

  /// Fused dense evaluation: K dense programs (see dense_orders) share one
  /// SNG stimulus (data streams generated once per axis) and one flip-mask
  /// pass (positions sampled once at config.op.ber, applied to every
  /// program's decision stream). A one-program fused run is exactly the
  /// dense path of run_nd().
  /// \throws std::invalid_argument on an empty program list, a program
  ///         check_program() rejects or that is not dense, a point arity
  ///         mismatch or an invalid operating point.
  [[nodiscard]] std::vector<PackedRunResult> run_fused(
      std::span<const stochastic::SeparableProgram> programs,
      const std::vector<double>& point, const PackedRunConfig& config) const;

  /// The one entry point: evaluate a program at a point of
  /// point.size() == program.arity() coordinates.
  ///
  /// A dense program runs as a one-program run_fused(). A general
  /// sum-of-rank-1 program runs each factor as one dense pass on this
  /// (one-axis) kernel - the factor's coefficients are its SNG
  /// probabilities - ANDs the independent factor streams of every term
  /// (stochastic multiply), and folds the weighted term estimates
  /// arithmetically:
  ///
  ///   estimate = sum_t w_t * popcount(AND_j stream_{t,j}) / length.
  ///
  /// Per-factor receiver noise: each factor stream gets its own Eq. 9
  /// flip mask at config.op.ber (seeds decorrelated per factor from
  /// config.noise_seed); noise_flips totals the injected flips and
  /// transmission_flips counts, per term, the bits where the noisy
  /// optical product differs from the ideal electronic product.
  /// \throws std::invalid_argument on a point arity mismatch, a program
  ///         check_program() rejects, or an invalid operating point.
  [[nodiscard]] PackedRunResult run_nd(
      const stochastic::SeparableProgram& program,
      const std::vector<double>& point, const PackedRunConfig& config) const;

 private:
  const optsc::OpticalScCircuit* circuit_;
  std::vector<std::size_t> orders_;  ///< per-axis select ranges
  double threshold_mw_ = 0.0;
  bool mux_exact_ = true;
  /// One-axis kernels: decisions_[p] bit k = noiseless decision for
  /// pattern p, adder k (empty for multi-axis kernels).
  std::vector<std::uint32_t> decisions_;
};

}  // namespace oscs::engine
