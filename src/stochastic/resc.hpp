#pragma once
/// \file resc.hpp
/// \brief The electronic ReSC unit of Qian et al. (paper Fig. 1) - the
///        baseline architecture the optical circuit transposes. n SNGs
///        encode the input x, n+1 SNGs encode the Bernstein coefficients,
///        an adder counts the ones among the x bits and selects one
///        coefficient stream through a MUX; a counter de-randomizes. A
///        multi-input unit is the same MUX with one adder per input.

#include <cstdint>
#include <vector>

#include "stochastic/bernstein.hpp"
#include "stochastic/bitstream.hpp"
#include "stochastic/sng.hpp"

namespace oscs::stochastic {

/// The per-cycle stimulus shared by the electronic baseline, the optical
/// simulator and the packed engine, for any number of input axes and any
/// number of programs fused onto one circuit. Axis a carries orders[a]
/// independent encodings of input a (its adder's inputs); each program
/// carries prod_a (orders[a] + 1) coefficient streams in row-major order
/// (last axis fastest: stream i*(m+1)+j is c_{i,j} on two axes). The data
/// banks are shared by every program. Any order may be zero (that adder
/// has no inputs and always selects index 0).
struct ScInputs {
  std::vector<std::vector<Bitstream>> axes;      ///< axes[a]: data streams
  std::vector<std::vector<Bitstream>> programs;  ///< programs[k]: grid

  /// Stream length: the first non-empty data bank's, else the first
  /// coefficient stream's (0 for an empty stimulus).
  [[nodiscard]] std::size_t length() const noexcept;
  /// Ones among axis `axis`'s data bits at cycle t - that axis's adder
  /// output, which selects its coefficient index.
  [[nodiscard]] std::size_t select(std::size_t axis, std::size_t t) const;
  /// Validate the stimulus for a MUX over per-axis select ranges `orders`:
  /// one data bank per axis with orders[a] streams, at least one program,
  /// each with prod_a (orders[a] + 1) coefficient streams, every stream of
  /// one length. Returns that length.
  /// \throws std::invalid_argument on a shape or length mismatch.
  std::size_t check_shape(const std::vector<std::size_t>& orders) const;
};

/// Configuration for stimulus generation.
struct ScInputConfig {
  SourceKind kind = SourceKind::kLfsr;
  unsigned width = 16;        ///< SNG resolution in bits
  std::uint64_t seed = 1;     ///< base seed; streams are decorrelated per-index
};

/// Generate the stimulus for evaluating one or more Bernstein programs of
/// per-axis orders `orders` at `point` (one coordinate per axis).
/// `coeffs_per_program[k]` is program k's row-major coefficient grid. Every
/// stream draws its own source salt, in sequence from config.seed*2+1:
/// each data bank in axis order, then each program's grid. So program 0 of
/// a fused call is bit-identical to a one-program call, and later programs
/// draw fresh decorrelated salts.
/// \throws std::invalid_argument if point.size() != orders.size(), no
///         program is given, or a grid has the wrong coefficient count.
[[nodiscard]] ScInputs make_sc_inputs(
    const std::vector<double>& point,
    const std::vector<std::vector<double>>& coeffs_per_program,
    const std::vector<std::size_t>& orders, std::size_t length,
    const ScInputConfig& config = {});

/// Electronic ReSC evaluation unit: one adder per input axis counts the
/// ones among that axis's data bits, and the MUX routes the coefficient
/// stream the adder values index to the output.
/// E[out] = sum_g c_g prod_a B_{i_a, n_a}(x_a).
class ReSCUnit {
 public:
  /// One-input unit over a univariate Bernstein polynomial.
  /// \throws std::invalid_argument unless every coefficient lies in [0, 1]
  ///         up to a small tolerance (SC-compatible).
  explicit ReSCUnit(const BernsteinPoly& poly);
  /// Two-input (tensor-product) unit.
  /// \throws std::invalid_argument as above.
  explicit ReSCUnit(const BernsteinPoly2& poly);

  /// Per-axis adder widths (select ranges).
  [[nodiscard]] const std::vector<std::size_t>& orders() const noexcept {
    return orders_;
  }
  /// Row-major coefficient grid (the MUX data inputs' probabilities).
  [[nodiscard]] const std::vector<double>& coeffs() const noexcept {
    return coeffs_;
  }

  /// The raw output stream of program `program` of the stimulus:
  /// out[t] = z_{i_0(t), ..., i_{N-1}(t)}[t] with i_a(t) axis a's adder
  /// value.
  /// \throws std::invalid_argument on stimulus shape mismatch,
  ///         std::out_of_range on a bad program index.
  [[nodiscard]] Bitstream output_stream(const ScInputs& inputs,
                                        std::size_t program = 0) const;

  /// De-randomized estimate: fraction of ones in the output stream.
  [[nodiscard]] double evaluate(const ScInputs& inputs) const;

  /// Convenience: generate stimulus internally and evaluate at `point`.
  [[nodiscard]] double evaluate(const std::vector<double>& point,
                                std::size_t length,
                                const ScInputConfig& config = {}) const;

  /// Exact expected output for ideal (independent, exact-probability)
  /// streams - algebraically the Bernstein value itself.
  [[nodiscard]] double exact_expectation(
      const std::vector<double>& point) const;

 private:
  ReSCUnit(std::vector<std::size_t> orders, std::vector<double> coeffs);

  std::vector<std::size_t> orders_;
  std::vector<double> coeffs_;
};

}  // namespace oscs::stochastic
