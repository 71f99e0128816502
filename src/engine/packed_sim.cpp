#include "engine/packed_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/simd_kernel.hpp"
#include "optsc/link_budget.hpp"
#include "stochastic/wordops.hpp"

namespace oscs::engine {

namespace sc = oscs::stochastic;

namespace {

/// Words per packed-evaluation block. The plane-major scratch buffers stay
/// small enough to live in L1/L2 (a full select set at kMaxOrder is
/// 13 * 256 * 8 B = 26 KiB) while giving the SIMD primitives contiguous
/// runs long enough to amortize dispatch.
constexpr std::size_t kBlockWords = 256;

std::vector<const std::uint64_t*> word_pointers(
    const std::vector<sc::Bitstream>& streams) {
  std::vector<const std::uint64_t*> ptrs;
  ptrs.reserve(streams.size());
  for (const sc::Bitstream& s : streams) ptrs.push_back(s.words_data());
  return ptrs;
}

/// One sampled receiver flip pattern as packed words.
struct FlipMask {
  std::vector<std::uint64_t> words;  ///< empty when no flip was sampled
  std::size_t flips = 0;
};

/// Decision flips at op.ber over op.stream_length bits, sampled from
/// `noise_seed`. Positions are distinct, so XORing the mask equals a
/// per-bit toggle; padding bits stay zero because positions lie below the
/// stream length.
FlipMask sample_flip_mask(const oscs::OperatingPoint& op,
                          std::uint64_t noise_seed) {
  FlipMask mask;
  if (!op.noisy()) return mask;
  oscs::Xoshiro256 rng(noise_seed);
  const std::vector<std::size_t> positions =
      sample_flip_positions(op.stream_length, op.ber, rng);
  mask.flips = positions.size();
  if (positions.empty()) return mask;
  mask.words.assign((op.stream_length + 63) / 64, 0);
  for (std::size_t pos : positions) {
    mask.words[pos / 64] |= std::uint64_t{1} << (pos % 64);
  }
  return mask;
}

std::vector<bool> pattern_bits(std::uint32_t pattern, std::size_t count) {
  std::vector<bool> bits(count, false);
  for (std::size_t j = 0; j < count; ++j) bits[j] = (pattern >> j) & 1u;
  return bits;
}

std::vector<bool> ones_prefix(std::size_t ones, std::size_t count) {
  std::vector<bool> bits(count, false);
  for (std::size_t j = 0; j < ones; ++j) bits[j] = true;
  return bits;
}

}  // namespace

std::vector<std::size_t> sample_flip_positions(std::size_t length,
                                               double flip_p,
                                               oscs::Xoshiro256& rng) {
  std::vector<std::size_t> positions;
  if (flip_p <= 0.0 || length == 0) return positions;
  // Geometric gap sampling: the index of the next flipped bit advances by
  // 1 + Geometric(p), so the cost scales with the number of flips (~p * N)
  // rather than the stream length.
  const double log_keep = std::log1p(-flip_p);
  std::size_t pos = 0;
  for (;;) {
    const double u = rng.uniform01();
    const double gap = std::floor(std::log1p(-u) / log_keep);
    if (gap >= static_cast<double>(length - pos)) break;
    pos += static_cast<std::size_t>(gap);
    positions.push_back(pos);
    ++pos;
    if (pos >= length) break;
  }
  return positions;
}

void flip_positions(sc::Bitstream& stream,
                    const std::vector<std::size_t>& positions) {
  for (std::size_t pos : positions) stream.set_bit(pos, !stream.bit(pos));
}

std::size_t apply_noise_flips(sc::Bitstream& stream, double flip_p,
                              oscs::Xoshiro256& rng) {
  const std::vector<std::size_t> positions =
      sample_flip_positions(stream.size(), flip_p, rng);
  flip_positions(stream, positions);
  return positions.size();
}

std::vector<std::size_t> dense_orders(const sc::SeparableProgram& program) {
  if (!program.has_dense1() && !program.has_dense2()) return {};
  return program.orders();
}

PackedKernel::PackedKernel(const optsc::OpticalScCircuit& circuit,
                           std::vector<std::size_t> orders)
    : circuit_(&circuit), orders_(std::move(orders)) {
  if (orders_.empty()) orders_ = {circuit.order()};
  for (std::size_t order : orders_) {
    if (order > kMaxOrder) {
      throw std::invalid_argument(
          "PackedKernel: order " + std::to_string(order) +
          " exceeds the LUT limit " + std::to_string(kMaxOrder));
    }
  }
  if (orders_.size() == 1 && orders_.front() != circuit.order()) {
    throw std::invalid_argument(
        "PackedKernel: one-axis order " + std::to_string(orders_.front()) +
        " does not match the circuit order " +
        std::to_string(circuit.order()));
  }

  // Eye geometry only: the slicer threshold sits mid-eye, and since every
  // transmission scales linearly with probe power the decision LUT below
  // is invariant to the operating point. The noise model (BER) is NOT
  // derived here - it arrives per run inside oscs::OperatingPoint.
  const optsc::LinkBudget budget(circuit, optsc::EyeModel::kPhysical);
  const optsc::EyeAnalysis eye =
      budget.analyze(circuit.params().lasers.probe_power_mw);
  threshold_mw_ = eye.threshold_mw;
  if (orders_.size() > 1) return;  // ideal multi-axis MUX: mux-exact

  const std::size_t n = orders_.front();
  // Decision LUT: one noiseless slicer decision per reachable circuit
  // state. The received power is evaluated through the very same
  // OpticalScCircuit entry point the per-bit simulator uses, so the packed
  // path is decision-for-decision identical with noise disabled.
  const std::size_t patterns = std::size_t{1} << (n + 1);
  decisions_.assign(patterns, 0);
  for (std::size_t p = 0; p < patterns; ++p) {
    for (std::size_t k = 0; k <= n; ++k) {
      const bool bit = received_power_mw(static_cast<std::uint32_t>(p), k) >
                       threshold_mw_;
      if (bit) decisions_[p] |= 1u << k;
      if (bit != (((p >> k) & 1u) != 0)) mux_exact_ = false;
    }
  }
}

bool PackedKernel::decision(std::uint32_t z_pattern, std::size_t ones) const {
  if (z_pattern >= decisions_.size() || ones > order()) {
    throw std::out_of_range("PackedKernel::decision: state out of range");
  }
  return (decisions_[z_pattern] >> ones) & 1u;
}

double PackedKernel::received_power_mw(std::uint32_t z_pattern,
                                       std::size_t ones) const {
  const std::size_t n = circuit_->order();
  if (z_pattern >= (std::size_t{1} << (n + 1)) || ones > n) {
    throw std::out_of_range("PackedKernel::received_power_mw: out of range");
  }
  return circuit_->received_power_mw(pattern_bits(z_pattern, n + 1),
                                     ones_prefix(ones, n),
                                     circuit_->params().lasers.probe_power_mw);
}

std::vector<PackedKernel::Streams> PackedKernel::evaluate(
    const sc::ScInputs& inputs) const {
  const std::size_t length = inputs.check_shape(orders_);
  const std::size_t n_axes = orders_.size();
  const std::size_t programs = inputs.programs.size();
  std::size_t grid = 1;  // coefficient streams per program
  for (std::size_t order : orders_) grid *= order + 1;

  const std::size_t nwords = (length + 63) / 64;
  std::vector<std::vector<std::uint64_t>> optical(
      programs, std::vector<std::uint64_t>(nwords, 0));
  std::vector<std::vector<std::uint64_t>> electronic(
      programs, std::vector<std::uint64_t>(nwords, 0));

  const simd::KernelOps& ops = simd::kernel_ops();
  std::vector<std::vector<const std::uint64_t*>> aw(n_axes);
  for (std::size_t a = 0; a < n_axes; ++a) {
    aw[a] = word_pointers(inputs.axes[a]);
  }
  std::vector<std::vector<const std::uint64_t*>> zw(programs);
  for (std::size_t prog = 0; prog < programs; ++prog) {
    zw[prog] = word_pointers(inputs.programs[prog]);
  }

  // Plane-major block scratch: entry (j, i) at j*kBlockWords + i. One
  // plane buffer serves every axis in turn; each axis keeps its select
  // masks, and each inner axis a its nested-MUX partials (one block per
  // index prefix over the axes before it).
  constexpr std::size_t kMaxPlanes = std::bit_width(PackedKernel::kMaxOrder);
  std::vector<std::uint64_t> planes(kMaxPlanes * kBlockWords);
  std::vector<std::vector<std::uint64_t>> sel(n_axes);
  std::vector<std::vector<std::uint64_t>> partial(n_axes);
  std::vector<std::vector<const std::uint64_t*>> partial_ptrs(n_axes);
  std::size_t prefixes = 1;
  for (std::size_t a = 0; a < n_axes; ++a) {
    sel[a].resize((orders_[a] + 1) * kBlockWords);
    if (a > 0) {
      partial[a].resize(prefixes * kBlockWords);
      for (std::size_t g = 0; g < prefixes; ++g) {
        partial_ptrs[a].push_back(partial[a].data() + g * kBlockWords);
      }
    }
    prefixes *= orders_[a] + 1;
  }

  for (std::size_t w0 = 0; w0 < nwords; w0 += kBlockWords) {
    const std::size_t count = std::min(kBlockWords, nwords - w0);

    // 1. Per axis, a carry-save adder over the shared data words: bit t of
    //    plane (j, i) holds bit j of the lane-t ones count for word w0+i.
    // 2. Bitwise equality against the planes gives that axis's select
    //    masks. Both are computed once and reused by every fused program.
    for (std::size_t a = 0; a < n_axes; ++a) {
      const auto plane_count =
          static_cast<std::size_t>(std::bit_width(orders_[a]));
      std::fill_n(planes.begin(), plane_count * kBlockWords, 0);
      ops.accumulate_planes(aw[a].data(), orders_[a], w0, count,
                            planes.data(), plane_count, kBlockWords);
      ops.select_masks(planes.data(), plane_count, count, orders_[a] + 1,
                       sel[a].data(), kBlockWords);
    }

    // 3. Per program: the ideal MUX words, one OR-reduce pass per axis
    //    from the innermost out. Each pass collapses its axis: group g of
    //    orders_[a]+1 inputs becomes partial g of the axis before it, and
    //    the outermost pass lands in the MUX words.
    for (std::size_t prog = 0; prog < programs; ++prog) {
      std::uint64_t* mux = electronic[prog].data() + w0;
      const std::uint64_t* const* inputs = zw[prog].data();
      std::size_t in_w0 = w0;
      std::size_t groups = grid;
      for (std::size_t a = n_axes; a-- > 1;) {
        const std::size_t fan = orders_[a] + 1;
        groups /= fan;
        std::fill(partial[a].begin(), partial[a].end(), 0);
        for (std::size_t g = 0; g < groups; ++g) {
          ops.mux_or_reduce(sel[a].data(), fan, kBlockWords, count,
                            inputs + g * fan, in_w0,
                            partial[a].data() + g * kBlockWords);
        }
        inputs = partial_ptrs[a].data();
        in_w0 = 0;
      }
      ops.mux_or_reduce(sel[0].data(), orders_[0] + 1, kBlockWords, count,
                        inputs, in_w0, mux);
      if (mux_exact_) {
        std::copy_n(mux, count, optical[prog].data() + w0);
        continue;
      }
      // Physics LUT path (one-axis kernel, eye closed in some reachable
      // state): per-word scan over the coefficient patterns, reusing the
      // block's select masks. Rare - only non-mux-exact operating points
      // land here.
      const std::size_t n = orders_[0];
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t w = w0 + i;
        std::uint64_t opt = 0;
        for (std::size_t p = 0; p < decisions_.size(); ++p) {
          const std::uint32_t dmask = decisions_[p];
          if (dmask == 0) continue;
          std::uint64_t zmask = ~std::uint64_t{0};
          for (std::size_t j = 0; j <= n && zmask != 0; ++j) {
            const std::uint64_t zj = zw[prog][j][w];
            zmask &= ((p >> j) & 1u) ? zj : ~zj;
          }
          if (zmask == 0) continue;
          std::uint64_t decided = 0;
          for (std::size_t k = 0; k <= n; ++k) {
            if ((dmask >> k) & 1u) decided |= sel[0][k * kBlockWords + i];
          }
          opt |= zmask & decided;
        }
        optical[prog][w] = opt;
      }
    }
  }

  std::vector<Streams> out;
  out.reserve(programs);
  for (std::size_t prog = 0; prog < programs; ++prog) {
    out.push_back(
        {sc::Bitstream::from_words(std::move(optical[prog]), length),
         sc::Bitstream::from_words(std::move(electronic[prog]), length)});
  }
  return out;
}

void PackedKernel::check_program(const sc::SeparableProgram& program) const {
  const std::vector<std::size_t> dense = dense_orders(program);
  if (!dense.empty()) {
    if (dense != orders_) {
      throw std::invalid_argument(
          "PackedKernel: program orders do not match the kernel");
    }
    return;
  }
  // Sum-of-rank-1 programs run every factor through the one-axis ReSC
  // circuit, one stream per factor.
  if (orders_.size() != 1) {
    throw std::invalid_argument(
        "PackedKernel: separable-term programs run on a one-axis kernel");
  }
  for (const sc::SeparableTerm& term : program.terms()) {
    for (const sc::SeparableFactor& factor : term.factors) {
      if (factor.poly.degree() != order()) {
        throw std::invalid_argument(
            "PackedKernel: factor order does not match the circuit");
      }
    }
  }
}

std::vector<PackedRunResult> PackedKernel::run_fused(
    std::span<const sc::SeparableProgram> programs,
    const std::vector<double>& point, const PackedRunConfig& config) const {
  if (programs.empty()) {
    throw std::invalid_argument("PackedKernel: no programs to run");
  }
  for (const sc::SeparableProgram& program : programs) {
    if (dense_orders(program).empty()) {
      throw std::invalid_argument(
          "PackedKernel: fused mode takes dense programs");
    }
    check_program(program);
  }
  if (point.size() != orders_.size()) {
    throw std::invalid_argument("PackedKernel: point arity mismatch");
  }
  config.op.validate();

  std::vector<std::vector<double>> coeffs;
  coeffs.reserve(programs.size());
  for (const sc::SeparableProgram& program : programs) {
    coeffs.push_back(program.has_dense1() ? program.dense1().coeffs()
                                          : program.dense2().coeffs());
  }
  const sc::ScInputConfig sng{config.source_kind, config.op.sng_width,
                              config.stimulus_seed};
  std::vector<Streams> streams = evaluate(sc::make_sc_inputs(
      point, coeffs, orders_, config.op.stream_length, sng));

  // One flip-mask pass: positions are sampled once at the operating
  // point's BER and applied to every program's decision stream. Marginal
  // per-program statistics are unchanged; programs share the flip pattern
  // the way fused hardware would share the receiver.
  const FlipMask mask = sample_flip_mask(config.op, config.noise_seed);
  const simd::KernelOps& ops = simd::kernel_ops();
  std::vector<PackedRunResult> results(streams.size());
  for (std::size_t prog = 0; prog < streams.size(); ++prog) {
    Streams& s = streams[prog];
    if (!mask.words.empty()) {
      ops.xor_inplace(s.optical.words_data(), mask.words.data(),
                      mask.words.size());
    }
    PackedRunResult& r = results[prog];
    r.length = config.op.stream_length;
    r.noise_flips = mask.flips;
    r.optical_estimate = s.optical.probability();
    r.electronic_estimate = s.electronic.probability();
    r.transmission_flips = (s.optical ^ s.electronic).count_ones();
  }
  return results;
}

namespace {

/// Decorrelated per-factor seed stream, mirroring the engine's task-seed
/// derivation: factors of one evaluation must be mutually independent for
/// the AND of their streams to multiply probabilities, so each expands
/// its own SplitMix64 state instead of taking consecutive source salts.
std::uint64_t derive_factor_seed(std::uint64_t master,
                                 std::size_t factor_index) {
  oscs::SplitMix64 sm(master ^
                      (0x9E3779B97F4A7C15ULL * (factor_index + 1)));
  return sm.next();
}

/// Ones count over the first `length` bits of a packed word buffer.
std::size_t count_ones_packed(const std::vector<std::uint64_t>& words,
                              std::size_t length) {
  std::size_t ones = 0;
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::uint64_t w = words[i];
    if (i + 1 == words.size() && (length % 64) != 0) {
      w &= (std::uint64_t{1} << (length % 64)) - 1;
    }
    ones += static_cast<std::size_t>(std::popcount(w));
  }
  return ones;
}

}  // namespace

PackedRunResult PackedKernel::run_nd(const sc::SeparableProgram& program,
                                     const std::vector<double>& point,
                                     const PackedRunConfig& config) const {
  if (point.size() != program.arity()) {
    throw std::invalid_argument(
        "PackedKernel: point arity " + std::to_string(point.size()) +
        " does not match the program arity " +
        std::to_string(program.arity()));
  }
  if (!dense_orders(program).empty()) {
    return run_fused({&program, 1}, point, config).front();
  }
  check_program(program);
  config.op.validate();

  const std::size_t length = config.op.stream_length;
  const std::size_t nwords = (length + 63) / 64;
  const simd::KernelOps& ops = simd::kernel_ops();

  PackedRunResult result;
  result.length = length;
  double optical_sum = 0.0;
  double electronic_sum = 0.0;
  std::size_t factor_index = 0;
  for (const sc::SeparableTerm& term : program.terms()) {
    // Term product: AND of the term's independent factor streams. An
    // omitted axis contributes the constant 1 (the AND identity), so the
    // product starts all-ones; the tail mask in count_ones_packed keeps
    // padding lanes out of the estimate.
    std::vector<std::uint64_t> optical(nwords, ~std::uint64_t{0});
    std::vector<std::uint64_t> electronic(nwords, ~std::uint64_t{0});
    for (const sc::SeparableFactor& factor : term.factors) {
      const sc::ScInputs inputs = sc::make_sc_inputs(
          {point[factor.axis]}, {factor.poly.coeffs()}, orders_, length,
          {config.source_kind, config.op.sng_width,
           derive_factor_seed(config.stimulus_seed, factor_index)});
      Streams streams = std::move(evaluate(inputs).front());
      // Per-factor receiver noise: each factor stream is its own optical
      // evaluation, so each gets its own Eq. 9 flip mask.
      const FlipMask mask = sample_flip_mask(
          config.op, derive_factor_seed(config.noise_seed, factor_index));
      if (!mask.words.empty()) {
        ops.xor_inplace(streams.optical.words_data(), mask.words.data(),
                        nwords);
        result.noise_flips += mask.flips;
      }
      const std::uint64_t* opt_words = streams.optical.words_data();
      const std::uint64_t* elec_words = streams.electronic.words_data();
      for (std::size_t w = 0; w < nwords; ++w) {
        optical[w] &= opt_words[w];
        electronic[w] &= elec_words[w];
      }
      ++factor_index;
    }
    const double opt_p =
        static_cast<double>(count_ones_packed(optical, length)) /
        static_cast<double>(length);
    const double elec_p =
        static_cast<double>(count_ones_packed(electronic, length)) /
        static_cast<double>(length);
    optical_sum += term.weight * opt_p;
    electronic_sum += term.weight * elec_p;
    for (std::size_t w = 0; w < nwords; ++w) {
      optical[w] ^= electronic[w];
    }
    result.transmission_flips += count_ones_packed(optical, length);
  }
  result.optical_estimate = optical_sum;
  result.electronic_estimate = electronic_sum;
  return result;
}

}  // namespace oscs::engine
