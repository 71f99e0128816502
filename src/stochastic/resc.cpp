#include "stochastic/resc.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "stochastic/bernstein.hpp"
#include "stochastic/wordops.hpp"

namespace oscs::stochastic {

namespace {

/// Step a row-major grid index (last axis fastest) to the next cell.
void next_cell(std::vector<std::size_t>& index,
               const std::vector<std::size_t>& orders) {
  for (std::size_t a = index.size(); a-- > 0;) {
    if (++index[a] <= orders[a]) return;
    index[a] = 0;
  }
}

}  // namespace

std::size_t ScInputs::length() const noexcept {
  for (const std::vector<Bitstream>& bank : axes) {
    if (!bank.empty()) return bank.front().size();
  }
  if (programs.empty() || programs.front().empty()) return 0;
  return programs.front().front().size();
}

std::size_t ScInputs::select(std::size_t axis, std::size_t t) const {
  std::size_t k = 0;
  for (const Bitstream& s : axes.at(axis)) k += s.bit(t) ? 1 : 0;
  return k;
}

std::size_t ScInputs::check_shape(
    const std::vector<std::size_t>& orders) const {
  // Shape before length: with every order 0 the stream length comes from
  // the first coefficient stream, so its presence must be validated
  // before it is read.
  if (axes.size() != orders.size() || programs.empty()) {
    throw std::invalid_argument("ScInputs: stimulus shape mismatch");
  }
  std::size_t grid = 1;
  for (std::size_t a = 0; a < orders.size(); ++a) {
    if (axes[a].size() != orders[a]) {
      throw std::invalid_argument("ScInputs: stimulus order mismatch");
    }
    grid *= orders[a] + 1;
  }
  for (const std::vector<Bitstream>& zs : programs) {
    if (zs.size() != grid) {
      throw std::invalid_argument(
          "ScInputs: coefficient stream count mismatch");
    }
  }
  // A shorter stream can share the word count of the others, so the
  // word-parallel MUX would silently read its zero padding as data.
  const std::size_t n = length();
  for (const std::vector<Bitstream>& bank : axes) {
    for (const Bitstream& s : bank) {
      if (s.size() != n) {
        throw std::invalid_argument("ScInputs: ragged data streams");
      }
    }
  }
  for (const std::vector<Bitstream>& zs : programs) {
    for (const Bitstream& s : zs) {
      if (s.size() != n) {
        throw std::invalid_argument("ScInputs: ragged coefficient streams");
      }
    }
  }
  return n;
}

ScInputs make_sc_inputs(
    const std::vector<double>& point,
    const std::vector<std::vector<double>>& coeffs_per_program,
    const std::vector<std::size_t>& orders, std::size_t length,
    const ScInputConfig& config) {
  if (point.size() != orders.size()) {
    throw std::invalid_argument(
        "make_sc_inputs: need one coordinate per axis, got " +
        std::to_string(point.size()) + " for " +
        std::to_string(orders.size()) + " axes");
  }
  if (coeffs_per_program.empty()) {
    throw std::invalid_argument("make_sc_inputs: no programs");
  }
  std::size_t grid = 1;
  for (std::size_t order : orders) grid *= order + 1;
  for (const std::vector<double>& c : coeffs_per_program) {
    if (c.size() != grid) {
      throw std::invalid_argument(
          "make_sc_inputs: need prod(order+1) = " + std::to_string(grid) +
          " coefficients per program, got " + std::to_string(c.size()));
    }
  }
  // Salt sequence: each data bank in axis order, then each program's grid
  // row-major - so program 0 of a fused stimulus is bit-identical to the
  // one-program stimulus and later programs draw fresh salts.
  std::uint64_t salt = config.seed * 2u + 1u;
  auto encode = [&](double p) {
    Sng sng(make_source(config.kind, config.width, salt++));
    return sng.generate(p, length);
  };
  ScInputs inputs;
  inputs.axes.resize(orders.size());
  for (std::size_t a = 0; a < orders.size(); ++a) {
    inputs.axes[a].reserve(orders[a]);
    for (std::size_t i = 0; i < orders[a]; ++i) {
      inputs.axes[a].push_back(encode(point[a]));
    }
  }
  inputs.programs.resize(coeffs_per_program.size());
  for (std::size_t k = 0; k < coeffs_per_program.size(); ++k) {
    inputs.programs[k].reserve(grid);
    for (double c : coeffs_per_program[k]) {
      inputs.programs[k].push_back(encode(c));
    }
  }
  return inputs;
}

ReSCUnit::ReSCUnit(std::vector<std::size_t> orders, std::vector<double> coeffs)
    : orders_(std::move(orders)), coeffs_(std::move(coeffs)) {
  for (double c : coeffs_) {
    if (c < -1e-9 || c > 1.0 + 1e-9) {
      throw std::invalid_argument(
          "ReSCUnit: Bernstein coefficients must lie in [0, 1] for a "
          "stochastic implementation");
    }
  }
}

ReSCUnit::ReSCUnit(const BernsteinPoly& poly)
    : ReSCUnit({poly.degree()}, poly.coeffs()) {}

ReSCUnit::ReSCUnit(const BernsteinPoly2& poly)
    : ReSCUnit({poly.deg_x(), poly.deg_y()}, poly.coeffs()) {}

Bitstream ReSCUnit::output_stream(const ScInputs& inputs,
                                  std::size_t program) const {
  const std::size_t n_cycles = inputs.check_shape(orders_);
  if (program >= inputs.programs.size()) {
    throw std::out_of_range("ReSCUnit: program index out of range");
  }
  const std::vector<Bitstream>& z = inputs.programs[program];
  const std::size_t n_axes = orders_.size();
  // Word-parallel adders + MUX: per axis, a carry-save accumulation over
  // the packed data words leaves bit j of the per-lane ones count in plane
  // j, and bitwise equality against each index gives that axis's select
  // masks. Grid cell g's select is the AND of one mask per axis; it routes
  // 64 coefficient bits at a time.
  std::vector<std::vector<std::uint64_t>> sel(n_axes);
  for (std::size_t a = 0; a < n_axes; ++a) sel[a].resize(orders_[a] + 1);
  std::vector<std::uint64_t> planes;
  std::vector<std::size_t> index(n_axes);
  const std::size_t n_words = (n_cycles + 63) / 64;
  std::vector<std::uint64_t> out_words(n_words, 0);
  for (std::size_t w = 0; w < n_words; ++w) {
    for (std::size_t a = 0; a < n_axes; ++a) {
      const auto plane_count =
          static_cast<std::size_t>(std::bit_width(orders_[a]));
      planes.assign(plane_count, 0);
      accumulate_count_planes(inputs.axes[a], w, planes.data(), plane_count);
      for (std::size_t i = 0; i <= orders_[a]; ++i) {
        sel[a][i] = count_equals_mask(planes.data(), plane_count, i);
      }
    }
    std::uint64_t out = 0;
    std::fill(index.begin(), index.end(), 0);
    for (const Bitstream& zg : z) {
      std::uint64_t s = ~std::uint64_t{0};
      for (std::size_t a = 0; a < n_axes; ++a) s &= sel[a][index[a]];
      out |= s & zg.word(w);
      next_cell(index, orders_);
    }
    out_words[w] = out;
  }
  return Bitstream::from_words(std::move(out_words), n_cycles);
}

double ReSCUnit::evaluate(const ScInputs& inputs) const {
  return output_stream(inputs).probability();
}

double ReSCUnit::evaluate(const std::vector<double>& point,
                          std::size_t length,
                          const ScInputConfig& config) const {
  return evaluate(make_sc_inputs(point, {coeffs_}, orders_, length, config));
}

double ReSCUnit::exact_expectation(const std::vector<double>& point) const {
  const std::size_t n_axes = orders_.size();
  if (point.size() != n_axes) {
    throw std::invalid_argument("ReSCUnit: point arity mismatch");
  }
  std::vector<std::size_t> index(n_axes, 0);
  double s = 0.0;
  for (double c : coeffs_) {
    double basis = 1.0;
    for (std::size_t a = 0; a < n_axes; ++a) {
      basis *= bernstein_basis(index[a], orders_[a], point[a]);
    }
    s += c * basis;
    next_cell(index, orders_);
  }
  return s;
}

}  // namespace oscs::stochastic
