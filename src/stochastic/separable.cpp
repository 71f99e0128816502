#include "stochastic/separable.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace oscs::stochastic {

SeparableProgram::SeparableProgram(std::size_t arity,
                                   std::vector<SeparableTerm> terms)
    : arity_(arity), terms_(std::move(terms)) {
  if (arity_ == 0) {
    throw std::invalid_argument("SeparableProgram: zero arity");
  }
  if (terms_.empty()) {
    throw std::invalid_argument("SeparableProgram: no terms");
  }
  for (const SeparableTerm& term : terms_) {
    if (!(term.weight >= 0.0) || !std::isfinite(term.weight)) {
      throw std::invalid_argument(
          "SeparableProgram: term weights must be finite and nonnegative");
    }
    std::size_t prev_axis = 0;
    bool first = true;
    for (const SeparableFactor& factor : term.factors) {
      if (factor.axis >= arity_) {
        throw std::invalid_argument(
            "SeparableProgram: factor axis " + std::to_string(factor.axis) +
            " out of range for arity " + std::to_string(arity_));
      }
      if (!first && factor.axis <= prev_axis) {
        throw std::invalid_argument(
            "SeparableProgram: factor axes within a term must be strictly "
            "increasing");
      }
      prev_axis = factor.axis;
      first = false;
    }
  }
}

SeparableProgram::SeparableProgram(BernsteinPoly dense)
    : arity_(1), dense1_(std::move(dense)) {
  // The dense univariate program IS a single rank-1 term; keep the terms
  // view consistent so generic consumers (weight_sum, factor_degree) see
  // the same program.
  terms_.push_back({1.0, {SeparableFactor{0, *dense1_}}});
}

SeparableProgram::SeparableProgram(BernsteinPoly2 dense)
    : arity_(2), dense2_(std::move(dense)) {}

const BernsteinPoly& SeparableProgram::dense1() const {
  if (!dense1_) {
    throw std::logic_error("SeparableProgram: no dense univariate form");
  }
  return *dense1_;
}

const BernsteinPoly2& SeparableProgram::dense2() const {
  if (!dense2_) {
    throw std::logic_error("SeparableProgram: no dense bivariate form");
  }
  return *dense2_;
}

double SeparableProgram::weight_sum() const noexcept {
  if (dense2_) return 1.0;
  double sum = 0.0;
  for (const SeparableTerm& term : terms_) sum += term.weight;
  return sum;
}

std::size_t SeparableProgram::factor_degree() const noexcept {
  if (dense1_) return dense1_->degree();
  if (dense2_) return std::max(dense2_->deg_x(), dense2_->deg_y());
  std::size_t degree = 0;
  for (const SeparableTerm& term : terms_) {
    for (const SeparableFactor& factor : term.factors) {
      degree = std::max(degree, factor.poly.degree());
    }
  }
  return degree;
}

double SeparableProgram::operator()(const std::vector<double>& point) const {
  if (point.size() != arity_) {
    throw std::invalid_argument(
        "SeparableProgram: point arity " + std::to_string(point.size()) +
        " does not match program arity " + std::to_string(arity_));
  }
  if (dense1_) return (*dense1_)(point[0]);
  if (dense2_) return (*dense2_)(point[0], point[1]);
  double sum = 0.0;
  for (const SeparableTerm& term : terms_) {
    double product = term.weight;
    for (const SeparableFactor& factor : term.factors) {
      product *= factor.poly(point[factor.axis]);
    }
    sum += product;
  }
  return sum;
}

bool SeparableProgram::is_sc_compatible(double tolerance) const noexcept {
  if (dense1_) return dense1_->is_sc_compatible(tolerance);
  if (dense2_) return dense2_->is_sc_compatible(tolerance);
  for (const SeparableTerm& term : terms_) {
    if (!(term.weight >= 0.0)) return false;
    for (const SeparableFactor& factor : term.factors) {
      if (!factor.poly.is_sc_compatible(tolerance)) return false;
    }
  }
  return true;
}

std::vector<std::size_t> SeparableProgram::orders() const {
  if (dense1_) return {dense1_->degree()};
  if (dense2_) return {dense2_->deg_x(), dense2_->deg_y()};
  return {factor_degree()};
}

SeparableProgram SeparableProgram::elevated_to(
    const std::vector<std::size_t>& orders) const {
  const std::vector<std::size_t> current = this->orders();
  if (orders.size() != current.size()) {
    throw std::invalid_argument(
        "SeparableProgram: elevation target has " +
        std::to_string(orders.size()) + " axes, the program runs on " +
        std::to_string(current.size()));
  }
  for (std::size_t a = 0; a < orders.size(); ++a) {
    if (orders[a] < current[a]) {
      throw std::invalid_argument(
          "SeparableProgram: degree " + std::to_string(current[a]) +
          " exceeds the elevation target " + std::to_string(orders[a]));
    }
  }
  if (dense1_) {
    return SeparableProgram(dense1_->elevated(orders[0] - current[0]));
  }
  if (dense2_) {
    return SeparableProgram(dense2_->elevated(orders[0] - current[0],
                                              orders[1] - current[1]));
  }
  std::vector<SeparableTerm> elevated;
  elevated.reserve(terms_.size());
  for (const SeparableTerm& term : terms_) {
    SeparableTerm out;
    out.weight = term.weight;
    out.factors.reserve(term.factors.size());
    for (const SeparableFactor& factor : term.factors) {
      out.factors.push_back({factor.axis, factor.poly.elevated(
                                             orders[0] - factor.poly.degree())});
    }
    elevated.push_back(std::move(out));
  }
  return SeparableProgram(arity_, std::move(elevated));
}

}  // namespace oscs::stochastic
