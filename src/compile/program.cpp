#include "compile/program.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/binio.hpp"
#include "optsc/defaults.hpp"
#include "optsc/link_budget.hpp"

namespace oscs::compile {

std::uint64_t ProgramKey::digest() const noexcept {
  // Canonical byte encoding: arity salt first (programs of different arity
  // can never collide even when every other field coincides), then every
  // identity field fixed-width little-endian. The field order is part of
  // the on-disk cache-file contract.
  Fnv1a d;
  d.u64(arity);
  d.str(function_id);
  d.u64(degree);
  d.u64(degree_y);
  d.u64(width);
  d.u64(options_digest);
  return d.value();
}

std::size_t ProgramKeyHash::operator()(const ProgramKey& key) const noexcept {
  return static_cast<std::size_t>(key.digest());
}

namespace {

/// `program` elevated to the circuit minimum of order 1 on every axis.
/// Elevating a degree-0 axis duplicates its coefficients, so every z
/// stream encodes the same quantized level and the comparator grid is
/// preserved exactly.
stochastic::SeparableProgram circuit_program(
    stochastic::SeparableProgram program) {
  std::vector<std::size_t> orders = program.orders();
  for (std::size_t& order : orders) order = std::max<std::size_t>(order, 1);
  if (orders == program.orders()) return program;
  return program.elevated_to(orders);
}

}  // namespace

CompiledProgram::CompiledProgram(ProgramKey key,
                                 stochastic::SeparableProgram quantized,
                                 FitReport report)
    : key_(std::move(key)),
      report_(std::move(report)),
      program_(circuit_program(std::move(quantized))) {
  if (report_.degrees.size() != program_.arity()) {
    throw std::invalid_argument(
        "CompiledProgram: the fit report needs one degree per input");
  }
  std::vector<std::size_t> orders = program_.orders();
  for (std::size_t order : orders) {
    if (order > engine::PackedKernel::kMaxOrder) {
      throw std::invalid_argument(
          "CompiledProgram: degree exceeds the packed-kernel order limit");
    }
  }
  circuit_ = std::make_shared<optsc::OpticalScCircuit>(
      optsc::paper_defaults(orders.front()));
  // The kernel keeps a raw pointer into the circuit (for the diagnostics
  // path), so its deleter captures the circuit handle: a kernel reference
  // that outlives this program keeps the circuit alive too.
  auto* kernel = new engine::PackedKernel(*circuit_, std::move(orders));
  kernel_ = std::shared_ptr<const engine::PackedKernel>(
      kernel, [circuit = circuit_](const engine::PackedKernel* k) {
        delete k;
      });
  kernel_->check_program(program_);
  design_point_ =
      optsc::design_operating_point(*circuit_, /*stream_length=*/1024,
                                    /*sng_width=*/key_.width);
}

const stochastic::SeparableProgram& CompiledProgram::program_nd() const {
  if (!is_nd()) {
    throw std::logic_error("CompiledProgram: no separable N-ary program");
  }
  return program_;
}

}  // namespace oscs::compile
