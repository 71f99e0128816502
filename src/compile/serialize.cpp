#include "compile/serialize.hpp"

#include <cmath>
#include <string>
#include <utility>

namespace oscs::compile {

namespace {

/// Hard cap on structure counts read from a file. Far above anything the
/// compiler produces (degrees are kernel-order limited, term budgets are
/// single digits) but small enough that a corrupt count can't drive an
/// absurd rebuild loop.
constexpr std::uint64_t kMaxStructCount = 1u << 20;

void check_unit_box(const std::vector<double>& coeffs) {
  for (double c : coeffs) {
    if (!std::isfinite(c) || c < 0.0 || c > 1.0) {
      throw BinIoError("serialize: coefficient " + std::to_string(c) +
                       " outside the stochastic [0,1] box");
    }
  }
}

void check_finite(double v, const char* what) {
  if (!std::isfinite(v)) {
    throw BinIoError(std::string("serialize: non-finite ") + what);
  }
}

std::uint8_t read_bool(BinReader& in) {
  const std::uint8_t v = in.u8();
  if (v > 1) {
    throw BinIoError("serialize: boolean byte out of range");
  }
  return v;
}

}  // namespace

void write_program_key(BinWriter& out, const ProgramKey& key) {
  out.str(key.function_id)
      .u64(key.degree)
      .u64(key.degree_y)
      .u32(key.width)
      .u64(key.options_digest)
      .u64(key.arity);
}

ProgramKey read_program_key(BinReader& in) {
  ProgramKey key;
  key.function_id = in.str();
  key.degree = in.u64();
  key.degree_y = in.u64();
  key.width = in.u32();
  key.options_digest = in.u64();
  key.arity = in.u64();
  return key;
}

void write_poly(BinWriter& out, const stochastic::BernsteinPoly& poly) {
  out.f64_vec(poly.coeffs());
}

stochastic::BernsteinPoly read_poly(BinReader& in, bool unit_box) {
  std::vector<double> coeffs = in.f64_vec();
  if (coeffs.empty()) {
    throw BinIoError("serialize: empty Bernstein coefficient vector");
  }
  if (unit_box) check_unit_box(coeffs);
  return stochastic::BernsteinPoly(std::move(coeffs));
}

void write_poly2(BinWriter& out, const stochastic::BernsteinPoly2& poly) {
  out.u64(poly.deg_x()).u64(poly.deg_y()).f64_vec(poly.coeffs());
}

stochastic::BernsteinPoly2 read_poly2(BinReader& in, bool unit_box) {
  const std::uint64_t deg_x = in.u64();
  const std::uint64_t deg_y = in.u64();
  std::vector<double> coeffs = in.f64_vec();
  if (deg_x >= kMaxStructCount || deg_y >= kMaxStructCount ||
      coeffs.size() != (deg_x + 1) * (deg_y + 1)) {
    throw BinIoError("serialize: 2D coefficient grid shape mismatch");
  }
  if (unit_box) check_unit_box(coeffs);
  return stochastic::BernsteinPoly2(deg_x, deg_y, std::move(coeffs));
}

void write_separable_program(BinWriter& out,
                             const stochastic::SeparableProgram& program) {
  if (program.has_dense1() || program.has_dense2()) {
    // The dense delegation forms persist through the uni/bivariate record
    // payloads; only general sum-of-rank-1 programs reach this writer.
    throw std::invalid_argument(
        "write_separable_program: dense delegation form");
  }
  out.u64(program.arity()).u64(program.term_count());
  for (const stochastic::SeparableTerm& term : program.terms()) {
    out.f64(term.weight).u64(term.factors.size());
    for (const stochastic::SeparableFactor& factor : term.factors) {
      out.u64(factor.axis);
      write_poly(out, factor.poly);
    }
  }
}

stochastic::SeparableProgram read_separable_program(BinReader& in,
                                                    bool unit_box) {
  const std::uint64_t arity = in.u64();
  const std::uint64_t term_count = in.u64();
  if (arity == 0 || arity >= kMaxStructCount || term_count == 0 ||
      term_count >= kMaxStructCount) {
    throw BinIoError("serialize: separable program shape out of range");
  }
  std::vector<stochastic::SeparableTerm> terms;
  terms.reserve(term_count);
  for (std::uint64_t t = 0; t < term_count; ++t) {
    stochastic::SeparableTerm term;
    term.weight = in.f64();
    check_finite(term.weight, "term weight");
    const std::uint64_t factor_count = in.u64();
    if (factor_count > arity) {
      throw BinIoError("serialize: separable term factor count exceeds arity");
    }
    term.factors.reserve(factor_count);
    for (std::uint64_t j = 0; j < factor_count; ++j) {
      stochastic::SeparableFactor factor;
      factor.axis = in.u64();
      factor.poly = read_poly(in, unit_box);
      term.factors.push_back(std::move(factor));
    }
    terms.push_back(std::move(term));
  }
  // The constructor enforces the remaining invariants (axis ordering,
  // nonnegative weights); its invalid_argument surfaces as a per-record
  // load error like any other corruption.
  return stochastic::SeparableProgram(arity, std::move(terms));
}

void write_projection(BinWriter& out, const ProjectionResult& projection) {
  write_poly(out, projection.poly);
  out.u64(projection.degree)
      .f64(projection.max_error)
      .f64(projection.l2_error)
      .f64(projection.feasibility_gap)
      .u8(projection.clamped ? 1 : 0)
      .u8(projection.target_met ? 1 : 0);
}

ProjectionResult read_projection(BinReader& in) {
  ProjectionResult projection;
  // The projection poly is the pre-quantization constrained fit; it obeys
  // the unit box by construction, so enforce it on the way back in.
  projection.poly = read_poly(in, /*unit_box=*/true);
  projection.degree = in.u64();
  projection.max_error = in.f64();
  projection.l2_error = in.f64();
  projection.feasibility_gap = in.f64();
  projection.clamped = read_bool(in) != 0;
  projection.target_met = read_bool(in) != 0;
  return projection;
}

void write_projection2(BinWriter& out, const ProjectionResult2& projection) {
  write_poly2(out, projection.poly);
  out.u64(projection.degree_x)
      .u64(projection.degree_y)
      .f64(projection.max_error)
      .f64(projection.l2_error)
      .f64(projection.feasibility_gap)
      .u8(projection.clamped ? 1 : 0)
      .u8(projection.target_met ? 1 : 0);
}

ProjectionResult2 read_projection2(BinReader& in) {
  ProjectionResult2 projection;
  projection.poly = read_poly2(in, /*unit_box=*/true);
  projection.degree_x = in.u64();
  projection.degree_y = in.u64();
  projection.max_error = in.f64();
  projection.l2_error = in.f64();
  projection.feasibility_gap = in.f64();
  projection.clamped = read_bool(in) != 0;
  projection.target_met = read_bool(in) != 0;
  return projection;
}

void write_projection_nd(BinWriter& out, const ProjectionResultN& projection) {
  write_separable_program(out, projection.program);
  out.u64(projection.arity)
      .u64(projection.terms)
      .f64(projection.max_error)
      .f64(projection.l2_error)
      .f64_vec(projection.term_errors)
      .u8(projection.target_met ? 1 : 0);
}

ProjectionResultN read_projection_nd(BinReader& in) {
  ProjectionResultN projection;
  projection.program = read_separable_program(in, /*unit_box=*/true);
  projection.arity = in.u64();
  projection.terms = in.u64();
  projection.max_error = in.f64();
  projection.l2_error = in.f64();
  projection.term_errors = in.f64_vec();
  projection.target_met = read_bool(in) != 0;
  if (projection.arity != projection.program.arity()) {
    throw BinIoError("serialize: separable projection arity mismatch");
  }
  return projection;
}

void write_quantization(BinWriter& out,
                        const QuantizationResult& quantization) {
  write_poly(out, quantization.poly);
  out.u64_vec(quantization.levels)
      .u32(quantization.width)
      .f64(quantization.max_coeff_delta)
      .f64(quantization.induced_error_bound);
}

QuantizationResult read_quantization(BinReader& in) {
  QuantizationResult quantization;
  // Quantized coefficients are what the SNG hardware runs: strict unit box.
  quantization.poly = read_poly(in, /*unit_box=*/true);
  quantization.levels = in.u64_vec();
  quantization.width = in.u32();
  quantization.max_coeff_delta = in.f64();
  quantization.induced_error_bound = in.f64();
  if (quantization.levels.size() != quantization.poly.coeffs().size()) {
    throw BinIoError(
        "serialize: quantization level/coefficient count mismatch");
  }
  return quantization;
}

void write_quantization2(BinWriter& out,
                         const QuantizationResult2& quantization) {
  write_poly2(out, quantization.poly);
  out.u64_vec(quantization.levels)
      .u32(quantization.width)
      .f64(quantization.max_coeff_delta)
      .f64(quantization.induced_error_bound);
}

QuantizationResult2 read_quantization2(BinReader& in) {
  QuantizationResult2 quantization;
  quantization.poly = read_poly2(in, /*unit_box=*/true);
  quantization.levels = in.u64_vec();
  quantization.width = in.u32();
  quantization.max_coeff_delta = in.f64();
  quantization.induced_error_bound = in.f64();
  if (quantization.levels.size() != quantization.poly.coeffs().size()) {
    throw BinIoError(
        "serialize: quantization level/coefficient count mismatch");
  }
  return quantization;
}

void write_certification(BinWriter& out, const Certification& cert) {
  out.f64(cert.op.probe_power_mw)
      .f64(cert.op.ber)
      .f64(cert.op.snr)
      .f64(cert.op.threshold_mw)
      .u64(cert.op.stream_length)
      .u32(cert.op.sng_width)
      .u64(cert.stream_length)
      .u64(cert.repeats)
      .u64(cert.grid_points)
      .u8(cert.noise_enabled ? 1 : 0)
      .f64(cert.mc_mae)
      .f64(cert.mc_mae_ci)
      .f64(cert.mc_worst)
      .f64(cert.electronic_mae)
      .f64(cert.approx_max_error);
}

Certification read_certification(BinReader& in) {
  Certification cert;
  cert.op.probe_power_mw = in.f64();
  cert.op.ber = in.f64();
  cert.op.snr = in.f64();
  cert.op.threshold_mw = in.f64();
  cert.op.stream_length = in.u64();
  cert.op.sng_width = in.u32();
  cert.stream_length = in.u64();
  cert.repeats = in.u64();
  cert.grid_points = in.u64();
  cert.noise_enabled = read_bool(in) != 0;
  cert.mc_mae = in.f64();
  cert.mc_mae_ci = in.f64();
  cert.mc_worst = in.f64();
  cert.electronic_mae = in.f64();
  cert.approx_max_error = in.f64();
  // The operating point validates itself (positive probe power, BER in
  // [0,0.5], width 1..62); route its invalid_argument into the per-record
  // error path.
  try {
    cert.op.validate();
  } catch (const std::exception& e) {
    throw BinIoError(std::string("serialize: certification operating point: ") +
                     e.what());
  }
  return cert;
}

void write_compiled_program(BinWriter& out, const CompiledProgram& program) {
  if (program.is_nd()) {
    out.u8(static_cast<std::uint8_t>(ProgramForm::kSeparable));
    write_program_key(out, program.key());
    write_projection_nd(out, program.projection_nd());
    out.u64(program.factor_quantizations().size());
    for (const QuantizationResult& q : program.factor_quantizations()) {
      write_quantization(out, q);
    }
    write_separable_program(out, program.program());
  } else if (program.is_bivariate()) {
    out.u8(static_cast<std::uint8_t>(ProgramForm::kBivariate));
    write_program_key(out, program.key());
    write_projection2(out, program.projection2());
    write_quantization2(out, program.quantization2());
  } else {
    out.u8(static_cast<std::uint8_t>(ProgramForm::kUnivariate));
    write_program_key(out, program.key());
    write_projection(out, program.projection());
    write_quantization(out, program.quantization());
  }
  const std::optional<Certification>& cert = program.certification();
  out.u8(cert.has_value() ? 1 : 0);
  if (cert.has_value()) write_certification(out, *cert);
}

std::shared_ptr<const CompiledProgram> read_compiled_program(BinReader& in) {
  const std::uint8_t form = in.u8();
  ProgramKey key = read_program_key(in);
  std::shared_ptr<CompiledProgram> program;
  switch (static_cast<ProgramForm>(form)) {
    case ProgramForm::kUnivariate: {
      ProjectionResult projection = read_projection(in);
      QuantizationResult quantization = read_quantization(in);
      program = std::make_shared<CompiledProgram>(
          std::move(key), std::move(projection), std::move(quantization));
      break;
    }
    case ProgramForm::kBivariate: {
      ProjectionResult2 projection = read_projection2(in);
      QuantizationResult2 quantization = read_quantization2(in);
      program = std::make_shared<CompiledProgram>(
          std::move(key), std::move(projection), std::move(quantization));
      break;
    }
    case ProgramForm::kSeparable: {
      ProjectionResultN projection = read_projection_nd(in);
      const std::uint64_t quant_count = in.u64();
      if (quant_count >= kMaxStructCount) {
        throw BinIoError("serialize: factor quantization count out of range");
      }
      std::vector<QuantizationResult> factor_quant;
      factor_quant.reserve(quant_count);
      for (std::uint64_t i = 0; i < quant_count; ++i) {
        factor_quant.push_back(read_quantization(in));
      }
      stochastic::SeparableProgram quantized =
          read_separable_program(in, /*unit_box=*/true);
      program = std::make_shared<CompiledProgram>(
          std::move(key), std::move(projection), std::move(factor_quant),
          std::move(quantized));
      break;
    }
    default:
      throw BinIoError("serialize: unknown program form tag " +
                       std::to_string(form));
  }
  const std::uint8_t has_cert = read_bool(in);
  if (has_cert != 0) {
    program->attach_certification(read_certification(in));
  }
  return program;
}

}  // namespace oscs::compile
