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

/// Program layout byte leading every program encoding.
constexpr std::uint8_t kDenseLayout = 1;  ///< per-axis orders + grid
constexpr std::uint8_t kTermLayout = 2;   ///< sum-of-rank-1 terms

/// Every coefficient the SNG hardware runs is a comparator level: finite,
/// in [0,1] and a multiple of 2^-width.
void check_levels(const std::vector<double>& coeffs, unsigned width) {
  if (coeffs.empty()) {
    throw BinIoError("serialize: empty Bernstein coefficient vector");
  }
  const double scale = std::ldexp(1.0, static_cast<int>(width));
  for (double c : coeffs) {
    if (!std::isfinite(c) || c < 0.0 || c > 1.0) {
      throw BinIoError("serialize: coefficient " + std::to_string(c) +
                       " outside the stochastic [0,1] box");
    }
    const double level = c * scale;  // exact: scale is a power of two
    if (level != std::floor(level)) {
      throw BinIoError("serialize: coefficient " + std::to_string(c) +
                       " off the 2^-" + std::to_string(width) +
                       " comparator grid");
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

void write_program(BinWriter& out,
                   const stochastic::SeparableProgram& program) {
  if (program.has_dense1() || program.has_dense2()) {
    const std::vector<std::size_t> orders = program.orders();
    out.u8(kDenseLayout).u64(orders.size());
    for (std::size_t order : orders) out.u64(order);
    out.f64_vec(program.has_dense1() ? program.dense1().coeffs()
                                     : program.dense2().coeffs());
    return;
  }
  out.u8(kTermLayout).u64(program.arity()).u64(program.term_count());
  for (const stochastic::SeparableTerm& term : program.terms()) {
    out.f64(term.weight).u64(term.factors.size());
    for (const stochastic::SeparableFactor& factor : term.factors) {
      out.u64(factor.axis).f64_vec(factor.poly.coeffs());
    }
  }
}

stochastic::SeparableProgram read_program(BinReader& in, unsigned width) {
  if (width == 0 || width > 62) {
    throw BinIoError("serialize: SNG width " + std::to_string(width) +
                     " outside [1, 62]");
  }
  const std::uint8_t layout = in.u8();
  if (layout == kDenseLayout) {
    const std::uint64_t axes = in.u64();
    if (axes != 1 && axes != 2) {
      throw BinIoError("serialize: dense programs take 1 or 2 axes, not " +
                       std::to_string(axes));
    }
    std::vector<std::size_t> orders(axes);
    std::uint64_t grid = 1;
    for (std::size_t& order : orders) {
      order = in.u64();
      if (order >= kMaxStructCount) {
        throw BinIoError("serialize: dense program order out of range");
      }
      grid *= order + 1;
    }
    std::vector<double> coeffs = in.f64_vec();
    if (coeffs.size() != grid) {
      throw BinIoError("serialize: dense coefficient grid shape mismatch");
    }
    check_levels(coeffs, width);
    if (axes == 1) {
      return stochastic::SeparableProgram(
          stochastic::BernsteinPoly(std::move(coeffs)));
    }
    return stochastic::SeparableProgram(
        stochastic::BernsteinPoly2(orders[0], orders[1], std::move(coeffs)));
  }
  if (layout != kTermLayout) {
    throw BinIoError("serialize: unknown program layout " +
                     std::to_string(layout));
  }
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
      std::vector<double> coeffs = in.f64_vec();
      check_levels(coeffs, width);
      factor.poly = stochastic::BernsteinPoly(std::move(coeffs));
      term.factors.push_back(std::move(factor));
    }
    terms.push_back(std::move(term));
  }
  // The constructor enforces the remaining invariants (axis ordering,
  // nonnegative weights); its invalid_argument surfaces as a per-record
  // load error like any other corruption.
  return stochastic::SeparableProgram(arity, std::move(terms));
}

void write_fit_report(BinWriter& out, const FitReport& report) {
  out.u64_vec({report.degrees.begin(), report.degrees.end()})
      .f64(report.max_error)
      .f64(report.l2_error)
      .f64(report.feasibility_gap)
      .u8(report.clamped ? 1 : 0)
      .u8(report.target_met ? 1 : 0)
      .f64_vec(report.term_errors)
      .f64(report.max_coeff_delta);
}

FitReport read_fit_report(BinReader& in) {
  FitReport report;
  const std::vector<std::uint64_t> degrees = in.u64_vec();
  report.degrees.assign(degrees.begin(), degrees.end());
  report.max_error = in.f64();
  report.l2_error = in.f64();
  report.feasibility_gap = in.f64();
  report.clamped = read_bool(in) != 0;
  report.target_met = read_bool(in) != 0;
  report.term_errors = in.f64_vec();
  report.max_coeff_delta = in.f64();
  return report;
}

void write_certification(BinWriter& out, const Certification& cert) {
  out.f64(cert.op.probe_power_mw)
      .f64(cert.op.ber)
      .f64(cert.op.snr)
      .f64(cert.op.threshold_mw)
      .u64(cert.op.stream_length)
      .u32(cert.op.sng_width)
      .u64(cert.repeats)
      .u64(cert.grid_points)
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
  cert.repeats = in.u64();
  cert.grid_points = in.u64();
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
  write_program_key(out, program.key());
  write_program(out, program.program());
  write_fit_report(out, program.report());
  const std::optional<Certification>& cert = program.certification();
  out.u8(cert.has_value() ? 1 : 0);
  if (cert.has_value()) write_certification(out, *cert);
}

std::shared_ptr<const CompiledProgram> read_compiled_program(BinReader& in) {
  ProgramKey key = read_program_key(in);
  stochastic::SeparableProgram run = read_program(in, key.width);
  if (run.arity() != key.arity) {
    throw BinIoError("serialize: program arity " + std::to_string(run.arity()) +
                     " does not match its key's arity " +
                     std::to_string(key.arity));
  }
  FitReport report = read_fit_report(in);
  auto program = std::make_shared<CompiledProgram>(
      std::move(key), std::move(run), std::move(report));
  const std::uint8_t has_cert = read_bool(in);
  if (has_cert != 0) {
    program->attach_certification(read_certification(in));
  }
  return program;
}

}  // namespace oscs::compile
