#include "compile/compiler.hpp"

#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/binio.hpp"
#include "compile/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace oscs::compile {

namespace {

/// Cold-compile and certification durations (global registry); every cold
/// pipeline run also opens a span on the calling request's trace when one
/// is installed (thread-local), so serving traces show compile time under
/// their resolve span.

obs::Histogram& cold_histogram() {
  static obs::Histogram& histogram = obs::Registry::global().histogram(
      "oscs_compile_cold_us",
      "full cold-compile pipeline duration [microseconds]", {},
      obs::Histogram::latency_us());
  return histogram;
}

obs::Histogram& project_histogram() {
  static obs::Histogram& histogram = obs::Registry::global().histogram(
      "oscs_compile_project_us",
      "projection (least-squares fit) stage duration [microseconds]", {},
      obs::Histogram::latency_us());
  return histogram;
}

obs::Histogram& certify_histogram() {
  static obs::Histogram& histogram = obs::Registry::global().histogram(
      "oscs_compile_certify_us",
      "Monte-Carlo certification stage duration [microseconds]", {},
      obs::Histogram::latency_us());
  return histogram;
}

double us_between(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// Fold the certification block into an options digest. The digest runs
/// over the canonical FNV-1a byte encoding (fixed-width little-endian, see
/// common/binio.hpp) so it is identical across builds and platforms - it
/// is part of the on-disk cache-file identity, not just an in-memory hash.
void certification_digest(Fnv1a& digest, const CompileOptions& options) {
  digest.u64(options.certify ? 1u : 0u);
  if (options.certify) {
    digest.u64(options.certification.stream_length);
    digest.u64(options.certification.repeats);
    digest.u64(options.certification.grid_points);
    digest.u64(options.certification.seed);
    digest.u64(static_cast<std::uint64_t>(options.certification.source_kind));
    digest.u64(options.certification.noise_enabled ? 1u : 0u);
  }
}

/// The pipeline frame every arity shares: the cold-compile timer and the
/// "compile" span, inside it the "project" span and histogram around
/// `project` (the fit), then `build` (quantization -> codegen) on its
/// result, then - when options.certify - the "certify" span and histogram
/// around `certify_program`.
template <typename Project, typename Build>
std::shared_ptr<const CompiledProgram> run_pipeline(
    const CompileOptions& options, const Project& project, const Build& build,
    const std::function<Certification(const CompiledProgram&)>&
        certify_program) {
  const auto t0 = std::chrono::steady_clock::now();
  obs::Span span(obs::current_trace(), "compile");
  obs::Span project_span(obs::current_trace(), "project");
  const auto t_project = std::chrono::steady_clock::now();
  auto projection = project();
  project_histogram().record(
      us_between(t_project, std::chrono::steady_clock::now()));
  project_span.end();
  std::shared_ptr<CompiledProgram> program = build(std::move(projection));
  if (options.certify) {
    obs::Span certify_span(obs::current_trace(), "certify");
    const auto t_certify = std::chrono::steady_clock::now();
    program->attach_certification(certify_program(*program));
    certify_histogram().record(
        us_between(t_certify, std::chrono::steady_clock::now()));
  }
  cold_histogram().record(us_between(t0, std::chrono::steady_clock::now()));
  return program;
}

/// Registry entry `id` at `defaults`, for the by-id compile entry points:
/// each serves one catalogue - the entries of arity [min_arity,
/// max_arity] - and names it (`kind`) when `id` is not there.
RegistryProgram catalogue_program(const std::string& id,
                                  const CompileOptions& defaults,
                                  std::size_t min_arity, std::size_t max_arity,
                                  const char* kind) {
  std::optional<RegistryProgram> program = registry_program(id, defaults);
  if (!program || program->arity() < min_arity ||
      program->arity() > max_arity) {
    throw std::invalid_argument(std::string("Compiler: unknown ") + kind +
                                "registry function '" + id + "'");
  }
  return std::move(*program);
}

}  // namespace

ProgramKey make_program_key(const std::string& function_id,
                            const CompileOptions& options) {
  // Every arity's digest leads with its arity salt - the historical
  // univariate digest started unsalted, which left collisions with wider
  // arities down to the explicit key fields alone.
  Fnv1a digest;
  digest.u64(1);
  digest.u64(options.projection.min_degree);
  digest.f64(options.projection.target_max_error);
  digest.u64(options.projection.error_samples);
  digest.u64(options.projection.quadrature_points);
  certification_digest(digest, options);
  return ProgramKey{function_id, options.projection.max_degree,
                    /*degree_y=*/0, options.sng_width, digest.value(),
                    /*arity=*/1};
}

ProgramKey make_program_key2(const std::string& function_id,
                             const CompileOptions& options) {
  Fnv1a digest;
  digest.u64(2);
  digest.u64(options.projection2.min_degree_x);
  digest.u64(options.projection2.min_degree_y);
  digest.f64(options.projection2.target_max_error);
  digest.u64(options.projection2.error_samples);
  digest.u64(options.projection2.quadrature_points);
  certification_digest(digest, options);
  return ProgramKey{function_id, options.projection2.max_degree_x,
                    options.projection2.max_degree_y, options.sng_width,
                    digest.value(), /*arity=*/2};
}

ProgramKey make_program_key_nd(const std::string& function_id,
                               std::size_t arity,
                               const CompileOptions& options) {
  if (arity == 0) {
    throw std::invalid_argument("make_program_key_nd: zero arity");
  }
  Fnv1a digest;
  digest.u64(static_cast<std::uint64_t>(arity));
  digest.u64(options.projection_nd.max_terms);
  digest.f64(options.projection_nd.target_max_error);
  digest.u64(options.projection_nd.grid_samples);
  digest.u64(options.projection_nd.als_sweeps);
  certification_digest(digest, options);
  return ProgramKey{function_id, options.projection_nd.degree,
                    /*degree_y=*/0, options.sng_width, digest.value(), arity};
}

std::shared_ptr<const CompiledProgram> compile_function(
    const std::string& function_id, const std::function<double(double)>& f,
    const CompileOptions& options) {
  return run_pipeline(
      options,
      [&] { return project(f, options.projection); },
      [&](ProjectionResult projection) {
        QuantizationResult quantized =
            quantize(projection.poly, options.sng_width);
        return std::make_shared<CompiledProgram>(
            make_program_key(function_id, options), std::move(projection),
            std::move(quantized));
      },
      [&](const CompiledProgram& program) {
        return certify(program, f, options.certification);
      });
}

Compiler::Compiler(CompileOptions defaults, std::size_t cache_capacity)
    : defaults_(std::move(defaults)), cache_(cache_capacity) {}

std::shared_ptr<const CompiledProgram> Compiler::compile(
    const std::string& function_id, const std::function<double(double)>& f) {
  return compile(function_id, f, defaults_);
}

std::shared_ptr<const CompiledProgram> Compiler::compile(
    const std::string& function_id, const std::function<double(double)>& f,
    const CompileOptions& options) {
  const ProgramKey key = make_program_key(function_id, options);
  // Single-flight: concurrent misses on the same key run the pipeline
  // once; the other callers block on that result (the lock is never held
  // across the compile itself).
  return cache_.get_or_compile(
      key, [&] { return compile_function(function_id, f, options); });
}

std::shared_ptr<const CompiledProgram> Compiler::compile(
    const RegistryProgram& program) {
  return cache_.get_or_compile(program.key, program.build);
}

std::shared_ptr<const CompiledProgram> Compiler::compile(
    const std::string& function_id) {
  return compile(catalogue_program(function_id, defaults_, 1, 1, ""));
}

std::shared_ptr<const CompiledProgram> compile_function2(
    const std::string& function_id,
    const std::function<double(double, double)>& f,
    const CompileOptions& options) {
  return run_pipeline(
      options,
      [&] { return project2(f, options.projection2); },
      [&](ProjectionResult2 projection) {
        QuantizationResult2 quantized =
            quantize2(projection.poly, options.sng_width);
        return std::make_shared<CompiledProgram>(
            make_program_key2(function_id, options), std::move(projection),
            std::move(quantized));
      },
      [&](const CompiledProgram& program) {
        return certify2(program, f, options.certification);
      });
}

std::shared_ptr<const CompiledProgram> Compiler::compile2(
    const std::string& function_id,
    const std::function<double(double, double)>& f) {
  return compile2(function_id, f, defaults_);
}

std::shared_ptr<const CompiledProgram> Compiler::compile2(
    const std::string& function_id,
    const std::function<double(double, double)>& f,
    const CompileOptions& options) {
  const ProgramKey key = make_program_key2(function_id, options);
  return cache_.get_or_compile(
      key, [&] { return compile_function2(function_id, f, options); });
}

std::shared_ptr<const CompiledProgram> Compiler::compile2(
    const std::string& function_id) {
  return compile(
      catalogue_program(function_id, defaults_, 2, 2, "bivariate "));
}

std::shared_ptr<const CompiledProgram> compile_function_nd(
    const std::string& function_id, std::size_t arity,
    const std::function<double(const std::vector<double>&)>& f,
    const CompileOptions& options) {
  return run_pipeline(
      options,
      [&] { return project_nd(f, arity, options.projection_nd); },
      [&](ProjectionResultN projection) {
        // Per-factor quantization onto the shared SNG comparator grid,
        // then the program is rebuilt from the quantized factors (weights
        // fold arithmetically in the engine and stay unquantized).
        std::vector<QuantizationResult> factor_quant;
        std::vector<stochastic::SeparableTerm> quantized_terms;
        quantized_terms.reserve(projection.program.term_count());
        for (const stochastic::SeparableTerm& term :
             projection.program.terms()) {
          stochastic::SeparableTerm quantized_term;
          quantized_term.weight = term.weight;
          quantized_term.factors.reserve(term.factors.size());
          for (const stochastic::SeparableFactor& factor : term.factors) {
            QuantizationResult q = quantize(factor.poly, options.sng_width);
            quantized_term.factors.push_back(
                stochastic::SeparableFactor{factor.axis, q.poly});
            factor_quant.push_back(std::move(q));
          }
          quantized_terms.push_back(std::move(quantized_term));
        }
        stochastic::SeparableProgram quantized(arity,
                                               std::move(quantized_terms));
        return std::make_shared<CompiledProgram>(
            make_program_key_nd(function_id, arity, options),
            std::move(projection), std::move(factor_quant),
            std::move(quantized));
      },
      [&](const CompiledProgram& program) {
        return certify_nd(program, f, options.certification);
      });
}

std::shared_ptr<const CompiledProgram> Compiler::compile_nd(
    const std::string& function_id, std::size_t arity,
    const std::function<double(const std::vector<double>&)>& f) {
  return compile_nd(function_id, arity, f, defaults_);
}

std::shared_ptr<const CompiledProgram> Compiler::compile_nd(
    const std::string& function_id, std::size_t arity,
    const std::function<double(const std::vector<double>&)>& f,
    const CompileOptions& options) {
  const ProgramKey key = make_program_key_nd(function_id, arity, options);
  return cache_.get_or_compile(key, [&] {
    return compile_function_nd(function_id, arity, f, options);
  });
}

std::shared_ptr<const CompiledProgram> Compiler::compile_nd(
    const std::string& function_id) {
  return compile(
      catalogue_program(function_id, defaults_, 3, SIZE_MAX, "N-ary "));
}

}  // namespace oscs::compile
