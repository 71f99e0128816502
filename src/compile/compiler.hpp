#pragma once
/// \file compiler.hpp
/// \brief The function-to-Bernstein compiler facade. One call runs the
///        whole pipeline - projection (degree auto-selection + bound-
///        constrained least squares), quantization to the SNG grid,
///        codegen (circuit + packed kernel), Monte-Carlo certification -
///        and memoizes the result in an LRU program cache keyed by
///        (function id, degree cap, SNG width), so repeated requests are
///        served without re-solving.

#include <functional>
#include <memory>
#include <string>

#include "compile/cache.hpp"
#include "compile/certify.hpp"
#include "compile/fit.hpp"
#include "compile/program.hpp"

namespace oscs::compile {

struct RegistryProgram;  // compile/registry.hpp

/// Per-request (and compiler-default) pipeline controls. `projection`
/// steers univariate compiles, `projection2` the bivariate path - one
/// options struct serves both arities so the server can carry a single
/// defaults object.
struct CompileOptions {
  ProjectionOptions projection{};
  ProjectionOptions2 projection2{};  ///< bivariate (tensor-product) path
  ProjectionOptionsN projection_nd{};  ///< N-ary separable (ALS) path
  unsigned sng_width = 16;  ///< quantization / SNG resolution [bits]
  bool certify = true;      ///< run the MC certification stage
  CertificationOptions certification{};
};

/// Cache key for a request: (function id, degree cap, SNG width) plus a
/// digest of every other option that changes the compiled program, so
/// option drift between requests can never serve a stale hit. Every
/// arity's key carries the arity both as an explicit field and as the
/// digest's leading salt, so keys of different arity can never collide
/// even with equal degree/width fields.
[[nodiscard]] ProgramKey make_program_key(const std::string& function_id,
                                          const CompileOptions& options);

/// Bivariate cache key: (function id, degree_x, degree_y, SNG width) plus
/// the arity-salted options digest.
[[nodiscard]] ProgramKey make_program_key2(const std::string& function_id,
                                           const CompileOptions& options);

/// N-ary cache key: (function id, factor degree, SNG width, arity) plus
/// the arity-salted options digest.
/// \throws std::invalid_argument on arity < 1.
[[nodiscard]] ProgramKey make_program_key_nd(const std::string& function_id,
                                             std::size_t arity,
                                             const CompileOptions& options);

/// Thread-safe compile service with a program cache.
class Compiler {
 public:
  /// \throws std::invalid_argument on zero cache capacity.
  explicit Compiler(CompileOptions defaults = {},
                    std::size_t cache_capacity = 16);

  /// Compile `f` under the given cache id with the compiler defaults.
  /// A cache hit (same id, degree cap, width) skips the whole pipeline;
  /// concurrent misses on one key are single-flighted - the pipeline runs
  /// once and every caller shares the result.
  [[nodiscard]] std::shared_ptr<const CompiledProgram> compile(
      const std::string& function_id, const std::function<double(double)>& f);

  /// Same, with per-request options.
  [[nodiscard]] std::shared_ptr<const CompiledProgram> compile(
      const std::string& function_id, const std::function<double(double)>& f,
      const CompileOptions& options);

  /// Compile a resolved registry program (see registry_program()) under
  /// its own key and options.
  [[nodiscard]] std::shared_ptr<const CompiledProgram> compile(
      const RegistryProgram& program);

  /// Compile a univariate registry entry by id at the compiler defaults;
  /// its recommended degree becomes the degree cap.
  /// \throws std::invalid_argument on an id outside the univariate
  ///         catalogue.
  [[nodiscard]] std::shared_ptr<const CompiledProgram> compile(
      const std::string& function_id);

  /// Compile a bivariate `f` under the given cache id with the compiler
  /// defaults. Shares the cache (and its single-flight miss handling)
  /// with the univariate path; keys can never collide across arities.
  [[nodiscard]] std::shared_ptr<const CompiledProgram> compile2(
      const std::string& function_id,
      const std::function<double(double, double)>& f);

  /// Same, with per-request options.
  [[nodiscard]] std::shared_ptr<const CompiledProgram> compile2(
      const std::string& function_id,
      const std::function<double(double, double)>& f,
      const CompileOptions& options);

  /// Compile a bivariate registry entry by id at the compiler defaults;
  /// its recommended per-axis degrees become the degree caps.
  /// \throws std::invalid_argument on an id outside the bivariate
  ///         catalogue.
  [[nodiscard]] std::shared_ptr<const CompiledProgram> compile2(
      const std::string& function_id);

  /// Compile an N-ary `f` (sum-of-separable projection) under the given
  /// cache id with the compiler defaults. Shares the cache and its
  /// single-flight miss handling with the dense paths; keys can never
  /// collide across arities.
  [[nodiscard]] std::shared_ptr<const CompiledProgram> compile_nd(
      const std::string& function_id, std::size_t arity,
      const std::function<double(const std::vector<double>&)>& f);

  /// Same, with per-request options.
  [[nodiscard]] std::shared_ptr<const CompiledProgram> compile_nd(
      const std::string& function_id, std::size_t arity,
      const std::function<double(const std::vector<double>&)>& f,
      const CompileOptions& options);

  /// Compile an N-ary registry entry by id at the compiler defaults; its
  /// recommended factor degree and rank budget become the projection caps.
  /// \throws std::invalid_argument on an id outside the N-ary catalogue.
  [[nodiscard]] std::shared_ptr<const CompiledProgram> compile_nd(
      const std::string& function_id);

  [[nodiscard]] const CompileOptions& defaults() const noexcept {
    return defaults_;
  }
  [[nodiscard]] ProgramCache& cache() noexcept { return cache_; }
  [[nodiscard]] const ProgramCache& cache() const noexcept { return cache_; }

 private:
  CompileOptions defaults_;
  ProgramCache cache_;
};

/// Uncached single-shot pipeline run (projection -> quantization ->
/// codegen -> optional certification). The building block Compiler wraps.
[[nodiscard]] std::shared_ptr<const CompiledProgram> compile_function(
    const std::string& function_id, const std::function<double(double)>& f,
    const CompileOptions& options = {});

/// Uncached single-shot bivariate pipeline run (tensor-product projection
/// -> grid quantization -> two-input codegen -> optional (x, y)-grid
/// certification). The building block Compiler::compile2 wraps.
[[nodiscard]] std::shared_ptr<const CompiledProgram> compile_function2(
    const std::string& function_id,
    const std::function<double(double, double)>& f,
    const CompileOptions& options = {});

/// Uncached single-shot N-ary pipeline run (ALS sum-of-separable
/// projection -> per-factor quantization -> univariate codegen at the
/// factor order -> optional N-D grid certification). The building block
/// Compiler::compile_nd wraps.
[[nodiscard]] std::shared_ptr<const CompiledProgram> compile_function_nd(
    const std::string& function_id, std::size_t arity,
    const std::function<double(const std::vector<double>&)>& f,
    const CompileOptions& options = {});

}  // namespace oscs::compile
