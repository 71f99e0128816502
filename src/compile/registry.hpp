#pragma once
/// \file registry.hpp
/// \brief Built-in catalogue of compile targets: named [0,1] -> [0,1]
///        functions with a recommended degree cap, so examples, benches
///        and the serving path can request "sigmoid" instead of shipping a
///        lambda. All entries compile at degree <= 6 with certified MC MAE
///        <= 0.02 at 4096-bit streams (tests/compile/test_compiler.cpp).
///
/// Three typed catalogues (univariate, bivariate, N-ary) hold the
/// functions; one arity-blind lookup (find_registry_entry) finds an id in
/// whichever holds it, and registry_program() is the one place a registry
/// id becomes compile options, a cache key and a point reference - the
/// compiler, the server's prewarm and resolve paths and auto_tune all go
/// through it.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "compile/compiler.hpp"

namespace oscs::compile {

/// One named compile target.
struct RegistryFunction {
  std::string id;          ///< cache / CLI identifier
  std::string expression;  ///< human-readable formula
  std::function<double(double)> f;
  std::size_t degree = 6;  ///< recommended degree cap
};

/// The built-in catalogue (sigmoid, tanh, sin, cos, exp(-x), sqrt, x^2,
/// x^3, gamma-correction x^0.45). Stable order; built once.
[[nodiscard]] const std::vector<RegistryFunction>& function_registry();

/// Lookup by id; nullptr when unknown.
[[nodiscard]] const RegistryFunction* find_function(std::string_view id);

/// All registry ids, in catalogue order.
[[nodiscard]] std::vector<std::string> registry_ids();

/// One named bivariate compile target: [0,1]^2 -> [0,1], with per-axis
/// recommended degree caps for the tensor-product projection.
struct RegistryFunction2 {
  std::string id;          ///< cache / CLI identifier
  std::string expression;  ///< human-readable formula
  std::function<double(double, double)> f;
  std::size_t degree_x = 3;  ///< recommended x-axis degree cap
  std::size_t degree_y = 3;  ///< recommended y-axis degree cap
};

/// The built-in bivariate catalogue (mul, alpha_blend, euclid2,
/// bilinear_gamma - the image blending / gamma-corrected compositing
/// workload class). Ids are disjoint from the univariate catalogue.
/// Stable order; built once.
[[nodiscard]] const std::vector<RegistryFunction2>& function_registry2();

/// Lookup by id in the bivariate catalogue; nullptr when unknown.
[[nodiscard]] const RegistryFunction2* find_function2(std::string_view id);

/// All bivariate registry ids, in catalogue order.
[[nodiscard]] std::vector<std::string> registry2_ids();

/// One named N-ary compile target: [0,1]^arity -> [0,1], fit as a sum of
/// separable (rank-1) terms with a shared per-factor degree.
struct RegistryFunctionN {
  std::string id;          ///< cache / CLI identifier
  std::string expression;  ///< human-readable formula
  std::function<double(const std::vector<double>&)> f;
  std::size_t arity = 3;      ///< input count
  std::size_t degree = 3;     ///< recommended per-factor degree
  std::size_t max_terms = 3;  ///< recommended rank budget
};

/// The built-in N-ary catalogue (rgb_luma, trilinear_mix, smoothstep3 -
/// the three-channel pixel-pipeline workload class). Ids are disjoint
/// from both dense catalogues. Stable order; built once.
[[nodiscard]] const std::vector<RegistryFunctionN>& function_registry_nd();

/// Lookup by id in the N-ary catalogue; nullptr when unknown.
[[nodiscard]] const RegistryFunctionN* find_function_nd(std::string_view id);

/// All N-ary registry ids, in catalogue order.
[[nodiscard]] std::vector<std::string> registry_nd_ids();

/// One registry entry, whichever catalogue holds it: exactly one of
/// `fn`/`fn2`/`fn_nd` is set.
struct RegistryEntry {
  std::string id;
  std::size_t arity = 1;  ///< input count
  const RegistryFunction* fn = nullptr;      ///< univariate entries
  const RegistryFunction2* fn2 = nullptr;    ///< bivariate entries
  const RegistryFunctionN* fn_nd = nullptr;  ///< N-ary entries
};

/// Every entry of the three catalogues: univariate, then bivariate, then
/// N-ary, each in catalogue order. Built once.
[[nodiscard]] const std::vector<RegistryEntry>& registry_entries();

/// Arity-blind lookup by id; nullptr when no catalogue holds it.
[[nodiscard]] const RegistryEntry* find_registry_entry(std::string_view id);

/// A registry id made ready to compile and serve.
struct RegistryProgram {
  /// The base options with the degree caps applied: the registry's
  /// recommendation, or the request degree (which caps both axes of a
  /// bivariate entry and is an N-ary entry's factor degree). N-ary
  /// entries also take their rank budget from the registry.
  CompileOptions options{};
  ProgramKey key{};  ///< cache key of (id, options)
  /// The catalogue function over one point (one coordinate per input):
  /// the reference certificates and shadow checks compare against.
  std::function<double(const std::vector<double>&)> reference;
  /// The uncached pipeline run under `options` - what Compiler::compile
  /// caches under `key`.
  ProgramCache::Factory build;

  [[nodiscard]] std::size_t arity() const noexcept { return key.arity; }
  /// The largest degree cap, which cold-compile admission weighs (the
  /// pipeline cost grows with every axis's degree).
  [[nodiscard]] std::size_t admission_degree() const noexcept {
    return std::max(key.degree, key.degree_y);
  }
};

/// Resolve registry `id` against `base` options, with an optional request
/// `degree` overriding the recommended caps; nullopt when `id` is in no
/// catalogue.
[[nodiscard]] std::optional<RegistryProgram> registry_program(
    std::string_view id, const CompileOptions& base,
    std::optional<std::size_t> degree = std::nullopt);

}  // namespace oscs::compile
