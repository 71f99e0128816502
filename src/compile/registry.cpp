#include "compile/registry.hpp"

#include <cmath>

namespace oscs::compile {

namespace {

template <typename Catalogue>
std::vector<std::string> ids_of(const Catalogue& catalogue) {
  std::vector<std::string> ids;
  ids.reserve(catalogue.size());
  for (const auto& fn : catalogue) ids.push_back(fn.id);
  return ids;
}

}  // namespace

const std::vector<RegistryFunction>& function_registry() {
  // Every entry maps [0,1] into [0,1] so the Bernstein coefficients stay
  // implementable without heavy constraint distortion; steep or
  // singular-derivative targets (sigmoid, sqrt) are the interesting
  // stress cases for the degree selector.
  static const std::vector<RegistryFunction> kRegistry = {
      {"sigmoid", "1 / (1 + exp(-6(x - 1/2)))",
       [](double x) { return 1.0 / (1.0 + std::exp(-6.0 * (x - 0.5))); }, 6},
      {"tanh", "tanh(2x)", [](double x) { return std::tanh(2.0 * x); }, 6},
      {"sin", "sin(pi x / 2)",
       [](double x) { return std::sin(M_PI * x / 2.0); }, 5},
      {"cos", "cos(pi x / 2)",
       [](double x) { return std::cos(M_PI * x / 2.0); }, 5},
      {"exp_neg", "exp(-x)", [](double x) { return std::exp(-x); }, 4},
      {"sqrt", "sqrt(x)", [](double x) { return std::sqrt(x); }, 6},
      {"square", "x^2", [](double x) { return x * x; }, 2},
      {"cube", "x^3", [](double x) { return x * x * x; }, 3},
      {"gamma", "x^0.45 (display gamma correction)",
       [](double x) { return std::pow(x, 0.45); }, 6},
  };
  return kRegistry;
}

const RegistryFunction* find_function(std::string_view id) {
  const RegistryEntry* entry = find_registry_entry(id);
  return entry == nullptr ? nullptr : entry->fn;
}

std::vector<std::string> registry_ids() { return ids_of(function_registry()); }

const std::vector<RegistryFunction2>& function_registry2() {
  // The image-compositing workload class the tensor-product ReSC opens:
  // every entry maps the unit square into [0,1]. mul and alpha_blend are
  // exactly bilinear (degree (1,1) representable with coefficients on the
  // corners), euclid2 and bilinear_gamma stress the per-axis degree
  // selector the way sqrt/gamma do in the univariate catalogue.
  static const std::vector<RegistryFunction2> kRegistry = {
      {"mul", "x * y", [](double x, double y) { return x * y; }, 1, 1},
      {"alpha_blend", "y * x + (1 - y) * 0.25 (pixel x over background "
       "0.25 with alpha y)",
       [](double x, double y) { return y * x + (1.0 - y) * 0.25; }, 1, 1},
      {"euclid2", "sqrt((x^2 + y^2) / 2)",
       [](double x, double y) { return std::sqrt((x * x + y * y) / 2.0); },
       4, 4},
      {"bilinear_gamma", "((x + y) / 2)^0.45 (gamma-corrected compositing)",
       [](double x, double y) { return std::pow((x + y) / 2.0, 0.45); }, 5,
       5},
  };
  return kRegistry;
}

const RegistryFunction2* find_function2(std::string_view id) {
  const RegistryEntry* entry = find_registry_entry(id);
  return entry == nullptr ? nullptr : entry->fn2;
}

std::vector<std::string> registry2_ids() {
  return ids_of(function_registry2());
}

const std::vector<RegistryFunctionN>& function_registry_nd() {
  // Three-input pixel-pipeline targets, all exactly representable as a
  // short sum of separable terms with nonnegative weights - the workload
  // class the N-ary model opens: rgb_luma is rank 3 (three linear
  // factors), trilinear_mix rank 2, smoothstep3 rank 1 (a cubic factor
  // per axis).
  static const std::vector<RegistryFunctionN> kRegistry = {
      {"rgb_luma", "0.2126 r + 0.7152 g + 0.0722 b (BT.709 luma)",
       [](const std::vector<double>& p) {
         return 0.2126 * p[0] + 0.7152 * p[1] + 0.0722 * p[2];
       },
       3, 3, 3},
      {"trilinear_mix", "x (1 - z) + y z (lerp of x, y by z)",
       [](const std::vector<double>& p) {
         return p[0] * (1.0 - p[2]) + p[1] * p[2];
       },
       3, 3, 2},
      {"smoothstep3", "s(x) s(y) s(z), s(t) = 3t^2 - 2t^3",
       [](const std::vector<double>& p) {
         const auto s = [](double t) { return t * t * (3.0 - 2.0 * t); };
         return s(p[0]) * s(p[1]) * s(p[2]);
       },
       3, 3, 2},
  };
  return kRegistry;
}

const RegistryFunctionN* find_function_nd(std::string_view id) {
  const RegistryEntry* entry = find_registry_entry(id);
  return entry == nullptr ? nullptr : entry->fn_nd;
}

std::vector<std::string> registry_nd_ids() {
  return ids_of(function_registry_nd());
}

const std::vector<RegistryEntry>& registry_entries() {
  static const std::vector<RegistryEntry> kEntries = [] {
    std::vector<RegistryEntry> entries;
    for (const RegistryFunction& fn : function_registry()) {
      entries.push_back({fn.id, 1, &fn, nullptr, nullptr});
    }
    for (const RegistryFunction2& fn : function_registry2()) {
      entries.push_back({fn.id, 2, nullptr, &fn, nullptr});
    }
    for (const RegistryFunctionN& fn : function_registry_nd()) {
      entries.push_back({fn.id, fn.arity, nullptr, nullptr, &fn});
    }
    return entries;
  }();
  return kEntries;
}

const RegistryEntry* find_registry_entry(std::string_view id) {
  for (const RegistryEntry& entry : registry_entries()) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

std::optional<RegistryProgram> registry_program(
    std::string_view id, const CompileOptions& base,
    std::optional<std::size_t> degree) {
  const RegistryEntry* entry = find_registry_entry(id);
  if (entry == nullptr) return std::nullopt;
  RegistryProgram program;
  CompileOptions& options = program.options;
  options = base;
  // The catalogues are function-local statics, so the closures below may
  // hold plain pointers into them.
  if (const RegistryFunction* fn = entry->fn) {
    options.projection.max_degree = degree.value_or(fn->degree);
    program.key = make_program_key(fn->id, options);
    program.reference = [fn](const std::vector<double>& p) {
      return fn->f(p[0]);
    };
    program.build = [fn, options] {
      return compile_function(fn->id, fn->f, options);
    };
  } else if (const RegistryFunction2* fn2 = entry->fn2) {
    options.projection2.max_degree_x = degree.value_or(fn2->degree_x);
    options.projection2.max_degree_y = degree.value_or(fn2->degree_y);
    program.key = make_program_key2(fn2->id, options);
    program.reference = [fn2](const std::vector<double>& p) {
      return fn2->f(p[0], p[1]);
    };
    program.build = [fn2, options] {
      return compile_function2(fn2->id, fn2->f, options);
    };
  } else {
    const RegistryFunctionN* fn_nd = entry->fn_nd;
    options.projection_nd.degree = degree.value_or(fn_nd->degree);
    options.projection_nd.max_terms = fn_nd->max_terms;
    program.key = make_program_key_nd(fn_nd->id, fn_nd->arity, options);
    program.reference = [fn_nd](const std::vector<double>& p) {
      return fn_nd->f(p);
    };
    program.build = [fn_nd, options] {
      return compile_function_nd(fn_nd->id, fn_nd->arity, fn_nd->f, options);
    };
  }
  return program;
}

}  // namespace oscs::compile
