/// \file test_registry.cpp
/// \brief The arity-blind registry surface: one entry per id across the
///        univariate, bivariate and N-ary catalogues, registry_program()
///        applying the recommended caps (or a request degree) exactly as
///        the per-arity key functions do, the by-id compile forwards each
///        serving one catalogue, and auto_tune over every catalogue.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "compile/autotune.hpp"
#include "compile/registry.hpp"

namespace oscs::compile {
namespace {

CompileOptions uncertified() {
  CompileOptions options;
  options.certify = false;
  return options;
}

TEST(RegistryLookup, OneEntryPerIdAcrossCatalogues) {
  const std::vector<RegistryEntry>& entries = registry_entries();
  ASSERT_EQ(entries.size(), registry_ids().size() + registry2_ids().size() +
                                registry_nd_ids().size());
  for (const RegistryEntry& entry : entries) {
    EXPECT_EQ(find_registry_entry(entry.id), &entry) << entry.id;
    const int typed = (entry.fn != nullptr) + (entry.fn2 != nullptr) +
                      (entry.fn_nd != nullptr);
    EXPECT_EQ(typed, 1) << entry.id;
    const std::size_t arity = entry.fn != nullptr    ? 1
                              : entry.fn2 != nullptr ? 2
                                                     : entry.fn_nd->arity;
    EXPECT_EQ(entry.arity, arity) << entry.id;
  }
  EXPECT_EQ(entries.front().id, registry_ids().front());
  EXPECT_EQ(entries.back().id, registry_nd_ids().back());
  EXPECT_EQ(find_registry_entry("no_such_fn"), nullptr);
  EXPECT_FALSE(registry_program("no_such_fn", CompileOptions{}).has_value());
}

TEST(RegistryLookup, ProgramCarriesThePerArityKeyAndReference) {
  const CompileOptions base = uncertified();
  for (const std::optional<std::size_t> degree :
       {std::optional<std::size_t>{}, std::optional<std::size_t>{2}}) {
    for (const RegistryEntry& entry : registry_entries()) {
      const std::optional<RegistryProgram> program =
          registry_program(entry.id, base, degree);
      ASSERT_TRUE(program.has_value()) << entry.id;
      EXPECT_EQ(program->arity(), entry.arity) << entry.id;
      CompileOptions expected = base;
      ProgramKey key;
      std::size_t admission = 0;
      double reference = 0.0;
      const std::vector<double> point = {0.3, 0.6, 0.9};
      if (entry.fn != nullptr) {
        expected.projection.max_degree = degree.value_or(entry.fn->degree);
        key = make_program_key(entry.id, expected);
        admission = expected.projection.max_degree;
        reference = entry.fn->f(point[0]);
      } else if (entry.fn2 != nullptr) {
        expected.projection2.max_degree_x =
            degree.value_or(entry.fn2->degree_x);
        expected.projection2.max_degree_y =
            degree.value_or(entry.fn2->degree_y);
        key = make_program_key2(entry.id, expected);
        admission = std::max(expected.projection2.max_degree_x,
                             expected.projection2.max_degree_y);
        reference = entry.fn2->f(point[0], point[1]);
      } else {
        expected.projection_nd.degree = degree.value_or(entry.fn_nd->degree);
        expected.projection_nd.max_terms = entry.fn_nd->max_terms;
        key = make_program_key_nd(entry.id, entry.arity, expected);
        admission = expected.projection_nd.degree;
        reference = entry.fn_nd->f(point);
      }
      EXPECT_EQ(program->key, key) << entry.id;
      EXPECT_EQ(program->admission_degree(), admission) << entry.id;
      EXPECT_EQ(program->reference(point), reference) << entry.id;
    }
  }
}

TEST(RegistryLookup, CompilerCachesTheProgramUnderItsKey) {
  Compiler compiler(uncertified());
  const std::optional<RegistryProgram> program =
      registry_program("alpha_blend", compiler.defaults());
  ASSERT_TRUE(program.has_value());
  const auto compiled = compiler.compile(*program);
  EXPECT_EQ(compiled->key(), program->key);
  EXPECT_TRUE(compiler.cache().contains(program->key));
  // The by-id forward resolves to the same key: a cache hit.
  EXPECT_EQ(compiler.compile2("alpha_blend").get(), compiled.get());
}

TEST(RegistryLookup, ByIdForwardsServeOneCatalogueEach) {
  Compiler compiler(uncertified());
  const auto message_of = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(message_of([&] { (void)compiler.compile("mul"); }),
            "Compiler: unknown registry function 'mul'");
  EXPECT_EQ(message_of([&] { (void)compiler.compile2("rgb_luma"); }),
            "Compiler: unknown bivariate registry function 'rgb_luma'");
  EXPECT_EQ(message_of([&] { (void)compiler.compile_nd("sigmoid"); }),
            "Compiler: unknown N-ary registry function 'sigmoid'");
}

TEST(RegistryAutoTune, TunesAnNaryEntry) {
  AutoTuneOptions options;
  options.degrees = {2};
  options.widths = {8};
  options.stream_lengths = {256};
  options.repeats = 2;
  options.grid_points = 2;
  const AutoTuneResult result = auto_tune("rgb_luma", 0.5, options);
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_TRUE(result.met);
  ASSERT_NE(result.program, nullptr);
  EXPECT_EQ(result.program->arity(), 3u);
  EXPECT_EQ(result.chosen.degree, 2u);
  EXPECT_EQ(result.chosen.cost, 256.0 * 27.0 * 8.0);  // length (d+1)^3 width
}

}  // namespace
}  // namespace oscs::compile
