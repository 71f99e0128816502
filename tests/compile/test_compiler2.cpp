/// Bivariate compiler pipeline tests: every tensor-product registry entry
/// compiles and certifies over the (x, y) MC grid, the cache keys on
/// (id, deg_x, deg_y, width) without cross-arity collisions, degree-0
/// axes elevate to the circuit minimum, and the bivariate auto-tuner
/// closes the loop.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "compile/autotune.hpp"
#include "compile/certify.hpp"
#include "compile/compiler.hpp"
#include "compile/registry.hpp"

namespace oscs::compile {
namespace {

namespace sc = oscs::stochastic;

CompileOptions fast_options() {
  CompileOptions options;
  options.certification.stream_length = 1024;
  options.certification.repeats = 4;
  options.certification.grid_points = 3;
  return options;
}

TEST(BivariateCompilerTest, MulCertifiesOnNineByNineGrid) {
  // Acceptance gate: MC MAE (plus its 95% CI) <= 0.02 at 4096-bit
  // streams over a 9x9 (x, y) grid.
  CompileOptions options;
  options.projection2.max_degree_x = 1;
  options.projection2.max_degree_y = 1;
  options.certification.stream_length = 4096;
  options.certification.grid_points = 9;
  options.certification.repeats = 8;
  const auto program = compile_function2(
      "mul", [](double x, double y) { return x * y; }, options);
  ASSERT_TRUE(program->certification().has_value());
  const Certification& cert = *program->certification();
  EXPECT_EQ(cert.grid_points, 9u);
  EXPECT_EQ(cert.op.stream_length, 4096u);
  EXPECT_LE(cert.mc_mae + cert.mc_mae_ci, 0.02);
  EXPECT_LT(cert.approx_max_error, 1e-4);  // bilinear: exact up to quantization
}

TEST(BivariateCompilerTest, AlphaBlendCertifiesOnNineByNineGrid) {
  CompileOptions options;
  options.certification.stream_length = 4096;
  options.certification.grid_points = 9;
  options.certification.repeats = 8;
  const RegistryFunction2* fn = find_function2("alpha_blend");
  ASSERT_NE(fn, nullptr);
  options.projection2.max_degree_x = fn->degree_x;
  options.projection2.max_degree_y = fn->degree_y;
  const auto program = compile_function2(fn->id, fn->f, options);
  ASSERT_TRUE(program->certification().has_value());
  EXPECT_LE(program->certification()->mc_mae +
                program->certification()->mc_mae_ci,
            0.02);
}

TEST(BivariateCompilerTest, EveryRegistryEntryCompilesAndCertifies) {
  Compiler compiler(fast_options());
  for (const RegistryFunction2& fn : function_registry2()) {
    const auto program = compiler.compile2(fn.id);
    ASSERT_NE(program, nullptr) << fn.id;
    EXPECT_TRUE(program->is_bivariate()) << fn.id;
    EXPECT_GE(program->circuit_order(), 1u) << fn.id;
    EXPECT_GE(program->circuit_order_y(), 1u) << fn.id;
    ASSERT_TRUE(program->certification().has_value()) << fn.id;
    EXPECT_LE(program->certification()->mc_mae, 0.03) << fn.id;
    EXPECT_TRUE(program->poly2().is_sc_compatible(1e-12)) << fn.id;
  }
  EXPECT_EQ(registry2_ids().size(), function_registry2().size());
}

TEST(BivariateCompilerTest, CacheKeysOnBothAxisDegrees) {
  Compiler compiler(fast_options());
  CompileOptions a = fast_options();
  a.projection2.max_degree_x = 2;
  a.projection2.max_degree_y = 2;
  CompileOptions b = a;
  b.projection2.max_degree_y = 3;
  const auto f = [](double x, double y) { return x * y; };
  const auto pa = compiler.compile2("mul", f, a);
  const auto pb = compiler.compile2("mul", f, b);
  EXPECT_NE(pa.get(), pb.get());  // distinct keys -> distinct programs
  const auto pa_again = compiler.compile2("mul", f, a);
  EXPECT_EQ(pa.get(), pa_again.get());  // warm hit
  EXPECT_EQ(compiler.cache().stats().inserts, 2u);
  EXPECT_EQ(compiler.cache().stats().hits, 1u);
}

TEST(BivariateCompilerTest, ArityNeverCollidesInTheCache) {
  Compiler compiler(fast_options());
  // Same id, same degree fields: the univariate "square" key and a
  // bivariate key with degree_y = 0 would be the closest possible clash.
  const auto uni =
      compiler.compile("clash", [](double x) { return x * x; });
  CompileOptions b = fast_options();
  b.projection2.max_degree_x = compiler.defaults().projection.max_degree;
  b.projection2.max_degree_y = 1;
  const auto biv = compiler.compile2(
      "clash", [](double x, double y) { return x * y; }, b);
  EXPECT_FALSE(uni->is_bivariate());
  EXPECT_TRUE(biv->is_bivariate());
  EXPECT_NE(uni.get(), biv.get());
  EXPECT_EQ(compiler.cache().stats().inserts, 2u);
}

TEST(BivariateCompilerTest, DegreeZeroAxesElevateToCircuitMinimum) {
  CompileOptions options = fast_options();
  options.certify = false;
  options.projection2.min_degree_x = 0;
  options.projection2.max_degree_x = 0;
  options.projection2.min_degree_y = 0;
  options.projection2.max_degree_y = 0;
  const auto program = compile_function2(
      "constant2", [](double, double) { return 0.4; }, options);
  EXPECT_TRUE(program->elevated());
  EXPECT_EQ(program->report().degrees, (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(program->circuit_order(), 1u);
  EXPECT_EQ(program->circuit_order_y(), 1u);
  EXPECT_NEAR(program->poly2()(0.3, 0.8), 0.4, 1e-4);
}

TEST(BivariateCompilerTest, UnknownRegistryIdThrows) {
  Compiler compiler(fast_options());
  EXPECT_THROW((void)compiler.compile2("no_such_fn"), std::invalid_argument);
}

TEST(BivariateCompilerTest, Certify2RejectsUnivariatePrograms) {
  Compiler compiler(fast_options());
  const auto uni = compiler.compile("square", [](double x) { return x * x; });
  EXPECT_THROW((void)certify2(*uni, [](double x, double y) { return x * y; }),
               std::invalid_argument);
}

TEST(BivariateCompilerTest, BivariateAccessorsThrowOnUnivariatePrograms) {
  Compiler compiler(fast_options());
  const auto uni = compiler.compile("square", [](double x) { return x * x; });
  EXPECT_THROW((void)uni->poly2(), std::exception);
  EXPECT_THROW((void)uni->program_nd(), std::exception);
  EXPECT_EQ(uni->report().degrees.size(), 1u);
}

TEST(BivariateCompilerTest, UnivariateAccessorsThrowOnBivariatePrograms) {
  Compiler compiler(fast_options());
  const auto biv = compiler.compile2(
      "mul2", [](double x, double y) { return x * y; });
  EXPECT_THROW((void)biv->poly(), std::exception);
  EXPECT_THROW((void)biv->program_nd(), std::exception);
  EXPECT_EQ(biv->report().degrees.size(), 2u);
  EXPECT_TRUE(biv->report().term_errors.empty());
  EXPECT_EQ(&biv->poly2(), &biv->program().dense2());
}

TEST(BivariateAutoTuneTest, MulMeetsBudgetCheaply) {
  AutoTuneOptions options;
  options.degrees = {1, 2};
  options.widths = {8, 16};
  options.stream_lengths = {1024, 4096};
  options.repeats = 4;
  options.grid_points = 3;
  const AutoTuneResult result = auto_tune("mul", 0.02, options);
  EXPECT_TRUE(result.met);
  EXPECT_EQ(result.chosen.degree, 1u);  // cheapest candidate wins
  ASSERT_NE(result.program, nullptr);
  EXPECT_TRUE(result.program->is_bivariate());
  EXPECT_FALSE(result.trace.empty());
}

TEST(BivariateAutoTuneTest, RejectsBadInputs) {
  EXPECT_THROW((void)auto_tune("mul", 0.0), std::invalid_argument);
  EXPECT_THROW((void)auto_tune("no_such_fn", 0.02), std::invalid_argument);
}

}  // namespace
}  // namespace oscs::compile
