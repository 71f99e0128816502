/// \file test_fit_nd.cpp
/// \brief Compile-layer tests for the N-ary separable path: the ALS
///        sum-of-separable projection, the arity-salted cache key (the
///        cross-arity collision regression), the compile_nd pipeline +
///        cache, and the ISSUE acceptance bar - every function in the
///        3-input registry certifies to <= 0.03 MC MAE at 4096-bit
///        streams with the noise model on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "compile/certify.hpp"
#include "compile/compiler.hpp"
#include "compile/fit.hpp"
#include "compile/registry.hpp"

namespace oscs::compile {
namespace {

// ------------------------------------------------------------- projection

TEST(SeparableFitTest, RecoversARankOneProduct) {
  // x*y*z is exactly one rank-1 term of degree-1 factors.
  const auto f = [](const std::vector<double>& p) {
    return p[0] * p[1] * p[2];
  };
  ProjectionOptionsN options;
  options.degree = 2;
  options.max_terms = 2;
  const ProjectionResultN result = project_nd(f, 3, options);
  EXPECT_EQ(result.arity, 3u);
  EXPECT_TRUE(result.target_met);
  EXPECT_LE(result.max_error, options.target_max_error);
  EXPECT_TRUE(result.program.is_sc_compatible(1e-9));
  for (double x : {0.2, 0.7}) {
    for (double y : {0.3, 0.9}) {
      EXPECT_NEAR(result.program({x, y, 0.5}), x * y * 0.5, 0.03);
    }
  }
}

TEST(SeparableFitTest, FitsARankTwoMixAndReportsTrajectory) {
  // x(1-z) + yz needs two rank-1 terms; the trajectory must cover every
  // term actually used and never get worse as terms are added.
  const auto f = [](const std::vector<double>& p) {
    return p[0] * (1.0 - p[2]) + p[1] * p[2];
  };
  const ProjectionResultN result = project_nd(f, 3, {});
  EXPECT_LE(result.max_error, 0.05);
  ASSERT_GE(result.terms, 1u);
  ASSERT_EQ(result.term_errors.size(), result.terms);
  for (std::size_t t = 1; t < result.term_errors.size(); ++t) {
    EXPECT_LE(result.term_errors[t], result.term_errors[t - 1] + 1e-9);
  }
  EXPECT_NEAR(result.program({0.3, 0.8, 0.6}), 0.6, 0.06);
}

TEST(SeparableFitTest, RejectsInvalidOptionsAndArity) {
  const auto f = [](const std::vector<double>& p) { return p[0]; };
  ProjectionOptionsN zero_degree;
  zero_degree.degree = 0;
  EXPECT_THROW(project_nd(f, 1, zero_degree), std::invalid_argument);
  ProjectionOptionsN zero_terms;
  zero_terms.max_terms = 0;
  EXPECT_THROW(project_nd(f, 1, zero_terms), std::invalid_argument);
  EXPECT_THROW(project_nd(f, 0, {}), std::invalid_argument);
}

TEST(SeparableFitTest, RejectsAGridBeyondThePointCap) {
  // 16 samples over 16 axes is 2^64 points: the unchecked product wrapped
  // to an empty grid and returned a zero program with target_met set.
  const auto f = [](const std::vector<double>& p) { return p[0]; };
  try {
    (void)project_nd(f, 16, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("arity 16"), std::string::npos) << message;
    EXPECT_NE(message.find("grid_samples 16"), std::string::npos) << message;
  }
  // Past the 2^20-point cap without wrapping: 16^6, and 1025^2 (just
  // over 2^20).
  EXPECT_THROW((void)project_nd(f, 6, {}), std::invalid_argument);
  ProjectionOptionsN dense;
  dense.grid_samples = 1025;
  EXPECT_THROW((void)project_nd(f, 2, dense), std::invalid_argument);
  // A wide but coarse grid stays accepted.
  ProjectionOptionsN coarse;
  coarse.degree = 1;
  coarse.grid_samples = 3;
  coarse.max_terms = 1;
  const ProjectionResultN wide = project_nd(f, 6, coarse);
  EXPECT_EQ(wide.arity, 6u);
  EXPECT_TRUE(wide.target_met);
}

TEST(SeparableFitTest, EveryBasisSizeReproducesThePinnedFit) {
  // The factor normal equations have a register-resident kernel for the
  // 4-function basis (degree 3, pinned by ProjectionGolden) and a generic
  // one for every other size (all four degrees here); each must reproduce
  // the original accumulation bit for bit. Pinned: rank, then max and L2
  // error in hex-float.
  struct Case {
    std::size_t degree;
    std::size_t terms;
    const char* max_error;
    const char* l2_error;
  };
  const Case cases[] = {
      {1, 2, "0x1.4509d4edd400cp-4", "0x1.1497ea4e5d55bp-5"},
      {4, 2, "0x1.ac05be44b6e6p-7", "0x1.380c1b1fa8e58p-9"},
      {5, 2, "0x1.374362fb95855p-3", "0x1.2e3ebeaa19044p-5"},
      {7, 2, "0x1.108652085621ap-3", "0x1.f77f893233e2bp-6"},
  };
  const auto f = [](const std::vector<double>& p) {
    return (p[0] + p[1] * p[1] + p[2] * p[0]) / 3.0;
  };
  for (const Case& c : cases) {
    ProjectionOptionsN options;
    options.degree = c.degree;
    options.max_terms = 2;
    options.grid_samples = 9;
    options.target_max_error = 1e-6;
    const ProjectionResultN r = project_nd(f, 3, options);
    char max_error[40];
    char l2_error[40];
    std::snprintf(max_error, sizeof(max_error), "%a", r.max_error);
    std::snprintf(l2_error, sizeof(l2_error), "%a", r.l2_error);
    EXPECT_EQ(r.terms, c.terms) << "degree " << c.degree;
    EXPECT_STREQ(max_error, c.max_error) << "degree " << c.degree;
    EXPECT_STREQ(l2_error, c.l2_error) << "degree " << c.degree;
  }
}

// -------------------------------------------------- arity-salted cache key

/// Satellite regression: keys of different arity must never collide, even
/// when every explicit degree/width field coincides - the digest's leading
/// arity salt is what separates them.
TEST(SeparableKeyTest, CrossArityKeysNeverCollide) {
  CompileOptions options;
  options.projection.max_degree = 3;
  options.projection_nd.degree = 3;  // same explicit degree field as above

  const ProgramKey k1 = make_program_key("f", options);
  const ProgramKey k2 = make_program_key2("f", options);
  const ProgramKey knd1 = make_program_key_nd("f", 1, options);
  const ProgramKey knd3 = make_program_key_nd("f", 3, options);
  const ProgramKey knd4 = make_program_key_nd("f", 4, options);

  // The univariate key and the arity-1 separable key agree on every
  // explicit field (degree 3, degree_y 0, same width, arity 1): only the
  // options digest keeps them apart.
  EXPECT_EQ(k1.degree, knd1.degree);
  EXPECT_EQ(k1.degree_y, knd1.degree_y);
  EXPECT_EQ(k1.width, knd1.width);
  EXPECT_EQ(k1.arity, knd1.arity);
  EXPECT_NE(k1.options_digest, knd1.options_digest);
  EXPECT_NE(k1, knd1);

  // Arity is explicit in the key AND salted into the digest.
  EXPECT_NE(knd3, knd4);
  EXPECT_NE(knd3.options_digest, knd4.options_digest);
  EXPECT_NE(k1, k2);
  EXPECT_NE(k2, knd3);
  EXPECT_EQ(knd3.arity, 3u);

  EXPECT_THROW(make_program_key_nd("f", 0, options), std::invalid_argument);
}

// --------------------------------------------------------------- compiler

CompileOptions fast_options() {
  CompileOptions options;
  options.certify = false;
  return options;
}

TEST(SeparableCompilerTest, CompileNdProducesARunnableProgram) {
  Compiler compiler(fast_options());
  const auto program = compiler.compile_nd("trilinear_mix");
  ASSERT_NE(program, nullptr);
  EXPECT_TRUE(program->is_nd());
  EXPECT_FALSE(program->is_bivariate());
  EXPECT_EQ(program->arity(), 3u);
  EXPECT_EQ(program->circuit_order(), program->program_nd().factor_degree());
  ASSERT_NE(program->kernel(), nullptr);
  // Quantization keeps every factor on the SNG grid inside [0,1].
  EXPECT_TRUE(program->program_nd().is_sc_compatible(1e-12));
  EXPECT_FALSE(program->factor_quantizations().empty());
  // The quantized program still tracks the reference arithmetic.
  const RegistryFunctionN* fn = find_function_nd("trilinear_mix");
  ASSERT_NE(fn, nullptr);
  const std::vector<double> point{0.3, 0.8, 0.6};
  EXPECT_NEAR(program->program_nd()(point), fn->f(point), 0.08);
}

TEST(SeparableCompilerTest, DenseAccessorsThrowAndRunTakesThePoint) {
  Compiler compiler(fast_options());
  const auto program = compiler.compile_nd("trilinear_mix");
  EXPECT_THROW((void)program->poly(), std::exception);
  EXPECT_THROW((void)program->projection(), std::exception);
  EXPECT_THROW((void)program->poly2(), std::exception);
  EXPECT_THROW((void)program->projection2(), std::exception);
  EXPECT_EQ(&program->program_nd(), &program->program());
  EXPECT_EQ(program->circuit_order_y(), 0u);

  engine::PackedRunConfig config;
  config.op = program->design_point().with_stream_length(4096).noiseless();
  const std::vector<double> point{0.3, 0.8, 0.6};
  const engine::PackedRunResult r = program->run(point, config);
  EXPECT_EQ(r.length, 4096u);
  EXPECT_NEAR(r.optical_estimate, program->program()(point), 0.08);
  EXPECT_THROW((void)program->run({0.3, 0.8}, config), std::invalid_argument);
}

TEST(SeparableCompilerTest, CompileNdHitsTheSharedCache) {
  Compiler compiler(fast_options());
  const auto first = compiler.compile_nd("rgb_luma");
  const auto second = compiler.compile_nd("rgb_luma");
  EXPECT_EQ(first.get(), second.get());  // same cached instance
  // A different N-ary id is a distinct program.
  EXPECT_NE(first.get(), compiler.compile_nd("smoothstep3").get());
  EXPECT_THROW(compiler.compile_nd("no_such_fn_nd"), std::invalid_argument);
}

TEST(SeparableCompilerTest, CertifyNdRejectsDensePrograms) {
  Compiler compiler(fast_options());
  const auto dense = compiler.compile(
      "identity_for_nd_test", [](double x) { return x; });
  const auto f = [](const std::vector<double>& p) { return p[0]; };
  EXPECT_THROW((void)certify_nd(*dense, f), std::invalid_argument);
}

// ------------------------------------------------------------- acceptance

/// The ISSUE acceptance bar: every 3-input registry function, compiled at
/// its recommended degree/rank, certifies to <= 0.03 MC MAE on 4096-bit
/// streams through certify_nd with the receiver noise model enabled.
TEST(SeparableCompilerAcceptance, RegistryCertifiesUnderBudgetAt4096Bits) {
  Compiler compiler(fast_options());
  CertificationOptions cert;
  cert.stream_length = 4096;
  cert.repeats = 8;
  cert.grid_points = 5;  // 125 interior tuples per function
  ASSERT_EQ(function_registry_nd().size(), 3u);
  for (const RegistryFunctionN& fn : function_registry_nd()) {
    const auto program = compiler.compile_nd(fn.id);
    ASSERT_NE(program, nullptr) << fn.id;
    const Certification result = certify_nd(*program, fn.f, cert);
    EXPECT_TRUE(result.noise_enabled) << fn.id;
    EXPECT_EQ(result.stream_length, 4096u) << fn.id;
    EXPECT_LE(result.mc_mae, 0.03)
        << fn.id << " certified mc_mae " << result.mc_mae;
  }
}

}  // namespace
}  // namespace oscs::compile
