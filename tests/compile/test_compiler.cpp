#include "compile/compiler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

#include "compile/export.hpp"
#include "compile/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stochastic/resc.hpp"

namespace oscs::compile {
namespace {

namespace sc = oscs::stochastic;
namespace eng = oscs::engine;

TEST(RegistryTest, CatalogueIsWellFormed) {
  const auto& registry = function_registry();
  ASSERT_GE(registry.size(), 8u);
  std::set<std::string> ids;
  for (const RegistryFunction& fn : registry) {
    EXPECT_TRUE(ids.insert(fn.id).second) << "duplicate id " << fn.id;
    EXPECT_LE(fn.degree, 6u) << fn.id;
    // Range check: all registry targets map [0,1] into [0,1].
    for (double x = 0.0; x <= 1.0; x += 0.05) {
      const double y = fn.f(x);
      EXPECT_GE(y, -1e-12) << fn.id << " at x=" << x;
      EXPECT_LE(y, 1.0 + 1e-12) << fn.id << " at x=" << x;
    }
  }
  EXPECT_NE(find_function("sigmoid"), nullptr);
  EXPECT_NE(find_function("gamma"), nullptr);
  EXPECT_EQ(find_function("no_such_function"), nullptr);
  EXPECT_EQ(registry_ids().size(), registry.size());
}

// Acceptance criterion: every registry function compiles at degree <= 6
// with certified MC MAE <= 0.02 at 4096-bit streams.
TEST(CompilerCertification, AllRegistryFunctionsMeetAccuracyBudget) {
  Compiler compiler;
  for (const RegistryFunction& fn : function_registry()) {
    const auto program = compiler.compile(fn.id);
    ASSERT_NE(program, nullptr) << fn.id;
    EXPECT_LE(program->circuit_order(), 6u) << fn.id;
    ASSERT_TRUE(program->certification().has_value()) << fn.id;
    const Certification& cert = *program->certification();
    EXPECT_EQ(cert.stream_length, 4096u) << fn.id;
    // The certificate records the operating point the link budget derived.
    EXPECT_EQ(cert.op.stream_length, 4096u) << fn.id;
    EXPECT_DOUBLE_EQ(cert.op.probe_power_mw,
                     program->design_point().probe_power_mw)
        << fn.id;
    EXPECT_EQ(cert.noise_enabled, cert.op.noisy()) << fn.id;
    EXPECT_GT(cert.mc_mae_ci, 0.0) << fn.id;
    EXPECT_LE(cert.mc_mae, 0.02)
        << fn.id << " (mae " << cert.mc_mae << " +/- " << cert.mc_mae_ci
        << ", approx floor " << cert.approx_max_error << ")";
  }
}

TEST(CompilerCache, RepeatedRequestServedWithoutRecompiling) {
  Compiler compiler;
  const auto first = compiler.compile("exp_neg");
  const auto second = compiler.compile("exp_neg");
  // Same shared program instance: the pipeline did not run again.
  EXPECT_EQ(first.get(), second.get());
  const ProgramCache::Stats stats = compiler.cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
}

TEST(CompilerCache, DifferentWidthCompilesSeparately) {
  Compiler compiler;
  const auto w16 = compiler.compile("square");
  CompileOptions options = compiler.defaults();
  options.projection.max_degree = find_function("square")->degree;
  options.sng_width = 8;
  const auto w8 =
      compiler.compile("square", find_function("square")->f, options);
  EXPECT_NE(w16.get(), w8.get());
  EXPECT_EQ(w8->key().width, 8u);
}

TEST(CompilerCache, OptionDriftNeverServesStaleProgram) {
  // Regression: a certify=false compile must not satisfy a later
  // certify=true request for the same (id, degree, width) - the options
  // digest keeps the keys distinct.
  Compiler compiler;
  CompileOptions uncertified = compiler.defaults();
  uncertified.certify = false;
  const auto bare =
      compiler.compile("tanh", find_function("tanh")->f, uncertified);
  EXPECT_FALSE(bare->certification().has_value());
  CompileOptions certified = compiler.defaults();
  certified.certification.stream_length = 512;
  certified.certification.repeats = 4;
  const auto full =
      compiler.compile("tanh", find_function("tanh")->f, certified);
  EXPECT_NE(bare.get(), full.get());
  ASSERT_TRUE(full->certification().has_value());
  // Identical options do hit.
  const auto again =
      compiler.compile("tanh", find_function("tanh")->f, certified);
  EXPECT_EQ(full.get(), again.get());
}

TEST(CompiledProgramTest, KernelKeepsCircuitAliveAfterProgramDies) {
  // Regression: the kernel holds a pointer into the program-owned
  // circuit; a kernel handle that outlives the program must keep the
  // circuit alive (diagnostics path dereferences it).
  std::shared_ptr<const eng::PackedKernel> kernel;
  {
    CompileOptions options;
    options.certify = false;
    const auto program = compile_function(
        "ephemeral", [](double x) { return 0.3 + 0.4 * x; }, options);
    kernel = program->kernel();
  }  // program (and its direct circuit handle) destroyed here
  EXPECT_GT(kernel->received_power_mw(0x3, 1), 0.0);
  eng::PackedRunConfig config;
  config.op.stream_length = 256;
  const eng::PackedRunResult r =
      kernel->run_nd(sc::SeparableProgram(sc::BernsteinPoly({0.3, 0.7})),
                     {0.5}, config);
  EXPECT_EQ(r.length, 256u);
}

TEST(CompilerErrors, UnknownRegistryIdThrows) {
  Compiler compiler;
  EXPECT_THROW((void)compiler.compile("no_such_function"),
               std::invalid_argument);
}

TEST(CompiledProgramTest, PipelineReportsArePlumbedThrough) {
  Compiler compiler;
  const auto program = compiler.compile("gamma");
  EXPECT_EQ(program->function_id(), "gamma");
  EXPECT_EQ(program->key().width, 16u);
  EXPECT_GE(program->projection().degree, 1u);
  EXPECT_EQ(program->quantization().width, 16u);
  EXPECT_TRUE(program->poly().is_sc_compatible());
  // Quantized coefficients sit exactly on the SNG comparator grid.
  const double scale = std::ldexp(1.0, 16);
  for (std::size_t i = 0; i < program->poly().coeffs().size(); ++i) {
    const double scaled = program->poly().coeffs()[i] * scale;
    EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
  }
}

TEST(CompiledProgramTest, RunMatchesKernelEvaluation) {
  Compiler compiler;
  const auto program = compiler.compile("cube");
  eng::PackedRunConfig config;
  config.op = program->design_point().with_stream_length(1024).noiseless();
  const eng::PackedRunResult r = program->run({0.6}, config);
  EXPECT_EQ(r.length, 1024u);
  EXPECT_NEAR(r.electronic_estimate, 0.6 * 0.6 * 0.6, 0.05);
}

// Satellite: degree-0 and degree-1 compiled programs must match the direct
// electronic ReSCUnit evaluation bit for bit on shared stimulus.
TEST(CompiledProgramTest, Degree0ProgramMatchesReSCUnitBitForBit) {
  CompileOptions options;
  options.projection.min_degree = 0;
  options.projection.max_degree = 0;
  options.certify = false;
  const auto program =
      compile_function("const_0p4", [](double) { return 0.4; }, options);
  EXPECT_TRUE(program->elevated());
  EXPECT_EQ(program->projection().degree, 0u);
  ASSERT_EQ(program->circuit_order(), 1u);

  const sc::ReSCUnit unit(program->poly());
  sc::ScInputConfig stimulus;
  stimulus.seed = 99;
  for (double x : {0.0, 0.3, 1.0}) {
    const sc::ScInputs inputs = sc::make_sc_inputs(
        {x}, {program->poly().coeffs()}, {1}, 1000, stimulus);
    const eng::PackedKernel::Streams streams =
        program->kernel()->evaluate(inputs).front();
    EXPECT_TRUE(streams.electronic == unit.output_stream(inputs))
        << "x=" << x;
  }
}

TEST(CompiledProgramTest, Degree1ProgramMatchesReSCUnitBitForBit) {
  CompileOptions options;
  options.projection.min_degree = 1;
  options.projection.max_degree = 1;
  options.certify = false;
  // Exactly representable at degree 1: f(x) = 0.2 + 0.6 x.
  const auto program = compile_function(
      "affine", [](double x) { return 0.2 + 0.6 * x; }, options);
  EXPECT_FALSE(program->elevated());
  ASSERT_EQ(program->circuit_order(), 1u);
  EXPECT_NEAR(program->poly().coeffs()[0], 0.2, 1e-4);
  EXPECT_NEAR(program->poly().coeffs()[1], 0.8, 1e-4);

  const sc::ReSCUnit unit(program->poly());
  sc::ScInputConfig stimulus;
  stimulus.seed = 1234;
  for (std::size_t length : {63u, 64u, 1000u}) {
    const sc::ScInputs inputs = sc::make_sc_inputs(
        {0.5}, {program->poly().coeffs()}, {1}, length, stimulus);
    const eng::PackedKernel::Streams streams =
        program->kernel()->evaluate(inputs).front();
    EXPECT_TRUE(streams.electronic == unit.output_stream(inputs))
        << "length=" << length;
    // And the de-randomized estimates agree exactly.
    EXPECT_DOUBLE_EQ(streams.electronic.probability(),
                     unit.evaluate(inputs));
  }
}

TEST(CertifyTest, DeterministicAcrossThreadCounts) {
  CompileOptions options;
  options.certify = false;
  const auto program = compile_function(
      "affine2", [](double x) { return 0.1 + 0.5 * x; }, options);
  CertificationOptions cert_options;
  cert_options.stream_length = 512;
  cert_options.repeats = 4;
  cert_options.threads = 1;
  const Certification a = certify(*program, program->projection().poly,
                                  cert_options);
  cert_options.threads = 4;
  const Certification b = certify(*program, program->projection().poly,
                                  cert_options);
  EXPECT_DOUBLE_EQ(a.mc_mae, b.mc_mae);
  EXPECT_DOUBLE_EQ(a.mc_mae_ci, b.mc_mae_ci);
  EXPECT_DOUBLE_EQ(a.mc_worst, b.mc_worst);
}

TEST(CompiledProgramTest, CertifiedErrorBudgetAndJsonExport) {
  Compiler compiler;
  const RegistryFunction* fn = find_function("sigmoid");
  ASSERT_NE(fn, nullptr);

  // Certified program: the budget is the upper edge of the MC band.
  CompileOptions certified_opts;
  certified_opts.certification.repeats = 4;
  certified_opts.certification.grid_points = 5;
  const auto program = compiler.compile("sigmoid", fn->f, certified_opts);
  ASSERT_TRUE(program->certification().has_value());
  const auto budget = program->certified_error_budget();
  ASSERT_TRUE(budget.has_value());
  EXPECT_DOUBLE_EQ(*budget, program->certification()->mc_mae +
                                program->certification()->mc_mae_ci);
  EXPECT_GT(*budget, 0.0);

  const std::string json = certification_json(*program);
  EXPECT_NE(json.find("\"function\": \"sigmoid\""), std::string::npos);
  EXPECT_NE(json.find("\"arity\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"certified\": true"), std::string::npos);
  EXPECT_NE(json.find("\"error_budget\""), std::string::npos);
  EXPECT_NE(json.find("\"mc_mae\""), std::string::npos);

  // Uncertified program: no budget, and the export says so.
  CompileOptions uncertified_opts;
  uncertified_opts.certify = false;
  Compiler cold;
  const auto bare = cold.compile("sigmoid", fn->f, uncertified_opts);
  EXPECT_FALSE(bare->certification().has_value());
  EXPECT_FALSE(bare->certified_error_budget().has_value());
  const std::string bare_json = certification_json(*bare);
  EXPECT_NE(bare_json.find("\"certified\": false"), std::string::npos);
  EXPECT_EQ(bare_json.find("\"error_budget\""), std::string::npos);

  // An N-ary program reports its own input count.
  const auto luma = cold.compile_nd("rgb_luma");
  const std::string luma_json = certification_json(*luma);
  EXPECT_NE(luma_json.find("\"function\": \"rgb_luma\""), std::string::npos);
  EXPECT_NE(luma_json.find("\"arity\": 3"), std::string::npos) << luma_json;
}

TEST(CertifyTest, OptionValidation) {
  CertificationOptions bad;
  bad.stream_length = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = CertificationOptions{};
  bad.repeats = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = CertificationOptions{};
  bad.grid_points = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(CompilePipelineObservability, OneColdCompileRecordsOneProjectSample) {
  // The fit gets its own span (a child of "compile", like "certify") and
  // one oscs_compile_project_us sample per cold compile; a cache hit
  // records neither.
  const obs::Histogram* histogram =
      obs::Registry::global().find_histogram("oscs_compile_project_us");
  const std::uint64_t before =
      histogram == nullptr ? 0 : histogram->snapshot().count();

  obs::Trace trace;
  obs::TraceScope scope(&trace);
  CompileOptions options;
  options.certification.stream_length = 256;
  options.certification.repeats = 1;
  options.certification.grid_points = 3;
  Compiler compiler(options);
  (void)compiler.compile("square");
  (void)compiler.compile("square");

  histogram =
      obs::Registry::global().find_histogram("oscs_compile_project_us");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->snapshot().count(), before + 1);

  const auto& spans = trace.spans();
  int compile_span = -1;
  int project_count = 0;
  int certify_parent = -2;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "compile") compile_span = static_cast<int>(i);
    if (spans[i].name == "certify") certify_parent = spans[i].parent;
  }
  ASSERT_GE(compile_span, 0);
  for (const obs::Trace::SpanRecord& span : spans) {
    if (span.name != "project") continue;
    ++project_count;
    EXPECT_EQ(span.parent, compile_span);
    EXPECT_FALSE(span.open);
  }
  EXPECT_EQ(project_count, 1);
  EXPECT_EQ(certify_parent, compile_span);
}

}  // namespace
}  // namespace oscs::compile
