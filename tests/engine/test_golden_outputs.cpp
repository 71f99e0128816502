/// \file test_golden_outputs.cpp
/// \brief Pinned-output oracle for the dense and separable evaluation
///        paths. Every value below is an exact double (C hex-float),
///        captured once and compared bit for bit, so any change to the
///        packed kernel, the batch lattice or the serving path that moves
///        a single output bit fails here:
///
///   * every BatchRunner::run_nd cell (optical_mean, expected,
///     flip_rate_mean) plus total_bits, for a dense 1D program (on a
///     mux-exact circuit and on a weak-probe circuit that takes the
///     physics decision LUT), a dense 2D program and a 3-input separable
///     program, at stream lengths 1/63/64/65/4095 and BER 0 and 1e-2;
///   * one 2-program BatchRunner::run_fused request per dense arity;
///   * the ProgramServer::handle_json response bytes (trace id and
///     latency fields masked) for xs, xs+ys, inputs and fused requests.
///
/// Each case runs under every available SIMD backend.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "common/simd.hpp"
#include "compile/compiler.hpp"
#include "engine/batch.hpp"
#include "optsc/defaults.hpp"
#include "serve/server.hpp"
#include "stochastic/bernstein.hpp"
#include "stochastic/separable.hpp"

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;

class ScopedBackend {
 public:
  explicit ScopedBackend(oscs::SimdBackend backend) {
    oscs::set_simd_backend(backend);
  }
  ~ScopedBackend() { oscs::reset_simd_backend(); }
};

std::vector<oscs::SimdBackend> available_backends() {
  std::vector<oscs::SimdBackend> backends = {oscs::SimdBackend::kScalar};
  if (oscs::simd_avx2_compiled() && oscs::simd_avx2_runtime()) {
    backends.push_back(oscs::SimdBackend::kAvx2);
  }
  return backends;
}

const char* backend_name(oscs::SimdBackend backend) {
  return backend == oscs::SimdBackend::kAvx2 ? "avx2" : "scalar";
}

oscs::OperatingPoint golden_op(double ber) {
  return oscs::OperatingPoint{.probe_power_mw = 1.0,
                              .ber = ber,
                              .snr = 20.0,
                              .threshold_mw = 0.5,
                              .stream_length = 1024,
                              .sng_width = 16};
}

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// One line per summary: total_bits, then per cell
/// "optical_mean,expected,flip_rate_mean" in hex-float.
std::string render(const BatchSummary& summary) {
  std::string out = std::to_string(summary.total_bits);
  for (const BatchCell& cell : summary.cells) {
    out.append(" ").append(hex(cell.optical_mean));
    out.append(",").append(hex(cell.expected));
    out.append(",").append(hex(cell.flip_rate_mean));
  }
  return out;
}

/// Looks a case up in a golden table ("" when absent, so a missing entry
/// fails with the rendered actual value in the message).
std::string golden(
    const std::vector<std::pair<std::string, std::string>>& table,
    const std::string& key) {
  for (const auto& [k, v] : table) {
    if (k == key) return v;
  }
  return "";
}

const std::vector<std::size_t> kLengths = {1, 63, 64, 65, 4095};
const std::vector<double> kBers = {0.0, 1e-2};

std::string case_key(const char* program, std::size_t length, double ber) {
  return std::string(program) + "/L" + std::to_string(length) +
         (ber > 0.0 ? "/noisy" : "/clean");
}

/// Runs `request` at every golden (length, BER) pair under every backend
/// and compares each summary against the table entry for that pair.
void expect_golden_lattice(
    const BatchRunner& runner, BatchRequest request, const char* program,
    const std::vector<std::pair<std::string, std::string>>& table) {
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    for (std::size_t length : kLengths) {
      for (double ber : kBers) {
        request.stream_lengths = {length};
        request.op = golden_op(ber);
        const std::string key = case_key(program, length, ber);
        EXPECT_EQ(golden(table, key), render(runner.run_nd(request, 2)))
            << key << " [" << backend_name(backend) << "]";
      }
    }
  }
}

sc::SeparableProgram rank2_trilinear() {
  // x*(1-z) + y*z as two rank-1 terms of degree-1 factors.
  sc::SeparableTerm t1;
  t1.factors = {{0, sc::BernsteinPoly({0.0, 1.0})},
                {2, sc::BernsteinPoly({1.0, 0.0})}};
  sc::SeparableTerm t2;
  t2.weight = 0.5;
  t2.factors = {{1, sc::BernsteinPoly({0.2, 0.9})},
                {2, sc::BernsteinPoly({0.1, 0.7})}};
  return sc::SeparableProgram(3, {t1, t2});
}

/// A dense (2, 3) tensor-product program compiled through the bivariate
/// pipeline; its prebuilt kernel runs the two-axis MUX.
std::shared_ptr<const compile::CompiledProgram> dense2_program(
    compile::Compiler& compiler) {
  compile::CompileOptions options;
  options.certify = false;
  options.projection2.min_degree_x = options.projection2.max_degree_x = 2;
  options.projection2.min_degree_y = options.projection2.max_degree_y = 3;
  return compiler.compile2(
      "golden_surface",
      [](double x, double y) { return 0.1 + 0.5 * x * y * y + 0.3 * x; },
      options);
}

BatchRequest base_request() {
  BatchRequest request;
  request.repeats = 2;
  request.seed = 1234;
  return request;
}

const std::vector<std::pair<std::string, std::string>> kDense1Golden = {
    {"dense1/L1/clean",
     "4 0x0p+0,0x1.94467381d7dc1p-2,0x0p+0"
     " 0x1p+0,0x1.395e9e1b0899fp-1,0x0p+0"},
    {"dense1/L1/noisy",
     "4 0x0p+0,0x1.94467381d7dc1p-2,0x0p+0"
     " 0x1p+0,0x1.395e9e1b0899fp-1,0x0p+0"},
    {"dense1/L63/clean",
     "252 0x1.6596596596596p-2,0x1.94467381d7dc1p-2,0x0p+0"
     " 0x1.34d34d34d34d3p-1,0x1.395e9e1b0899fp-1,0x0p+0"},
    {"dense1/L63/noisy",
     "252"
     " 0x1.6db6db6db6db6p-2,0x1.94467381d7dc1p-2,0x1.041041041041p-7"
     " 0x1.2cb2cb2cb2cb3p-1,0x1.395e9e1b0899fp-1,0x1.041041041041p-6"},
    {"dense1/L64/clean",
     "256 0x1.68p-2,0x1.94467381d7dc1p-2,0x0p+0"
     " 0x1.38p-1,0x1.395e9e1b0899fp-1,0x0p+0"},
    {"dense1/L64/noisy",
     "256 0x1.7p-2,0x1.94467381d7dc1p-2,0x1p-7"
     " 0x1.3p-1,0x1.395e9e1b0899fp-1,0x1p-6"},
    {"dense1/L65/clean",
     "260 0x1.6276276276276p-2,0x1.94467381d7dc1p-2,0x0p+0"
     " 0x1.3333333333333p-1,0x1.395e9e1b0899fp-1,0x0p+0"},
    {"dense1/L65/noisy",
     "260"
     " 0x1.6a56a56a56a57p-2,0x1.94467381d7dc1p-2,0x1.f81f81f81f82p-8"
     " 0x1.2b52b52b52b53p-1,0x1.395e9e1b0899fp-1,0x1.f81f81f81f82p-7"},
    {"dense1/L4095/clean",
     "16380 0x1.975975975975ap-2,0x1.94467381d7dc1p-2,0x0p+0"
     " 0x1.3bb3bb3bb3bb4p-1,0x1.395e9e1b0899fp-1,0x0p+0"},
    {"dense1/L4095/noisy",
     "16380"
     " 0x1.9b59b59b59b5ap-2,0x1.94467381d7dc1p-2,0x1.6016016016016p-7"
     " 0x1.3aa3aa3aa3aa4p-1,0x1.395e9e1b0899fp-1,0x1.6c16c16c16c17p-7"},
};

TEST(SeparableGoldenOutputs, Dense1RunNdCells) {
  const optsc::OpticalScCircuit circuit(optsc::paper_defaults(3));
  const BatchRunner runner(circuit);
  BatchRequest request = base_request();
  request.programs_nd = {sc::SeparableProgram(
      sc::BernsteinPoly({0.1, 0.8, 0.3, 0.95}))};
  request.inputs = {{0.2, 0.7}};
  expect_golden_lattice(runner, request, "dense1", kDense1Golden);
}

const std::vector<std::pair<std::string, std::string>> kDense1LutGolden = {
    {"dense1_lut/L1/clean",
     "4 0x0p+0,0x1.94467381d7dc1p-2,0x0p+0"
     " 0x1p+0,0x1.395e9e1b0899fp-1,0x0p+0"},
    {"dense1_lut/L1/noisy",
     "4 0x0p+0,0x1.94467381d7dc1p-2,0x0p+0"
     " 0x1p+0,0x1.395e9e1b0899fp-1,0x0p+0"},
    {"dense1_lut/L63/clean",
     "252"
     " 0x1.8618618618618p-3,0x1.94467381d7dc1p-2,0x1.8618618618618p-2"
     " 0x1.5965965965966p-1,0x1.395e9e1b0899fp-1,0x1.6db6db6db6db6p-2"},
    {"dense1_lut/L63/noisy",
     "252"
     " 0x1.9659659659659p-3,0x1.94467381d7dc1p-2,0x1.8e38e38e38e38p-2"
     " 0x1.5145145145145p-1,0x1.395e9e1b0899fp-1,0x1.7df7df7df7df8p-2"},
    {"dense1_lut/L64/clean",
     "256 0x1.ap-3,0x1.94467381d7dc1p-2,0x1.88p-2"
     " 0x1.5cp-1,0x1.395e9e1b0899fp-1,0x1.68p-2"},
    {"dense1_lut/L64/noisy",
     "256 0x1.bp-3,0x1.94467381d7dc1p-2,0x1.9p-2"
     " 0x1.54p-1,0x1.395e9e1b0899fp-1,0x1.78p-2"},
    {"dense1_lut/L65/clean",
     "260"
     " 0x1.999999999999ap-3,0x1.94467381d7dc1p-2,0x1.81f81f81f81f8p-2"
     " 0x1.5a95a95a95a96p-1,0x1.395e9e1b0899fp-1,0x1.6a56a56a56a57p-2"},
    {"dense1_lut/L65/noisy",
     "260"
     " 0x1.a95a95a95a95bp-3,0x1.94467381d7dc1p-2,0x1.89d89d89d89d9p-2"
     " 0x1.52b52b52b52b5p-1,0x1.395e9e1b0899fp-1,0x1.7a17a17a17a18p-2"},
    {"dense1_lut/L4095/clean",
     "16380"
     " 0x1.1f11f11f11f12p-3,0x1.94467381d7dc1p-2,0x1.80d80d80d80d8p-2"
     " 0x1.7127127127127p-1,0x1.395e9e1b0899fp-1,0x1.8678678678678p-2"},
    {"dense1_lut/L4095/noisy",
     "16380"
     " 0x1.3013013013013p-3,0x1.94467381d7dc1p-2,0x1.84d84d84d84d8p-2"
     " 0x1.6e36e36e36e37p-1,0x1.395e9e1b0899fp-1,0x1.8798798798798p-2"},
};

/// A weak probe closes the eye in some circuit state, so the kernel is not
/// mux-exact and the optical words come from the physics decision LUT.
TEST(SeparableGoldenOutputs, Dense1DecisionLutRunNdCells) {
  const optsc::OpticalScCircuit circuit(optsc::paper_defaults(3, 0.1));
  const BatchRunner runner(circuit);
  ASSERT_FALSE(runner.kernel().mux_exact());
  BatchRequest request = base_request();
  request.programs_nd = {sc::SeparableProgram(
      sc::BernsteinPoly({0.1, 0.8, 0.3, 0.95}))};
  request.inputs = {{0.2, 0.7}};
  expect_golden_lattice(runner, request, "dense1_lut", kDense1LutGolden);
}

const std::vector<std::pair<std::string, std::string>> kDense2Golden = {
    {"dense2/L1/clean",
     "4 0x0p+0,0x1.6874649906cccp-3,0x0p+0"
     " 0x0p+0,0x1.2fdeec60029f1p-1,0x0p+0"},
    {"dense2/L1/noisy",
     "4 0x0p+0,0x1.6874649906cccp-3,0x0p+0"
     " 0x0p+0,0x1.2fdeec60029f1p-1,0x0p+0"},
    {"dense2/L63/clean",
     "252 0x1.75d75d75d75d7p-3,0x1.6874649906cccp-3,0x0p+0"
     " 0x1.2082082082082p-1,0x1.2fdeec60029f1p-1,0x0p+0"},
    {"dense2/L63/noisy",
     "252"
     " 0x1.8618618618618p-3,0x1.6874649906cccp-3,0x1.041041041041p-7"
     " 0x1.1861861861862p-1,0x1.2fdeec60029f1p-1,0x1.041041041041p-6"},
    {"dense2/L64/clean",
     "256 0x1.8p-3,0x1.6874649906cccp-3,0x0p+0"
     " 0x1.2p-1,0x1.2fdeec60029f1p-1,0x0p+0"},
    {"dense2/L64/noisy",
     "256 0x1.9p-3,0x1.6874649906cccp-3,0x1p-7"
     " 0x1.18p-1,0x1.2fdeec60029f1p-1,0x1p-6"},
    {"dense2/L65/clean",
     "260 0x1.89d89d89d89d9p-3,0x1.6874649906cccp-3,0x0p+0"
     " 0x1.1f81f81f81f82p-1,0x1.2fdeec60029f1p-1,0x0p+0"},
    {"dense2/L65/noisy",
     "260"
     " 0x1.999999999999ap-3,0x1.6874649906cccp-3,0x1.f81f81f81f82p-8"
     " 0x1.17a17a17a17a2p-1,0x1.2fdeec60029f1p-1,0x1.f81f81f81f82p-7"},
    {"dense2/L4095/clean",
     "16380 0x1.6d16d16d16d16p-3,0x1.6874649906cccp-3,0x0p+0"
     " 0x1.3323323323323p-1,0x1.2fdeec60029f1p-1,0x0p+0"},
    {"dense2/L4095/noisy",
     "16380"
     " 0x1.7e17e17e17e18p-3,0x1.6874649906cccp-3,0x1.6016016016016p-7"
     " 0x1.31f31f31f31f3p-1,0x1.2fdeec60029f1p-1,0x1.6c16c16c16c17p-7"},
};

TEST(SeparableGoldenOutputs, Dense2RunNdCells) {
  compile::Compiler compiler;
  const auto program = dense2_program(compiler);
  const BatchRunner runner(program->kernel(), program->design_point());
  BatchRequest request = base_request();
  request.programs_nd = {sc::SeparableProgram(program->poly2())};
  request.inputs = {{0.2, 0.7}, {0.4, 0.9}};
  expect_golden_lattice(runner, request, "dense2", kDense2Golden);
}

const std::vector<std::pair<std::string, std::string>> kSeparable3Golden = {
    {"separable3/L1/clean",
     "4 0x0p+0,0x1.85f06f6944674p-3,0x0p+0"
     " 0x0p+0,0x1.365fd8adab9f5p-1,0x0p+0"},
    {"separable3/L1/noisy",
     "4 0x0p+0,0x1.85f06f6944674p-3,0x0p+0"
     " 0x0p+0,0x1.365fd8adab9f5p-1,0x0p+0"},
    {"separable3/L63/clean",
     "252 0x1.5d75d75d75d76p-3,0x1.85f06f6944674p-3,0x0p+0"
     " 0x1.1249249249249p-1,0x1.365fd8adab9f5p-1,0x0p+0"},
    {"separable3/L63/noisy",
     "252"
     " 0x1.5555555555555p-3,0x1.85f06f6944674p-3,0x1.041041041041p-7"
     " 0x1.082082082082p-1,0x1.365fd8adab9f5p-1,0x1.8618618618618p-6"},
    {"separable3/L64/clean",
     "256 0x1.58p-3,0x1.85f06f6944674p-3,0x0p+0"
     " 0x1.1p-1,0x1.365fd8adab9f5p-1,0x0p+0"},
    {"separable3/L64/noisy",
     "256 0x1.6p-3,0x1.85f06f6944674p-3,0x1p-6"
     " 0x1.06p-1,0x1.365fd8adab9f5p-1,0x1.8p-6"},
    {"separable3/L65/clean",
     "260 0x1.6276276276276p-3,0x1.85f06f6944674p-3,0x0p+0"
     " 0x1.0fc0fc0fc0fc2p-1,0x1.365fd8adab9f5p-1,0x0p+0"},
    {"separable3/L65/noisy",
     "260"
     " 0x1.6a56a56a56a57p-3,0x1.85f06f6944674p-3,0x1.f81f81f81f82p-7"
     " 0x1.05e85e85e85e8p-1,0x1.365fd8adab9f5p-1,0x1.7a17a17a17a18p-6"},
    {"separable3/L4095/clean",
     "16380 0x1.7817817817818p-3,0x1.85f06f6944674p-3,0x0p+0"
     " 0x1.3c9bc9bc9bc9cp-1,0x1.365fd8adab9f5p-1,0x0p+0"},
    {"separable3/L4095/noisy",
     "16380"
     " 0x1.7d57d57d57d58p-3,0x1.85f06f6944674p-3,0x1.c41c41c41c41cp-7"
     " 0x1.399b99b99b99cp-1,0x1.365fd8adab9f5p-1,0x1.9a19a19a19a1ap-6"},
};

TEST(SeparableGoldenOutputs, Separable3RunNdCells) {
  const optsc::OpticalScCircuit circuit(optsc::paper_defaults(1));
  const BatchRunner runner(circuit);
  BatchRequest request = base_request();
  request.programs_nd = {rank2_trilinear()};
  request.inputs = {{0.2, 0.7}, {0.4, 0.9}, {0.6, 0.3}};
  expect_golden_lattice(runner, request, "separable3", kSeparable3Golden);
}

const std::vector<std::pair<std::string, std::string>> kFusedGolden = {
    {"fused_dense1",
     "33280"
     " 0x1.6a56a56a56a57p-2,0x1.94467381d7dc1p-2,0x1.f81f81f81f82p-8"
     " 0x1.949949949949ap-2,0x1.94467381d7dc1p-2,0x1.6c16c16c16c17p-7"
     " 0x1.3b13b13b13b14p-1,0x1.395e9e1b0899fp-1,0x1.f81f81f81f82p-8"
     " 0x1.3783783783783p-1,0x1.395e9e1b0899fp-1,0x1.5415415415416p-7"
     " 0x1.4ad4ad4ad4ad5p-1,0x1.30f27bb2fec58p-1,0x1.f81f81f81f82p-8"
     " 0x1.35b35b35b35b4p-1,0x1.30f27bb2fec58p-1,0x1.6c16c16c16c17p-7"
     " 0x1.89d89d89d89d9p-2,0x1.601a36e2eb1c4p-2,0x1.f81f81f81f82p-8"
     " 0x1.68b68b68b68b6p-2,0x1.601a36e2eb1c4p-2,0x1.5415415415416p-7"},
    {"fused_dense2",
     "33280"
     " 0x1.999999999999ap-3,0x1.6874649906cccp-3,0x1.f81f81f81f82p-8"
     " 0x1.7e17e17e17e18p-3,0x1.6874649906cccp-3,0x1.6c16c16c16c17p-7"
     " 0x1.3b13b13b13b14p-1,0x1.2fdeec60029f1p-1,0x1.f81f81f81f82p-8"
     " 0x1.2b52b52b52b53p-1,0x1.2fdeec60029f1p-1,0x1.5415415415416p-7"
     " 0x1.89d89d89d89d9p-1,0x1.a5e2e6d9be4cfp-1,0x1.f81f81f81f82p-8"
     " 0x1.a0ca0ca0ca0cap-1,0x1.a5e2e6d9be4cfp-1,0x1.6c16c16c16c17p-7"
     " 0x1.6276276276276p-2,0x1.a042273ffac1ep-2,0x1.f81f81f81f82p-8"
     " 0x1.aedaedaedaedbp-2,0x1.a042273ffac1ep-2,0x1.5415415415416p-7"},
};

TEST(SeparableGoldenOutputs, FusedTwoProgramRequests) {
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    {
      const optsc::OpticalScCircuit circuit(optsc::paper_defaults(3));
      const BatchRunner runner(circuit);
      BatchRequest request = base_request();
      request.polynomials = {sc::BernsteinPoly({0.1, 0.8, 0.3, 0.95}),
                             sc::BernsteinPoly({0.9, 0.2, 0.6, 0.05})};
      request.xs = {0.2, 0.7};
      request.stream_lengths = {65, 4095};
      request.op = golden_op(1e-2);
      EXPECT_EQ(golden(kFusedGolden, "fused_dense1"),
                render(runner.run_fused(request, 2)))
          << "fused_dense1 [" << backend_name(backend) << "]";
    }
    {
      compile::Compiler compiler;
      const auto program = dense2_program(compiler);
      const BatchRunner runner(program->kernel(), program->design_point());
      const sc::BernsteinPoly2& first = program->poly2();
      std::vector<double> complement = first.coeffs();
      for (double& c : complement) c = 1.0 - c;
      BatchRequest request = base_request();
      request.polynomials2 = {
          first, sc::BernsteinPoly2(first.deg_x(), first.deg_y(), complement)};
      request.xs = {0.2, 0.7};
      request.ys = {0.4, 0.9};
      request.stream_lengths = {65, 4095};
      request.op = golden_op(1e-2);
      EXPECT_EQ(golden(kFusedGolden, "fused_dense2"),
                render(runner.run_fused(request, 2)))
          << "fused_dense2 [" << backend_name(backend) << "]";
    }
  }
}

/// Response bytes with the per-request trace id and the wall-clock
/// latency object masked.
std::string masked(const std::string& line) {
  static const std::regex trace(R"("trace_id":"[^"]*")");
  static const std::regex latency(R"("latency_us":\{[^}]*\})");
  return std::regex_replace(
      std::regex_replace(line, trace, R"("trace_id":"*")"), latency,
      R"("latency_us":{*})");
}

const std::vector<std::pair<std::string, std::string>> kRequests = {
    {"xs",
     R"({"id":"g1","function":"sigmoid","xs":[0.2,0.7],)"
     R"("stream_lengths":[63,4095],"repeats":2,"seed":7})"},
    {"xs_ys",
     R"({"id":"g2","coefficients":[[0.1,0.5,0.9],[0.7,0.2,0.4]],)"
     R"("xs":[0.2,0.7],"ys":[0.4,0.9],"stream_lengths":[65],)"
     R"("repeats":2,"seed":8,"probe_power_mw":0.15})"},
    {"inputs",
     R"({"id":"g3","function":"trilinear_mix",)"
     R"("inputs":[[0.2,0.7],[0.4,0.9],[0.6,0.3]],"stream_lengths":[64],)"
     R"("repeats":2,"seed":9,"probe_power_mw":0.15})"},
    {"fused",
     R"({"id":"g4","programs":[{"function":"sigmoid"},)"
     R"({"coefficients":[0.1,0.4,0.8],"id":"ramp"}],"xs":[0.25,0.75],)"
     R"("stream_lengths":[1024],"repeats":2,"seed":10})"},
    {"fused2",
     R"({"id":"g5","programs":[{"function":"mul"},)"
     R"({"coefficients":[[0.1,0.5],[0.7,0.2]]}],"xs":[0.25,0.75],)"
     R"("ys":[0.5,0.125],"stream_lengths":[1024],"repeats":2,"seed":11})"},
};

const std::vector<std::pair<std::string, std::string>> kResponseGolden = {
    {"xs",
     R"({"id":"g1","ok":true,"trace_id":"*","fused":false,"programs":["sig)"
     R"(moid"],"op":{"probe_power_mw":1,"ber":1.6825343966823512e-76,"snr")"
     R"(:36.947310873973358,"threshold_mw":0.28466126512634332,"stream_len)"
     R"(gth":0,"sng_width":16},"cells":[{"program":"sigmoid","x":0.2000000)"
     R"(0000000001,"stream_length":63,"repeats":2,"expected":0.14057804199)"
     R"(218754,"optical_mean":0.10317460317460317,"optical_ci":0.015555555)"
     R"(555555553,"abs_error_mean":0.037403438817584372,"abs_error_ci":0.0)"
     R"(15555555555555553,"flip_rate":0},{"program":"sigmoid","x":0.200000)"
     R"(00000000001,"stream_length":4095,"repeats":2,"expected":0.14057804)"
     R"(199218754,"optical_mean":0.14114774114774115,"optical_ci":0.011965)"
     R"(811965811979,"abs_error_mean":0.0061050061050061111,"abs_error_ci")"
     R"(:0.0011166103448850648,"flip_rate":0},{"program":"sigmoid","x":0.6)"
     R"(9999999999999996,"stream_length":63,"repeats":2,"expected":0.76863)"
     R"(509460449209,"optical_mean":0.79365079365079361,"optical_ci":0.062)"
     R"(222222222222213,"abs_error_mean":0.031746031746031744,"abs_error_c)"
     R"(i":0.049030770130750974,"flip_rate":0},{"program":"sigmoid","x":0.)"
     R"(69999999999999996,"stream_length":4095,"repeats":2,"expected":0.76)"
     R"(863509460449209,"optical_mean":0.77362637362637365,"optical_ci":0.)"
     R"(0023931623931623845,"abs_error_mean":0.0049912790218815672,"abs_er)"
     R"(ror_ci":0.0023931623931623845,"flip_rate":0}],"optical_mae":0.0200)"
     R"(61438922625949,"worst_cell_error":0.037403438817584372,"total_bits)"
     R"(":16632,"latency_us":{*}}
)"},
    {"xs_ys",
     R"({"id":"g2","ok":true,"trace_id":"*","fused":false,"programs":["coe)"
     R"(fficients[2x3]"],"op":{"probe_power_mw":0.14999999999999999,"ber":)"
     R"(0.0020112016906514122,"snr":5.7527988815296123,"threshold_mw":0.04)"
     R"(2995226685101605,"stream_length":65,"sng_width":16},"cells":[{"pro)"
     R"(gram":"coefficients[2x3]","x":0.20000000000000001,"y":0.4000000000)"
     R"(0000002,"stream_length":65,"repeats":2,"expected":0.41840000000000)"
     R"(011,"optical_mean":0.36153846153846159,"optical_ci":0.015076923076)"
     R"(92305,"abs_error_mean":0.056861538461538547,"abs_error_ci":0.01507)"
     R"(6923076923076,"flip_rate":0},{"program":"coefficients[2x3]","x":0.)"
     R"(69999999999999996,"y":0.90000000000000002,"stream_length":65,"repe)"
     R"(ats":2,"expected":0.50290000000000012,"optical_mean":0.49230769230)"
     R"(769234,"optical_ci":0.030153846153846073,"abs_error_mean":0.015384)"
     R"(615384615358,"abs_error_ci":0.020760923076923319,"flip_rate":0}],")"
     R"(optical_mae":0.036123076923076952,"worst_cell_error":0.05686153846)"
     R"(1538547,"total_bits":260,"latency_us":{*}}
)"},
    {"inputs",
     R"({"id":"g3","ok":true,"trace_id":"*","fused":false,"programs":["tri)"
     R"(linear_mix"],"op":{"probe_power_mw":0.14999999999999999,"ber":0.00)"
     R"(25175900435770063,"snr":5.6095488972368202,"threshold_mw":0.042871)"
     R"(407607438246,"stream_length":64,"sng_width":16},"cells":[{"program)"
     R"(":"trilinear_mix","inputs":[0.20000000000000001,0.4000000000000000)"
     R"(2,0.59999999999999998],"stream_length":64,"repeats":2,"expected":0)"
     R"(.31999864253929544,"optical_mean":0.43794496724547027,"optical_ci")"
     R"(:0.30625000005254277,"abs_error_mean":0.15625000002680758,"abs_err)"
     R"(or_ci":0.2311747964241026,"flip_rate":0.0078125},{"program":"trili)"
     R"(near_mix","inputs":[0.69999999999999996,0.90000000000000002,0.2999)"
     R"(9999999999999],"stream_length":64,"repeats":2,"expected":0.7600004)"
     R"(73457909,"optical_mean":0.69742609417873658,"optical_ci":0.1071148)"
     R"(2204722317,"abs_error_mean":0.062574379279172421,"abs_error_ci":0.)"
     R"(10711482204722317,"flip_rate":0.0078125}],"optical_mae":0.10941218)"
     R"(965299,"worst_cell_error":0.15625000002680758,"total_bits":256,"la)"
     R"(tency_us":{*}}
)"},
    {"fused",
     R"({"id":"g4","ok":true,"trace_id":"*","fused":true,"programs":["sigm)"
     R"(oid","ramp"],"op":{"probe_power_mw":1,"ber":1.6825343966823512e-76)"
     R"(,"snr":36.947310873973358,"threshold_mw":0.28466126512634332,"stre)"
     R"(am_length":1024,"sng_width":16},"cells":[{"program":"sigmoid","x":)"
     R"(0.25,"stream_length":1024,"repeats":2,"expected":0.181350022554397)"
     R"(58,"optical_mean":0.17236328125,"optical_ci":0.010527343749999999,)"
     R"("abs_error_mean":0.008986741304397583,"abs_error_ci":0.01052734374)"
     R"(9999999,"flip_rate":0},{"program":"sigmoid","x":0.75,"stream_lengt)"
     R"(h":1024,"repeats":2,"expected":0.81864997744560242,"optical_mean":)"
     R"(0.8154296875,"optical_ci":0.017226562499999997,"abs_error_mean":0.)"
     R"(0087890625,"abs_error_ci":0.006311768293380737,"flip_rate":0},{"pr)"
     R"(ogram":"ramp","x":0.25,"stream_length":1024,"repeats":2,"expected")"
     R"(:0.25625000000000009,"optical_mean":0.259765625,"optical_ci":0.009)"
     R"(5703125000000007,"abs_error_mean":0.0048828125,"abs_error_ci":0.00)"
     R"(68906249999998257,"flip_rate":0},{"program":"ramp","x":0.75,"strea)"
     R"(m_length":1024,"repeats":2,"expected":0.60625000000000007,"optical)"
     R"(_mean":0.5966796875,"optical_ci":0.011484374999999996,"abs_error_m)"
     R"(ean":0.0095703125000000666,"abs_error_ci":0.011484374999999996,"fl)"
     R"(ip_rate":0}],"optical_mae":0.0080572322010994124,"worst_cell_error)"
     R"(":0.0095703125000000666,"total_bits":8192,"latency_us":{*}}
)"},
    {"fused2",
     R"({"id":"g5","ok":true,"trace_id":"*","fused":true,"programs":["mul")"
     R"(,"coefficients[2x2]"],"op":{"probe_power_mw":1,"ber":2.93662821799)"
     R"(49202e-82,"snr":38.351992543530756,"threshold_mw":0.28663484456734)"
     R"(406,"stream_length":1024,"sng_width":16},"cells":[{"program":"mul")"
     R"(,"x":0.25,"y":0.5,"stream_length":1024,"repeats":2,"expected":0.12)"
     R"(5,"optical_mean":0.1318359375,"optical_ci":0.0095703125000000007,")"
     R"(abs_error_mean":0.0068359375,"abs_error_ci":0.0095703125000000007,)"
     R"("flip_rate":0},{"program":"mul","x":0.75,"y":0.125,"stream_length")"
     R"(:1024,"repeats":2,"expected":0.09375,"optical_mean":0.0986328125,")"
     R"(optical_ci":0.0038281249999999995,"abs_error_mean":0.0048828125,"a)"
     R"(bs_error_ci":0.0038281249999999995,"flip_rate":0},{"program":"coef)"
     R"(ficients[2x2]","x":0.25,"y":0.5,"stream_length":1024,"repeats":2,")"
     R"(expected":0.33749999999999997,"optical_mean":0.32861328125,"optica)"
     R"(l_ci":0.010527343749999999,"abs_error_mean":0.0088867187499999667,)"
     R"("abs_error_ci":0.010527343749999999,"flip_rate":0},{"program":"coe)"
     R"(fficients[2x2]","x":0.75,"y":0.125,"stream_length":1024,"repeats":)"
     R"(2,"expected":0.515625,"optical_mean":0.49462890625,"optical_ci":0.)"
     R"(027753906249999995,"abs_error_mean":0.02099609375,"abs_error_ci":0)"
     R"(.027753906249999995,"flip_rate":0}],"optical_mae":0.01040039062499)"
     R"(9992,"worst_cell_error":0.02099609375,"total_bits":8192,"latency_u)"
     R"(s":{*}}
)"},
};

TEST(SeparableGoldenOutputs, ServedResponseBytes) {
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    serve::ServerOptions options;
    options.compile.certify = false;
    options.threads = 2;
    serve::ProgramServer server(options);
    for (const auto& [key, line] : kRequests) {
      EXPECT_EQ(golden(kResponseGolden, key), masked(server.handle_json(line)))
          << key << " [" << backend_name(backend) << "]";
    }
  }
}

}  // namespace
}  // namespace oscs::engine
