/// \file test_certify_golden.cpp
/// \brief Pinned-output oracle for Monte-Carlo certification and the
///        degree/width/length auto-tuner. Every value below is an exact
///        double (C hex-float), captured once and compared bit for bit,
///        so any change to the certification request, the per-cell error
///        fold, the dense approximation-error sweep, the auto-tune cost
///        model or its floor that moves a single bit fails here:
///
///   * every `Certification` field of sigmoid (arity 1), mul and euclid2
///     (arity 2) and rgb_luma (arity 3), at the design BER and noiseless,
///     plus one sigmoid certify_grid cell at a weak probe with real flips;
///   * the chosen candidate and the full visit trace (cost, floor,
///     mc_mae, floor_rejected) of auto_tune("sin") and of the bivariate
///     mul tuner.
///
/// Each case runs under every available SIMD backend.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/simd.hpp"
#include "compile/autotune.hpp"
#include "compile/compiler.hpp"
#include "compile/registry.hpp"

namespace oscs::compile {
namespace {

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

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Every Certification field: the operating point, the grid shape, then
/// the five error figures in hex-float.
std::string render(const Certification& cert) {
  std::string out;
  out.append(hex(cert.op.probe_power_mw)).append(" ");
  out.append(hex(cert.op.ber)).append(" ");
  out.append(hex(cert.op.snr)).append(" ");
  out.append(hex(cert.op.threshold_mw)).append(" ");
  out.append(std::to_string(cert.op.stream_length)).append(" ");
  out.append(std::to_string(cert.op.sng_width)).append(" | ");
  out.append(std::to_string(cert.op.stream_length)).append(" ");
  out.append(std::to_string(cert.repeats)).append(" ");
  out.append(std::to_string(cert.grid_points)).append(" ");
  out.append(cert.op.noisy() ? "noisy" : "clean").append(" | ");
  out.append(hex(cert.mc_mae)).append(" ");
  out.append(hex(cert.mc_mae_ci)).append(" ");
  out.append(hex(cert.mc_worst)).append(" ");
  out.append(hex(cert.electronic_mae)).append(" ");
  out.append(hex(cert.approx_max_error));
  return out;
}

std::string render(const AutoTuneCandidate& c) {
  std::string out = std::to_string(c.degree) + "/" + std::to_string(c.width) +
                    "/" + std::to_string(c.stream_length) + " ";
  out.append(hex(c.cost)).append(" ");
  out.append(hex(c.approx_floor)).append(" ");
  out.append(hex(c.mc_mae)).append(" ");
  out.append(hex(c.mc_mae_ci)).append(" ");
  out.append(c.floor_rejected ? "R" : "-");
  out.append(c.met ? "M" : "-");
  return out;
}

/// The chosen candidate first, then one line per visited candidate.
std::string render(const AutoTuneResult& result) {
  std::string out = std::string(result.met ? "met " : "unmet ") +
                    render(result.chosen) + " @L" +
                    std::to_string(result.op.stream_length);
  for (const AutoTuneCandidate& c : result.trace) {
    out.append("\n").append(render(c));
  }
  return out;
}

CompileOptions uncertified() {
  CompileOptions options;
  options.certify = false;
  return options;
}

CertificationOptions golden_cert_options(bool noisy) {
  CertificationOptions options;
  options.stream_length = 1024;
  options.repeats = 4;
  options.grid_points = 5;
  options.noise_enabled = noisy;
  options.threads = 2;
  return options;
}

/// The pinned outputs, one entry per case ("" when absent, so a missing
/// entry fails with the rendered actual value in the message).
const std::vector<std::pair<std::string, std::string>> kGolden = {
    {"sigmoid/noisy",
     "0x1p+0 0x1.37b7fb340e2aep-252 0x1.279417b936e2dp+5 "
     "0x1.237e3e209f5d7p-2 1024 16 | 1024 4 5 noisy | "
     "0x1.3b33333333323p-7 0x1.460b20f5df79ap-8 0x1.d353d7568af4p-7 "
     "0x1.83e9e573ac90ap-7 0x1.b6343c905445p-9"},
    {"sigmoid/clean",
     "0x1p+0 0x0p+0 0x1.279417b936e2dp+5 0x1.237e3e209f5d7p-2 1024 "
     "16 | 1024 4 5 clean | 0x1.3b33333333323p-7 "
     "0x1.460b20f5df79ap-8 0x1.d353d7568af4p-7 0x1.83e9e573ac90ap-7 "
     "0x1.b6343c905445p-9"},
    {"sigmoid/grid",
     "0x1.999999999999ap-4 0x1.08fcc390f8d79p-5 0x1.d8ecf2c1f16afp+1 "
     "0x1.d263969a98958p-6 1024 16 | 1024 4 5 noisy | "
     "0x1.0841d9e67d388p-6 0x1.5f28467a22f25p-8 0x1.d9a9ebab457ap-6 "
     "0x1.83e9e573ac90ap-7 0x1.b6343c905445p-9"},
    {"mul/noisy",
     "0x1p+0 0x1.1d3eac2756f9bp-271 0x1.32d0e17777342p+5 "
     "0x1.25839acd3e3ebp-2 1024 16 | 1024 4 5 noisy | "
     "0x1.94e81b4e81b4dp-8 0x1.2fdd83d0cbbedp-9 0x1.28e38e38e38ep-6 "
     "0x1.451eb851eb851p-7 0x0p+0"},
    {"mul/clean",
     "0x1p+0 0x0p+0 0x1.32d0e17777342p+5 0x1.25839acd3e3ebp-2 1024 "
     "16 | 1024 4 5 clean | 0x1.94e81b4e81b4dp-8 "
     "0x1.2fdd83d0cbbedp-9 0x1.28e38e38e38ep-6 0x1.451eb851eb851p-7 "
     "0x0p+0"},
    {"euclid2/noisy",
     "0x1p+0 0x1.2de28ce995395p-258 0x1.2b2d0a7b47bbdp+5 "
     "0x1.24ab371588134p-2 1024 16 | 1024 4 5 noisy | "
     "0x1.a69e57f7e6d0cp-8 0x1.833d4495eafd2p-9 0x1.38dfb187863cp-6 "
     "0x1.7cfac408ef046p-7 0x1.4398b8ad6d3e8p-7"},
    {"euclid2/clean",
     "0x1p+0 0x0p+0 0x1.2b2d0a7b47bbdp+5 0x1.24ab371588134p-2 1024 "
     "16 | 1024 4 5 clean | 0x1.a69e57f7e6d0cp-8 "
     "0x1.833d4495eafd2p-9 0x1.38dfb187863cp-6 0x1.7cfac408ef046p-7 "
     "0x1.4398b8ad6d3e8p-7"},
    {"rgb_luma/noisy",
     "0x1p+0 0x1.2de28ce995395p-258 0x1.2b2d0a7b47bbdp+5 "
     "0x1.24ab371588134p-2 1024 16 | 1024 4 5 noisy | "
     "0x1.e98887a5d4546p-7 0x1.a5fa2c8072318p-9 0x1.bfc20e915382p-5 "
     "0x1.e0c682c9ac69ep-6 0x1.20c7053a6a847p-7"},
    {"rgb_luma/clean",
     "0x1p+0 0x0p+0 0x1.2b2d0a7b47bbdp+5 0x1.24ab371588134p-2 1024 "
     "16 | 1024 4 5 clean | 0x1.e98887a5d4546p-7 "
     "0x1.a5fa2c8072318p-9 0x1.bfc20e915382p-5 0x1.e0c682c9ac69ep-6 "
     "0x1.20c7053a6a847p-7"},
    {"auto_tune/sin",
     "met 3/16/4096 0x1p+18 0x1.5620653a2764bp-9 "
     "0x1.0f8c5557a069ap-8 0x1.63ce80ced803p-9 -M @L4096\n"
     "1/8/256 0x1p+12 0x1.71e3c9feb9d01p-4 0x0p+0 0x0p+0 R-\n"
     "1/16/256 0x1p+13 0x1.720e0fe0bfcap-4 0x0p+0 0x0p+0 R-\n"
     "3/8/256 0x1p+13 0x1.598681dc4451bp-9 0x1.18ab3a4f2845ap-8 "
     "0x1.f6dfb0715e50ap-8 --\n"
     "5/8/256 0x1.8p+13 0x1.598681dc4451bp-9 0x1.18ab3a4f2845ap-8 "
     "0x1.f6dfb0715e50ap-8 --\n"
     "3/16/256 0x1p+14 0x1.5620653a2764bp-9 0x1.70d73bbce146p-7 "
     "0x1.06b9e761b3464p-6 --\n"
     "1/8/1024 0x1p+14 0x1.71e3c9feb9d01p-4 0x0p+0 0x0p+0 R-\n"
     "5/16/256 0x1.8p+14 0x1.5620653a2764bp-9 0x1.70d73bbce146p-7 "
     "0x1.06b9e761b3464p-6 --\n"
     "1/16/1024 0x1p+15 0x1.720e0fe0bfcap-4 0x0p+0 0x0p+0 R-\n"
     "3/8/1024 0x1p+15 0x1.598681dc4451bp-9 0x1.1022b1c69fbcdp-8 "
     "0x1.f16ba7741d736p-8 --\n"
     "5/8/1024 0x1.8p+15 0x1.598681dc4451bp-9 0x1.1022b1c69fbcdp-8 "
     "0x1.f16ba7741d736p-8 --\n"
     "3/16/1024 0x1p+16 0x1.5620653a2764bp-9 0x1.08adb21aef5a6p-8 "
     "0x1.aafcd5db78a2p-8 --\n"
     "1/8/4096 0x1p+16 0x1.71e3c9feb9d01p-4 0x0p+0 0x0p+0 R-\n"
     "5/16/1024 0x1.8p+16 0x1.5620653a2764bp-9 0x1.08adb21aef5a6p-8 "
     "0x1.aafcd5db78a2p-8 --\n"
     "1/16/4096 0x1p+17 0x1.720e0fe0bfcap-4 0x0p+0 0x0p+0 R-\n"
     "3/8/4096 0x1p+17 0x1.598681dc4451bp-9 0x1.0689182d06233p-8 "
     "0x1.e3c20317c9ee3p-8 --\n"
     "5/8/4096 0x1.8p+17 0x1.598681dc4451bp-9 0x1.0689182d06233p-8 "
     "0x1.e3c20317c9ee3p-8 --\n"
     "3/16/4096 0x1p+18 0x1.5620653a2764bp-9 0x1.0f8c5557a069ap-8 "
     "0x1.63ce80ced803p-9 -M"},
    {"auto_tune/mul",
     "unmet 1/8/1024 0x1p+15 0x0p+0 0x1.07654320fedd1p-8 "
     "0x1.77964b6c74e3bp-9 -- @L1024\n"
     "1/8/256 0x1p+13 0x0p+0 0x1.091a2b3c4d5edp-8 "
     "0x1.74bb294a006d7p-9 --\n"
     "1/16/256 0x1p+14 0x0p+0 0x1.8acf13579be08p-7 "
     "0x1.6e9deadd6a606p-8 --\n"
     "2/8/256 0x1.2p+14 0x0p+0 0x1.091a2b3c4d5edp-8 "
     "0x1.74bb294a006d7p-9 --\n"
     "1/8/1024 0x1p+15 0x0p+0 0x1.07654320fedd1p-8 "
     "0x1.77964b6c74e3bp-9 --\n"
     "2/16/256 0x1.2p+15 0x0p+0 0x1.8acf13579be08p-7 "
     "0x1.6e9deadd6a606p-8 --\n"
     "1/16/1024 0x1p+16 0x0p+0 0x1.a9d0369d036a1p-8 "
     "0x1.a61d7588d0c9bp-9 --\n"
     "2/8/1024 0x1.2p+16 0x0p+0 0x1.07654320fedd1p-8 "
     "0x1.77964b6c74e3bp-9 --\n"
     "1/8/4096 0x1p+17 0x0p+0 0x1.083fb72ea61ep-8 "
     "0x1.784bbc32745b6p-9 --\n"
     "2/16/1024 0x1.2p+17 0x0p+0 0x1.a9d0369d036a1p-8 "
     "0x1.a61d7588d0c9bp-9 --\n"
     "1/16/4096 0x1p+18 0x0p+0 0x1.1320fedcba984p-8 "
     "0x1.9a97ab318ddd2p-10 --\n"
     "2/8/4096 0x1.2p+18 0x0p+0 0x1.083fb72ea61ep-8 "
     "0x1.784bbc32745b6p-9 --\n"
     "2/16/4096 0x1.2p+19 0x0p+0 0x1.1320fedcba984p-8 "
     "0x1.9a97ab318ddd2p-10 --"},
};

std::string golden(const std::string& key) {
  for (const auto& [k, v] : kGolden) {
    if (k == key) return v;
  }
  return "";
}

/// Runs `certify_case(noisy)` for the design BER and noiseless under every
/// backend and compares each rendered certificate with its golden entry.
template <typename F>
void expect_golden_certification(const std::string& name, F&& certify_case) {
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    EXPECT_EQ(golden(name + "/noisy"), render(certify_case(true)))
        << name << "/noisy [" << backend_name(backend) << "]";
    EXPECT_EQ(golden(name + "/clean"), render(certify_case(false)))
        << name << "/clean [" << backend_name(backend) << "]";
  }
}

TEST(CertifyGolden, UnivariateSigmoid) {
  const RegistryFunction* fn = find_function("sigmoid");
  ASSERT_NE(fn, nullptr);
  CompileOptions options = uncertified();
  options.projection.max_degree = fn->degree;
  const auto program = compile_function(fn->id, fn->f, options);
  expect_golden_certification("sigmoid", [&](bool noisy) {
    return certify(*program, fn->f, golden_cert_options(noisy));
  });
}

TEST(CertifyGolden, UnivariateSigmoidGridBelowTheDesignProbe) {
  // The design BER is negligible at 1024 bits; a weak probe puts real
  // flips into the certified run.
  const RegistryFunction* fn = find_function("sigmoid");
  ASSERT_NE(fn, nullptr);
  CompileOptions options = uncertified();
  options.projection.max_degree = fn->degree;
  const auto program = compile_function(fn->id, fn->f, options);
  GridCertificationOptions grid_options;
  grid_options.probe_scales = {0.1};
  grid_options.stream_lengths = {1024};
  grid_options.repeats = 4;
  grid_options.grid_points = 5;
  grid_options.threads = 2;
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    const GridCertification grid =
        certify_grid(*program, fn->f, grid_options);
    ASSERT_EQ(grid.cells.size(), 1u);
    EXPECT_EQ(golden("sigmoid/grid"), render(grid.cells[0].cert))
        << "[" << backend_name(backend) << "]";
  }
}

TEST(CertifyGolden, BivariateMulAndEuclid2) {
  for (const std::string id : {"mul", "euclid2"}) {
    const RegistryFunction2* fn = find_function2(id);
    ASSERT_NE(fn, nullptr) << id;
    CompileOptions options = uncertified();
    options.projection2.max_degree_x = fn->degree_x;
    options.projection2.max_degree_y = fn->degree_y;
    const auto program = compile_function2(fn->id, fn->f, options);
    expect_golden_certification(id, [&](bool noisy) {
      return certify2(*program, fn->f, golden_cert_options(noisy));
    });
  }
}

TEST(CertifyGolden, SeparableRgbLuma) {
  const RegistryFunctionN* fn = find_function_nd("rgb_luma");
  ASSERT_NE(fn, nullptr);
  CompileOptions options = uncertified();
  options.projection_nd.degree = fn->degree;
  options.projection_nd.max_terms = fn->max_terms;
  const auto program = compile_function_nd(fn->id, fn->arity, fn->f, options);
  expect_golden_certification("rgb_luma", [&](bool noisy) {
    return certify_nd(*program, fn->f, golden_cert_options(noisy));
  });
}

AutoTuneOptions golden_tune_options() {
  AutoTuneOptions options;
  options.degrees = {1, 3, 5};
  options.widths = {8, 16};
  options.stream_lengths = {256, 1024, 4096};
  options.repeats = 3;
  options.grid_points = 5;
  options.threads = 2;
  return options;
}

TEST(CertifyGolden, AutoTuneSin) {
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    EXPECT_EQ(golden("auto_tune/sin"),
              render(auto_tune("sin", 0.01, golden_tune_options())))
        << "[" << backend_name(backend) << "]";
  }
}

TEST(CertifyGolden, AutoTuneBivariateMul) {
  AutoTuneOptions options = golden_tune_options();
  options.degrees = {1, 2};
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    EXPECT_EQ(golden("auto_tune/mul"),
              render(auto_tune("mul", 0.004, options)))
        << "[" << backend_name(backend) << "]";
  }
}

}  // namespace
}  // namespace oscs::compile
