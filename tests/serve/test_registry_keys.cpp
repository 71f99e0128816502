/// \file test_registry_keys.cpp
/// \brief Pins the program-cache key every registry id resolves to on the
///        serving path, at the server's default compile options, both with
///        the registry's recommended degree caps and with a request
///        "degree" override. The keys are read back from the record frames
///        of a saved cache file (each frame leads with
///        ProgramKey::digest()), so the pin covers exactly what a request
///        resolves and what a persisted cache file is addressed by: a
///        change here orphans every cache file written before it. The
///        same file, reloaded into a fresh cache, pins what every record
///        restores: the run program, the kernel orders, the fit report and
///        the certificate.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/json.hpp"
#include "compile/cache.hpp"
#include "compile/registry.hpp"
#include "serve/server.hpp"

namespace oscs::serve {
namespace {

struct PinnedKey {
  const char* id;
  std::size_t arity;
  std::uint64_t digest;         ///< registry degree caps
  std::uint64_t degree2_digest; ///< request "degree": 2
};

// Every registry entry, in catalogue order (univariate, bivariate, N-ary).
const std::vector<PinnedKey> kPinned = {
    {"sigmoid", 1, 0xc3b9de7ed9f563a9, 0x7c9e560479b8d45d},
    {"tanh", 1, 0xf34fe416fb594bb1, 0x623cfcb3a6c6f505},
    {"sin", 1, 0xd4e517d2f6ef3e1c, 0x0afe0ade51a0ff77},
    {"cos", 1, 0x334ab192b7b41d05, 0x11197f08c70aec0e},
    {"exp_neg", 1, 0x0ba1e5de79296c85, 0xef714e1f86d0ee5b},
    {"sqrt", 1, 0x970bd19c7f710862, 0x4c52a604c72cb77e},
    {"square", 1, 0x8aa704c825fe287d, 0x8aa704c825fe287d},
    {"cube", 1, 0x7785bad866eb29bc, 0xab9979c92d1644e9},
    {"gamma", 1, 0x9e73472be4131eca, 0x8c04cbea91985bc6},
    {"mul", 2, 0x9f386be0758936ef, 0x76c392a52e89610f},
    {"alpha_blend", 2, 0x944c23184ab46875, 0x8a86be07b98e7615},
    {"euclid2", 2, 0x96003b32a570aeaf, 0xae4d125964bf56ef},
    {"bilinear_gamma", 2, 0xec677e8a7aaf509a, 0xe3ed6cb0933a53fa},
    {"rgb_luma", 3, 0x8ec35878a9cdbfc4, 0x732fd40d09480929},
    {"trilinear_mix", 3, 0x88c36de1acd62ac9, 0x47bbfe6b7901ea80},
    {"smoothstep3", 3, 0x05aa9af77fe3f28b, 0xaab086c2d9d1bd72},
};

/// One single-point evaluate request for `id` at its arity, spelled the
/// way clients send each arity.
std::string request_line(const PinnedKey& entry, const std::string& extra) {
  std::string line = R"({"function": ")" + std::string(entry.id) + R"(", )";
  if (entry.arity == 1) {
    line += R"("xs": [0.5])";
  } else if (entry.arity == 2) {
    line += R"("xs": [0.5], "ys": [0.5])";
  } else {
    line += R"("inputs": [[0.5])";
    for (std::size_t axis = 1; axis < entry.arity; ++axis) line += ", [0.5]";
    line += "]";
  }
  return line + R"(, "stream_lengths": [64], "repeats": 1)" + extra + "}";
}

/// Serves every pinned id once on `server`, then returns the bytes of its
/// saved cache file.
std::string served_cache_file(ProgramServer& server, const std::string& extra) {
  for (const PinnedKey& entry : kPinned) {
    const std::string line = request_line(entry, extra);
    const JsonValue doc = json_parse(server.handle_json(line));
    EXPECT_TRUE(doc.find("ok")->as_bool()) << line;
  }
  std::ostringstream file;
  EXPECT_EQ(server.compiler().cache().save(file), kPinned.size());
  return file.str();
}

/// Serves every pinned id once on a default server, then returns the key
/// digests of the saved cache file's records - one per id, in serve order
/// (the file is written least-recently-used first).
std::vector<std::uint64_t> served_digests(const std::string& extra) {
  ProgramServer server;
  const std::string bytes = served_cache_file(server, extra);
  BinReader reader(bytes);
  (void)reader.take(8);  // magic
  (void)reader.u32();    // format version
  (void)reader.u32();    // reserved
  std::vector<std::uint64_t> digests(reader.u64());
  for (std::uint64_t& digest : digests) {
    digest = reader.u64();
    const std::uint32_t payload_size = reader.u32();
    (void)reader.u64();  // payload checksum
    (void)reader.take(payload_size);
  }
  return digests;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(RegistryKeyDigest, ServingKeysAtRegistryDegrees) {
  const std::vector<std::uint64_t> digests = served_digests("");
  ASSERT_EQ(digests.size(), kPinned.size());
  for (std::size_t i = 0; i < kPinned.size(); ++i) {
    EXPECT_EQ(hex(digests[i]), hex(kPinned[i].digest)) << kPinned[i].id;
  }
}

TEST(RegistryKeyDigest, ServingKeysWithDegreeOverride) {
  const std::vector<std::uint64_t> digests =
      served_digests(R"(, "degree": 2)");
  ASSERT_EQ(digests.size(), kPinned.size());
  for (std::size_t i = 0; i < kPinned.size(); ++i) {
    EXPECT_EQ(hex(digests[i]), hex(kPinned[i].degree2_digest))
        << kPinned[i].id;
  }
}

/// FNV-1a over everything a reloaded record restores: the run program's
/// coefficients, weights and axes, the kernel's per-axis orders and the
/// elevation flag, the fit report and every certificate field.
std::uint64_t content_digest(const compile::CompiledProgram& program) {
  Fnv1a d;
  const stochastic::SeparableProgram& run = program.program();
  d.u64(run.arity());
  if (run.has_dense2()) {
    for (double c : run.dense2().coeffs()) d.f64(c);
  }
  for (const stochastic::SeparableTerm& term : run.terms()) {
    d.f64(term.weight);
    for (const stochastic::SeparableFactor& factor : term.factors) {
      d.u64(factor.axis);
      for (double c : factor.poly.coeffs()) d.f64(c);
    }
  }
  for (std::size_t order : program.kernel()->orders()) d.u64(order);
  d.u8(program.elevated() ? 1 : 0);

  const compile::FitReport& fit = program.report();
  for (std::size_t degree : fit.degrees) d.u64(degree);
  d.f64(fit.max_error).f64(fit.l2_error).f64(fit.feasibility_gap);
  d.u8(fit.clamped ? 1 : 0).u8(fit.target_met ? 1 : 0);
  for (double e : fit.term_errors) d.f64(e);
  d.f64(fit.max_coeff_delta);

  const std::optional<compile::Certification>& cert = program.certification();
  d.u8(cert.has_value() ? 1 : 0);
  if (cert.has_value()) {
    d.f64(cert->op.probe_power_mw).f64(cert->op.ber).f64(cert->op.snr);
    d.f64(cert->op.threshold_mw).u64(cert->op.stream_length);
    d.u32(cert->op.sng_width);
    // The bits per evaluation and the noise switch are read a second time
    // here, where cache format 1 stored copies of them, so the pinned
    // values span both formats.
    d.u64(cert->op.stream_length).u64(cert->repeats).u64(cert->grid_points);
    d.u8(cert->op.noisy() ? 1 : 0);
    d.f64(cert->mc_mae).f64(cert->mc_mae_ci).f64(cert->mc_worst);
    d.f64(cert->electronic_mae).f64(cert->approx_max_error);
  }
  return d.value();
}

// Content digests of the reloaded records at the registry degree caps, in
// kPinned order.
const std::vector<std::uint64_t> kPinnedContent = {
    0x98dfe8a9a0fdb72b,  // sigmoid
    0x8ba6cf734f0cfc05,  // tanh
    0xc8575b481408250c,  // sin
    0xdd22280bbb296bea,  // cos
    0x8145723b4e96c26b,  // exp_neg
    0xd528f8c8244adcc0,  // sqrt
    0xc8c32cdb93fca04e,  // square
    0xa5659bf0366e4280,  // cube
    0x9ce4fc5e243ca1b2,  // gamma
    0x99e0294aecebeee9,  // mul
    0x9b178969ea7a96a1,  // alpha_blend
    0xe0a2b464a7b61582,  // euclid2
    0x5478b31a19cc40f6,  // bilinear_gamma
    0x71a93efb5b026b15,  // rgb_luma
    0xcd892e7a1c6966dc,  // trilinear_mix
    0x65564caf84ce4fa8,  // smoothstep3
};

TEST(RegistryKeyDigest, ReloadedProgramContents) {
  ProgramServer server;
  std::istringstream file(served_cache_file(server, ""));
  compile::ProgramCache reloaded(kPinned.size());
  const compile::CacheLoadReport report = reloaded.load(file);
  EXPECT_EQ(report.loaded, kPinned.size());
  EXPECT_EQ(report.errors, 0u);
  ASSERT_EQ(kPinnedContent.size(), kPinned.size());
  for (std::size_t i = 0; i < kPinned.size(); ++i) {
    const std::optional<compile::RegistryProgram> registered =
        compile::registry_program(kPinned[i].id, server.options().compile);
    ASSERT_TRUE(registered.has_value()) << kPinned[i].id;
    const std::shared_ptr<const compile::CompiledProgram> program =
        reloaded.get(registered->key);
    ASSERT_NE(program, nullptr) << kPinned[i].id;
    EXPECT_EQ(hex(content_digest(*program)), hex(kPinnedContent[i]))
        << kPinned[i].id;
  }
}

}  // namespace
}  // namespace oscs::serve
