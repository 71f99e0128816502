/// Serialization tests: write/read round trips for the key, the program
/// codec (every form), the fit report and the certificate, the pinned
/// portable cache-identity digests (the regression fence against
/// std::hash-style drift between builds and platforms), and the
/// corruption contract - truncated, bit-flipped, bad-magic,
/// version-mismatched, off-grid and out-of-range cache files must all
/// degrade to counted load errors, never a crash or a throw out of
/// ProgramCache::load.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "compile/cache.hpp"
#include "compile/compiler.hpp"
#include "compile/registry.hpp"
#include "compile/serialize.hpp"

namespace oscs::compile {
namespace {

CompileOptions fast_options() {
  CompileOptions options;
  options.certify = false;
  return options;
}

CompileOptions certified_options() {
  CompileOptions options;
  options.certification.repeats = 2;
  options.certification.grid_points = 3;
  options.certification.stream_length = 256;
  return options;
}

std::shared_ptr<const CompiledProgram> sample_univariate(
    const CompileOptions& options) {
  return compile_function(
      "sigmoid", [](double x) { return 1.0 / (1.0 + std::exp(-4.0 * x)); },
      options);
}

std::shared_ptr<const CompiledProgram> sample_bivariate(
    const CompileOptions& options) {
  return compile_function2(
      "mul", [](double x, double y) { return x * y; }, options);
}

std::shared_ptr<const CompiledProgram> sample_nd(
    const CompileOptions& options) {
  return compile_function_nd(
      "rgb_luma", 3,
      [](const std::vector<double>& p) {
        return 0.2126 * p[0] + 0.7152 * p[1] + 0.0722 * p[2];
      },
      options);
}

/// Round-trip one program through a record payload.
std::shared_ptr<const CompiledProgram> round_trip(
    const CompiledProgram& program) {
  BinWriter out;
  write_compiled_program(out, program);
  BinReader in(out.data());
  auto back = read_compiled_program(in);
  EXPECT_TRUE(in.exhausted());
  return back;
}

TEST(ProgramKeyDigest, PinnedValues) {
  // These constants are the portable on-disk identity. They must never
  // change across builds, standard libraries or platforms - a drift here
  // means every persisted cache file written before the change silently
  // misses (the exact bug this digest replaced std::hash to fix).
  const ProgramKey k1{"sigmoid", 6, 0, 16, 0, 1};
  EXPECT_EQ(k1.digest(), 0x78B7BA22DA0807E7ULL);
  const ProgramKey k2{"mul", 3, 3, 16, 0xDEADBEEFULL, 2};
  EXPECT_EQ(k2.digest(), 0x283D0B25B073CE34ULL);

  // Full make_program_key* pipeline digests at default compile options,
  // covering the options_digest (FNV-1a with the arity salt) as well.
  const CompileOptions defaults{};
  const ProgramKey mk1 = make_program_key("sigmoid", defaults);
  EXPECT_EQ(mk1.options_digest, 0x812C479B1CBAB4A5ULL);
  EXPECT_EQ(mk1.digest(), 0xC3B9DE7ED9F563A9ULL);
  const ProgramKey mk2 = make_program_key2("mul", defaults);
  EXPECT_EQ(mk2.options_digest, 0xD26BF397B366343DULL);
  EXPECT_EQ(mk2.digest(), 0x4D26E61FFB451CCFULL);
  const ProgramKey mk3 = make_program_key_nd("rgb_luma", 3, defaults);
  EXPECT_EQ(mk3.options_digest, 0x9A9577D1896E9E78ULL);
  EXPECT_EQ(mk3.digest(), 0x8EC35878A9CDBFC4ULL);
}

TEST(ProgramKeyDigest, HashFunctorUsesPortableDigest) {
  const ProgramKey key{"sigmoid", 6, 0, 16, 0, 1};
  EXPECT_EQ(ProgramKeyHash{}(key),
            static_cast<std::size_t>(key.digest()));
}

TEST(ProgramKeyDigest, AritySaltSeparatesEqualFields) {
  ProgramKey a{"fn", 3, 0, 16, 0, 1};
  ProgramKey b = a;
  b.arity = 3;
  EXPECT_NE(a.digest(), b.digest());
}

TEST(SerializeStructs, ProgramKeyRoundTrip) {
  const ProgramKey key{"alpha_blend", 4, 3, 20, 0xABCDEF0123456789ULL, 2};
  BinWriter out;
  write_program_key(out, key);
  BinReader in(out.data());
  EXPECT_EQ(read_program_key(in), key);
  EXPECT_TRUE(in.exhausted());
}

TEST(SerializeStructs, CertificationRoundTrip) {
  Certification cert;
  cert.op.probe_power_mw = 1.5;
  cert.op.ber = 0.01;
  cert.op.snr = 12.0;
  cert.op.threshold_mw = 0.7;
  cert.op.stream_length = 4096;
  cert.op.sng_width = 16;
  cert.repeats = 16;
  cert.grid_points = 9;
  cert.mc_mae = 0.0021;
  cert.mc_mae_ci = 0.0004;
  cert.mc_worst = 0.0065;
  cert.electronic_mae = 0.0018;
  cert.approx_max_error = 0.0032;

  BinWriter out;
  write_certification(out, cert);
  BinReader in(out.data());
  const Certification back = read_certification(in);
  EXPECT_EQ(back.op, cert.op);
  EXPECT_EQ(back.repeats, cert.repeats);
  EXPECT_EQ(back.grid_points, cert.grid_points);
  EXPECT_EQ(back.mc_mae, cert.mc_mae);
  EXPECT_EQ(back.mc_mae_ci, cert.mc_mae_ci);
  EXPECT_EQ(back.mc_worst, cert.mc_worst);
  EXPECT_EQ(back.electronic_mae, cert.electronic_mae);
  EXPECT_EQ(back.approx_max_error, cert.approx_max_error);
  EXPECT_TRUE(in.exhausted());
}

/// Byte offset of the first coefficient in a dense one-axis program
/// encoding: layout byte, axis count, the order, the coefficient count.
constexpr std::size_t kFirstDenseCoefficient = 1 + 8 + 8 + 8;

TEST(SerializeStructs, CoefficientOutsideUnitBoxRejected) {
  const auto program = sample_univariate(fast_options());
  BinWriter out;
  write_program(out, program->program());
  // Overwrite the first coefficient with 2.0 - structurally valid bytes,
  // semantically outside the stochastic box.
  std::string bytes = out.data();
  BinWriter patch;
  patch.f64(2.0);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[kFirstDenseCoefficient + i] = patch.data()[i];
  }
  BinReader in(bytes);
  EXPECT_THROW((void)read_program(in, program->key().width), BinIoError);
}

TEST(SerializeProgram, UnknownFormTagRejected) {
  const auto program = sample_univariate(fast_options());
  BinWriter out;
  write_program(out, program->program());
  std::string bytes = out.data();
  bytes[0] = 9;  // no such layout
  BinReader in(bytes);
  EXPECT_THROW((void)read_program(in, program->key().width), BinIoError);
}

TEST(SerializeProgram, ProgramArityMustMatchItsKey) {
  const auto program = sample_univariate(fast_options());
  ProgramKey key = program->key();
  key.arity = 2;
  BinWriter out;
  write_program_key(out, key);
  write_program(out, program->program());
  write_fit_report(out, program->report());
  out.u8(0);  // no certificate
  BinReader in(out.data());
  EXPECT_THROW((void)read_compiled_program(in), BinIoError);
}

TEST(SerializeStructs, ProgramCodecRoundTripsEveryForm) {
  for (const auto& program :
       {sample_univariate(fast_options()), sample_bivariate(fast_options()),
        sample_nd(fast_options())}) {
    BinWriter out;
    write_program(out, program->program());
    BinReader in(out.data());
    const stochastic::SeparableProgram back =
        read_program(in, program->key().width);
    EXPECT_TRUE(in.exhausted());
    EXPECT_EQ(back.arity(), program->arity());
    EXPECT_EQ(back.orders(), program->program().orders());
    EXPECT_EQ(back.has_dense1(), program->program().has_dense1());
    EXPECT_EQ(back.has_dense2(), program->program().has_dense2());
    const std::vector<double> point(program->arity(), 0.37);
    EXPECT_EQ(back(point), program->program()(point));
  }
}

/// Every FitReport field survives the round trip bit for bit.
void expect_same_report(const FitReport& back, const FitReport& report) {
  EXPECT_EQ(back.degrees, report.degrees);
  EXPECT_EQ(back.max_error, report.max_error);
  EXPECT_EQ(back.l2_error, report.l2_error);
  EXPECT_EQ(back.feasibility_gap, report.feasibility_gap);
  EXPECT_EQ(back.clamped, report.clamped);
  EXPECT_EQ(back.target_met, report.target_met);
  EXPECT_EQ(back.term_errors, report.term_errors);
  EXPECT_EQ(back.max_coeff_delta, report.max_coeff_delta);
}

TEST(SerializeProgram, UnivariateRoundTripPreservesEverything) {
  const auto program = sample_univariate(certified_options());
  const auto back = round_trip(*program);
  EXPECT_EQ(back->key(), program->key());
  EXPECT_FALSE(back->is_bivariate());
  EXPECT_FALSE(back->is_nd());
  EXPECT_EQ(back->poly().coeffs(), program->poly().coeffs());
  expect_same_report(back->report(), program->report());
  EXPECT_EQ(back->elevated(), program->elevated());
  ASSERT_TRUE(back->certification().has_value());
  EXPECT_EQ(back->certification()->mc_mae, program->certification()->mc_mae);
  EXPECT_EQ(back->certification()->op, program->certification()->op);
  // The rebuilt backend must land on the same circuit order and design
  // operating point (both are deterministic functions of the payload).
  EXPECT_EQ(back->circuit_order(), program->circuit_order());
  EXPECT_EQ(back->design_point(), program->design_point());
}

TEST(SerializeProgram, BivariateRoundTripPreservesEverything) {
  const auto program = sample_bivariate(certified_options());
  const auto back = round_trip(*program);
  EXPECT_EQ(back->key(), program->key());
  EXPECT_TRUE(back->is_bivariate());
  EXPECT_EQ(back->poly2().coeffs(), program->poly2().coeffs());
  EXPECT_EQ(back->poly2().deg_x(), program->poly2().deg_x());
  EXPECT_EQ(back->poly2().deg_y(), program->poly2().deg_y());
  expect_same_report(back->report(), program->report());
  ASSERT_TRUE(back->certification().has_value());
  EXPECT_EQ(back->certification()->mc_mae, program->certification()->mc_mae);
  EXPECT_EQ(back->circuit_order(), program->circuit_order());
  EXPECT_EQ(back->circuit_order_y(), program->circuit_order_y());
}

TEST(SerializeProgram, SeparableRoundTripPreservesEverything) {
  const auto program = sample_nd(certified_options());
  const auto back = round_trip(*program);
  EXPECT_EQ(back->key(), program->key());
  EXPECT_TRUE(back->is_nd());
  EXPECT_EQ(back->arity(), 3u);
  const auto& terms = program->program_nd().terms();
  const auto& back_terms = back->program_nd().terms();
  ASSERT_EQ(back_terms.size(), terms.size());
  for (std::size_t t = 0; t < terms.size(); ++t) {
    EXPECT_EQ(back_terms[t].weight, terms[t].weight);
    ASSERT_EQ(back_terms[t].factors.size(), terms[t].factors.size());
    for (std::size_t j = 0; j < terms[t].factors.size(); ++j) {
      EXPECT_EQ(back_terms[t].factors[j].axis, terms[t].factors[j].axis);
      EXPECT_EQ(back_terms[t].factors[j].poly.coeffs(),
                terms[t].factors[j].poly.coeffs());
    }
  }
  expect_same_report(back->report(), program->report());
  EXPECT_FALSE(back->report().term_errors.empty());
  ASSERT_TRUE(back->certification().has_value());
  EXPECT_EQ(back->certification()->mc_mae, program->certification()->mc_mae);
}

TEST(SerializeProgram, DegreeZeroFitRoundTripsElevated) {
  CompileOptions options = fast_options();
  options.projection.min_degree = 0;
  options.projection.max_degree = 0;
  const auto program =
      compile_function("const_0p4", [](double) { return 0.4; }, options);
  ASSERT_TRUE(program->elevated());
  const auto back = round_trip(*program);
  EXPECT_TRUE(back->elevated());
  EXPECT_EQ(back->report().degrees, std::vector<std::size_t>{0});
  EXPECT_EQ(back->poly().coeffs(), program->poly().coeffs());
  EXPECT_EQ(back->circuit_order(), 1u);
}

// --- Whole cache-file corruption contract ------------------------------

/// A saved two-program cache file as a byte string.
std::string saved_cache_bytes() {
  ProgramCache cache(8);
  const auto p1 = sample_univariate(fast_options());
  const auto p2 = sample_bivariate(fast_options());
  cache.put(p1->key(), p1);
  cache.put(p2->key(), p2);
  std::ostringstream out;
  EXPECT_EQ(cache.save(out), 2u);
  return out.str();
}

TEST(CacheFile, SaveLoadRoundTrip) {
  const std::string bytes = saved_cache_bytes();
  ProgramCache cache(8);
  std::istringstream in(bytes);
  const CacheLoadReport report = cache.load(in);
  EXPECT_TRUE(report.opened);
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_TRUE(report.message.empty());
  EXPECT_EQ(cache.size(), 2u);
  // Loads count as inserts: the churn invariant holds on a loaded cache.
  const ProgramCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.inserts - stats.evictions, cache.size());
}

TEST(CacheFile, TruncationAtEveryBoundaryIsNonFatal) {
  const std::string bytes = saved_cache_bytes();
  // Cut the file at a spread of offsets including inside the header,
  // inside record frames and inside payloads. Every load must return
  // (never throw), report at least one error, and load only whole
  // records.
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, std::size_t{11},
                          std::size_t{17}, std::size_t{24}, std::size_t{31},
                          bytes.size() / 4, bytes.size() / 2,
                          bytes.size() - 9, bytes.size() - 1}) {
    ProgramCache cache(8);
    std::istringstream in(bytes.substr(0, cut));
    const CacheLoadReport report = cache.load(in);
    EXPECT_GE(report.errors, 1u) << "cut at " << cut;
    EXPECT_LE(report.loaded, 2u);
    EXPECT_EQ(cache.size(), report.loaded);
  }
}

TEST(CacheFile, BitFlipsAreNonFatal) {
  const std::string pristine = saved_cache_bytes();
  // Flip one bit at a spread of positions across the whole file. The
  // checksum (or a parse failure) must catch payload flips; frame flips
  // at worst lose records. Nothing may throw, and the invariant
  // loaded + errors >= 1 record accounting holds when the header
  // survived.
  for (std::size_t pos = 0; pos < pristine.size();
       pos += pristine.size() / 97 + 1) {
    std::string bytes = pristine;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x10);
    ProgramCache cache(8);
    std::istringstream in(bytes);
    const CacheLoadReport report = cache.load(in);
    EXPECT_EQ(cache.size(), report.loaded) << "flip at " << pos;
    if (report.opened) {
      EXPECT_LE(report.loaded, 2u);
    } else {
      EXPECT_GE(report.errors, 1u);
    }
  }
}

TEST(CacheFile, BadMagicRejectedWhole) {
  std::string bytes = saved_cache_bytes();
  bytes[0] = 'X';
  ProgramCache cache(8);
  std::istringstream in(bytes);
  const CacheLoadReport report = cache.load(in);
  EXPECT_FALSE(report.opened);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(report.errors, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheFile, VersionMismatchRejectedWhole) {
  std::string bytes = saved_cache_bytes();
  bytes[8] = static_cast<char>(kCacheFormatVersion + 1);
  ProgramCache cache(8);
  std::istringstream in(bytes);
  const CacheLoadReport report = cache.load(in);
  EXPECT_FALSE(report.opened);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(report.errors, 1u);
  EXPECT_NE(report.message.find("version"), std::string::npos);
}

TEST(CacheFile, CorruptRecordSkippedRestLoads) {
  // Corrupt the FIRST record's payload (one coefficient byte) but leave
  // the second intact: the loader must skip record 0 by its declared size
  // and still land record 1.
  std::string bytes = saved_cache_bytes();
  const std::size_t header = 8 + 4 + 4 + 8;
  const std::size_t payload_start = header + 8 + 4 + 8;
  bytes[payload_start + 30] = static_cast<char>(bytes[payload_start + 30] ^ 0xFF);
  ProgramCache cache(8);
  std::istringstream in(bytes);
  const CacheLoadReport report = cache.load(in);
  EXPECT_TRUE(report.opened);
  EXPECT_EQ(report.loaded, 1u);
  EXPECT_EQ(report.errors, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

/// A one-record cache file around `payload`, framed exactly as
/// ProgramCache::save frames it (valid digest and checksum).
std::string one_record_file(const ProgramKey& key, const BinWriter& payload) {
  BinWriter file;
  file.bytes(kCacheMagic, sizeof(kCacheMagic));
  file.u32(kCacheFormatVersion).u32(0).u64(1);
  file.u64(key.digest());
  file.u32(static_cast<std::uint32_t>(payload.size()));
  file.u64(fnv1a(payload.data().data(), payload.size()));
  file.bytes(payload.data().data(), payload.size());
  return file.data();
}

TEST(CacheFile, OffGridCoefficientIsCountedLoadErrorThenColdCompiles) {
  // A record whose checksum is valid but whose first coefficient sits
  // between two 16-bit comparator levels: no quantizer produced it, so
  // the loader must reject it as a counted error, and the program then
  // compiles cold.
  Compiler compiler(fast_options());
  const auto program = sample_univariate(fast_options());
  std::vector<double> coeffs = program->poly().coeffs();
  coeffs[0] = coeffs[0] > 0.5 ? coeffs[0] - std::ldexp(1.0, -20)
                              : coeffs[0] + std::ldexp(1.0, -20);
  BinWriter payload;
  write_program_key(payload, program->key());
  write_program(payload, stochastic::SeparableProgram(
                             stochastic::BernsteinPoly(std::move(coeffs))));
  write_fit_report(payload, program->report());
  payload.u8(0);  // no certificate

  std::istringstream in(one_record_file(program->key(), payload));
  const CacheLoadReport report = compiler.cache().load(in);
  EXPECT_TRUE(report.opened);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(report.errors, 1u);
  EXPECT_NE(report.message.find("comparator grid"), std::string::npos)
      << report.message;
  EXPECT_FALSE(compiler.cache().contains(program->key()));

  const auto cold = compiler.compile(
      "sigmoid", [](double x) { return 1.0 / (1.0 + std::exp(-4.0 * x)); });
  EXPECT_EQ(cold->key(), program->key());
  EXPECT_EQ(cold->poly().coeffs(), program->poly().coeffs());
  EXPECT_EQ(compiler.cache().stats().misses, 1u);

  // The same frame around the untouched program loads.
  BinWriter pristine;
  write_compiled_program(pristine, *program);
  ProgramCache cache(4);
  std::istringstream ok(one_record_file(program->key(), pristine));
  const CacheLoadReport loaded = cache.load(ok);
  EXPECT_EQ(loaded.loaded, 1u);
  EXPECT_EQ(loaded.errors, 0u);
}

TEST(CacheFile, MissingFileIsNonFatal) {
  ProgramCache cache(4);
  const CacheLoadReport report =
      cache.load("/nonexistent/dir/oscs_cache.bin");
  EXPECT_FALSE(report.opened);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(report.errors, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheFile, LruOrderRoundTrips) {
  // Fill past a smaller destination capacity: the records are written
  // LRU-first, so the loaded cache must keep the most recently used
  // programs and evict in saved-LRU order.
  ProgramCache source(8);
  std::vector<std::shared_ptr<const CompiledProgram>> programs;
  for (int i = 0; i < 4; ++i) {
    auto program = compile_function(
        "fn" + std::to_string(i),
        [i](double x) { return 0.1 * (i + 1) + 0.05 * x; }, fast_options());
    source.put(program->key(), program);
    programs.push_back(program);
  }
  std::ostringstream out;
  source.save(out);

  ProgramCache dest(2);
  std::istringstream in(out.str());
  const CacheLoadReport report = dest.load(in);
  EXPECT_EQ(report.loaded, 4u);  // all parsed; two were evicted again
  EXPECT_EQ(dest.size(), 2u);
  // The two most-recently-used survive.
  EXPECT_TRUE(dest.contains(programs[3]->key()));
  EXPECT_TRUE(dest.contains(programs[2]->key()));
  EXPECT_FALSE(dest.contains(programs[0]->key()));
}

}  // namespace
}  // namespace oscs::compile
