/// \file test_stimulus_golden.cpp
/// \brief Pinned-output oracle for the stochastic stimulus layer. Each row
///        below is the FNV-1a digest of the length and packed words of
///        every stream one generator family produces at one (source,
///        length) pair, over all of the family's orders:
///
///   * sc1 / fused1: one-input stimulus (data bank, then coefficient
///     streams) at orders {0, 1, 3, 6}, one program and three programs;
///   * sc2 / fused2: two-input stimulus (x bank, y bank, then row-major
///     coefficient grids) at orders {0, 2} x {0, 3}, one and three
///     programs;
///   * resc1 / resc2: the electronic ReSC unit's output stream on the
///     one-program stimulus of the same orders.
///
/// Stream independence is what makes the ReSC adder and MUX compute the
/// Bernstein value, so the salt layout behind these streams is pinned bit
/// for bit. Every row runs under each available SIMD backend (the bulk SNG
/// fill has an AVX2 path).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/binio.hpp"
#include "common/simd.hpp"
#include "stochastic/bernstein.hpp"
#include "stochastic/bitstream.hpp"
#include "stochastic/resc.hpp"
#include "stochastic/sng.hpp"

namespace oscs::stochastic {
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

constexpr double kX = 0.37;
constexpr double kY = 0.71;
constexpr std::uint64_t kSeed = 7;
constexpr std::size_t kPrograms = 3;
const std::vector<std::size_t> kOrders1 = {0, 1, 3, 6};
const std::vector<std::pair<std::size_t, std::size_t>> kOrders2 = {
    {0, 0}, {0, 3}, {2, 0}, {2, 3}};

/// Deterministic coefficients spread over [0, 1), distinct per program.
std::vector<double> grid_coeffs(std::size_t count, std::size_t program) {
  std::vector<double> c(count);
  for (std::size_t j = 0; j < count; ++j) {
    c[j] = std::fmod(0.137 + 0.291 * static_cast<double>(j) +
                         0.173 * static_cast<double>(program),
                     1.0);
  }
  return c;
}

std::vector<std::vector<double>> program_grids(std::size_t count,
                                               std::size_t programs) {
  std::vector<std::vector<double>> grids;
  for (std::size_t k = 0; k < programs; ++k) {
    grids.push_back(grid_coeffs(count, k));
  }
  return grids;
}

void hash_stream(oscs::Fnv1a& h, const Bitstream& s) {
  h.u64(s.size());
  for (std::size_t w = 0; w < s.word_count(); ++w) h.u64(s.word(w));
}

void hash_streams(oscs::Fnv1a& h, const std::vector<Bitstream>& streams) {
  for (const Bitstream& s : streams) hash_stream(h, s);
}

enum class Family { kSc1, kFused1, kSc2, kFused2, kResc1, kResc2 };

const char* family_name(Family f) {
  switch (f) {
    case Family::kSc1: return "kSc1";
    case Family::kFused1: return "kFused1";
    case Family::kSc2: return "kSc2";
    case Family::kFused2: return "kFused2";
    case Family::kResc1: return "kResc1";
    case Family::kResc2: return "kResc2";
  }
  return "?";
}

const char* source_name(SourceKind kind) {
  switch (kind) {
    case SourceKind::kLfsr: return "kLfsr";
    case SourceKind::kCounter: return "kCounter";
    case SourceKind::kVanDerCorput: return "kVanDerCorput";
    case SourceKind::kChaoticLaser: return "kChaoticLaser";
  }
  return "?";
}

void hash_stimulus(oscs::Fnv1a& h, const ScInputs& in) {
  for (const auto& bank : in.axes) hash_streams(h, bank);
  for (const auto& grid : in.programs) hash_streams(h, grid);
}

std::uint64_t family_digest(Family family, SourceKind kind,
                            std::size_t length) {
  const ScInputConfig config{kind, 16, kSeed};
  const bool fused = family == Family::kFused1 || family == Family::kFused2;
  const bool resc = family == Family::kResc1 || family == Family::kResc2;
  std::vector<std::vector<std::size_t>> shapes;
  std::vector<double> point;
  if (family == Family::kSc1 || family == Family::kFused1 ||
      family == Family::kResc1) {
    for (std::size_t n : kOrders1) shapes.push_back({n});
    point = {kX};
  } else {
    for (const auto& [n, m] : kOrders2) shapes.push_back({n, m});
    point = {kX, kY};
  }
  oscs::Fnv1a h;
  for (const std::vector<std::size_t>& orders : shapes) {
    std::size_t grid = 1;
    for (std::size_t n : orders) grid *= n + 1;
    const ScInputs in = make_sc_inputs(
        point, program_grids(grid, fused ? kPrograms : 1), orders, length,
        config);
    if (!resc) {
      hash_stimulus(h, in);
      continue;
    }
    const std::vector<double> c = grid_coeffs(grid, 0);
    const ReSCUnit unit = orders.size() == 1
                              ? ReSCUnit(BernsteinPoly(c))
                              : ReSCUnit(BernsteinPoly2(orders[0], orders[1], c));
    hash_stream(h, unit.output_stream(in));
  }
  return h.value();
}

struct GoldenRow {
  Family family;
  SourceKind kind;
  std::size_t length;
  std::uint64_t digest;
};

// clang-format off
const std::vector<GoldenRow> kGolden = {
    {Family::kSc1, SourceKind::kLfsr, 1, 0x375e8163abcd6225ULL},
    {Family::kSc1, SourceKind::kLfsr, 63, 0x7a4ccb8a1b73fad8ULL},
    {Family::kSc1, SourceKind::kLfsr, 64, 0x72e3b612f6d6e988ULL},
    {Family::kSc1, SourceKind::kLfsr, 65, 0x472a2891ba4cfb00ULL},
    {Family::kSc1, SourceKind::kLfsr, 4095, 0xa81e60dc32cbe4c0ULL},
    {Family::kSc1, SourceKind::kCounter, 1, 0x9a1c4e5f8fc96225ULL},
    {Family::kSc1, SourceKind::kCounter, 63, 0x972412b6557c2ef5ULL},
    {Family::kSc1, SourceKind::kCounter, 64, 0x89bbabfbaf810545ULL},
    {Family::kSc1, SourceKind::kCounter, 65, 0xcf969e0cc0f70da5ULL},
    {Family::kSc1, SourceKind::kCounter, 4095, 0x172c223dfc91e53fULL},
    {Family::kSc1, SourceKind::kVanDerCorput, 1, 0x1d97f5b16eab1404ULL},
    {Family::kSc1, SourceKind::kVanDerCorput, 63, 0xb87e12539e32487fULL},
    {Family::kSc1, SourceKind::kVanDerCorput, 64, 0x1a89af7c58a6be7bULL},
    {Family::kSc1, SourceKind::kVanDerCorput, 65, 0xaa5c508226f5fc0fULL},
    {Family::kSc1, SourceKind::kVanDerCorput, 4095, 0x69f55204c05be482ULL},
    {Family::kFused1, SourceKind::kLfsr, 1, 0x688f9564fdb201a5ULL},
    {Family::kFused1, SourceKind::kLfsr, 63, 0x85d597a47db80365ULL},
    {Family::kFused1, SourceKind::kLfsr, 64, 0x25f42129ef037515ULL},
    {Family::kFused1, SourceKind::kLfsr, 65, 0x9b7da22f890453c0ULL},
    {Family::kFused1, SourceKind::kLfsr, 4095, 0xda746a54b0c911e2ULL},
    {Family::kFused1, SourceKind::kCounter, 1, 0xa41b6312ff1fb784ULL},
    {Family::kFused1, SourceKind::kCounter, 63, 0x2165eb2ccd0fc78dULL},
    {Family::kFused1, SourceKind::kCounter, 64, 0x47d1633c7b862a5dULL},
    {Family::kFused1, SourceKind::kCounter, 65, 0x46a79e5a92eda0dcULL},
    {Family::kFused1, SourceKind::kCounter, 4095, 0xfff805877e188104ULL},
    {Family::kFused1, SourceKind::kVanDerCorput, 1, 0x88bbd6e6f072b784ULL},
    {Family::kFused1, SourceKind::kVanDerCorput, 63, 0xcd4555758d11d8eeULL},
    {Family::kFused1, SourceKind::kVanDerCorput, 64, 0x4a040b03f5874936ULL},
    {Family::kFused1, SourceKind::kVanDerCorput, 65, 0x83db401e74081b1aULL},
    {Family::kFused1, SourceKind::kVanDerCorput, 4095, 0xbc3ebc072bb77edeULL},
    {Family::kSc2, SourceKind::kLfsr, 1, 0xad5cf18e69d940e5ULL},
    {Family::kSc2, SourceKind::kLfsr, 63, 0x2471ab38ceec2e04ULL},
    {Family::kSc2, SourceKind::kLfsr, 64, 0x352996c1ce166694ULL},
    {Family::kSc2, SourceKind::kLfsr, 65, 0x3a6d34772abd16c5ULL},
    {Family::kSc2, SourceKind::kLfsr, 4095, 0x568099758c1ce4d3ULL},
    {Family::kSc2, SourceKind::kCounter, 1, 0xf585404d32a040e5ULL},
    {Family::kSc2, SourceKind::kCounter, 63, 0xbe716355c4fe5e35ULL},
    {Family::kSc2, SourceKind::kCounter, 64, 0x658b162b5300cba5ULL},
    {Family::kSc2, SourceKind::kCounter, 65, 0x038bf2ceef095d25ULL},
    {Family::kSc2, SourceKind::kCounter, 4095, 0x4470a069667c4fdcULL},
    {Family::kSc2, SourceKind::kVanDerCorput, 1, 0xae8bd6a493cf3ce5ULL},
    {Family::kSc2, SourceKind::kVanDerCorput, 63, 0x1b86fcf90a3a6d32ULL},
    {Family::kSc2, SourceKind::kVanDerCorput, 64, 0x8e5734673e27c962ULL},
    {Family::kSc2, SourceKind::kVanDerCorput, 65, 0x77c72b980772341eULL},
    {Family::kSc2, SourceKind::kVanDerCorput, 4095, 0xd50fd71337404129ULL},
    {Family::kFused2, SourceKind::kLfsr, 1, 0x796cd93aa7816fc4ULL},
    {Family::kFused2, SourceKind::kLfsr, 63, 0x8858d94458c0606fULL},
    {Family::kFused2, SourceKind::kLfsr, 64, 0x0f29c3ffc3c57bd7ULL},
    {Family::kFused2, SourceKind::kLfsr, 65, 0x45692295f5c0d653ULL},
    {Family::kFused2, SourceKind::kLfsr, 4095, 0xb8455fb70cf294beULL},
    {Family::kFused2, SourceKind::kCounter, 1, 0xa16d587c80cfe9e5ULL},
    {Family::kFused2, SourceKind::kCounter, 63, 0x16b758a2a8412e45ULL},
    {Family::kFused2, SourceKind::kCounter, 64, 0x6ad179b17a96be05ULL},
    {Family::kFused2, SourceKind::kCounter, 65, 0xe8b0464274cac825ULL},
    {Family::kFused2, SourceKind::kCounter, 4095, 0x43d61dcc414155a0ULL},
    {Family::kFused2, SourceKind::kVanDerCorput, 1, 0x862e132c17fdade5ULL},
    {Family::kFused2, SourceKind::kVanDerCorput, 63, 0xb876e9ddf2cb3236ULL},
    {Family::kFused2, SourceKind::kVanDerCorput, 64, 0xe637bf64157cec26ULL},
    {Family::kFused2, SourceKind::kVanDerCorput, 65, 0xa36816148f0e76f2ULL},
    {Family::kFused2, SourceKind::kVanDerCorput, 4095, 0xed6a867d011b148dULL},
    {Family::kResc1, SourceKind::kLfsr, 1, 0x64285725c9d74984ULL},
    {Family::kResc1, SourceKind::kLfsr, 63, 0x8a2906864eb0d2b6ULL},
    {Family::kResc1, SourceKind::kLfsr, 64, 0xb5a4fe4db921b626ULL},
    {Family::kResc1, SourceKind::kLfsr, 65, 0x7523ab3d8e06145bULL},
    {Family::kResc1, SourceKind::kLfsr, 4095, 0xfe79ac1109f5fda9ULL},
    {Family::kResc1, SourceKind::kCounter, 1, 0x83231e2ed4c693a5ULL},
    {Family::kResc1, SourceKind::kCounter, 63, 0x179c148ab353e8a5ULL},
    {Family::kResc1, SourceKind::kCounter, 64, 0x865bba33f668f615ULL},
    {Family::kResc1, SourceKind::kCounter, 65, 0x81b09738e749df75ULL},
    {Family::kResc1, SourceKind::kCounter, 4095, 0xcd5a0ffef3cd9507ULL},
    {Family::kResc1, SourceKind::kVanDerCorput, 1, 0x0bce9bda6c064d84ULL},
    {Family::kResc1, SourceKind::kVanDerCorput, 63, 0xab794ec15acf4f77ULL},
    {Family::kResc1, SourceKind::kVanDerCorput, 64, 0xff30d1d4af4a6647ULL},
    {Family::kResc1, SourceKind::kVanDerCorput, 65, 0x31d6baf9287f07e2ULL},
    {Family::kResc1, SourceKind::kVanDerCorput, 4095, 0x816b8dafb3d8bafeULL},
    {Family::kResc2, SourceKind::kLfsr, 1, 0x3db56a67bf1697a5ULL},
    {Family::kResc2, SourceKind::kLfsr, 63, 0xc29081d2e8c6847aULL},
    {Family::kResc2, SourceKind::kLfsr, 64, 0x607717c7244ed932ULL},
    {Family::kResc2, SourceKind::kLfsr, 65, 0x42c537d21bcd4d42ULL},
    {Family::kResc2, SourceKind::kLfsr, 4095, 0x5e4ed6375a5c9ff6ULL},
    {Family::kResc2, SourceKind::kCounter, 1, 0x2ac962e376f597a5ULL},
    {Family::kResc2, SourceKind::kCounter, 63, 0x2ab6325028939995ULL},
    {Family::kResc2, SourceKind::kCounter, 64, 0x22873260bd367415ULL},
    {Family::kResc2, SourceKind::kCounter, 65, 0x6bf8f0eb51e7ea55ULL},
    {Family::kResc2, SourceKind::kCounter, 4095, 0x67fb849d4146cc47ULL},
    {Family::kResc2, SourceKind::kVanDerCorput, 1, 0x64285725c9d74984ULL},
    {Family::kResc2, SourceKind::kVanDerCorput, 63, 0xcbacfa1ec668cd15ULL},
    {Family::kResc2, SourceKind::kVanDerCorput, 64, 0xb091101eb7d05ea5ULL},
    {Family::kResc2, SourceKind::kVanDerCorput, 65, 0x8dbd68d484a050d4ULL},
    {Family::kResc2, SourceKind::kVanDerCorput, 4095, 0xb3c171a5f5eaf6b1ULL},
};
// clang-format on

TEST(StimulusGolden, EveryGeneratorFamilyMatchesItsPinnedDigest) {
  ASSERT_EQ(kGolden.size(), 6u * 3u * 5u);
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    for (const GoldenRow& row : kGolden) {
      const std::uint64_t got = family_digest(row.family, row.kind, row.length);
      char line[160];
      std::snprintf(line, sizeof line,
                    "    {Family::%s, SourceKind::%s, %zu, 0x%016llxULL},",
                    family_name(row.family), source_name(row.kind),
                    row.length, static_cast<unsigned long long>(got));
      EXPECT_EQ(got, row.digest)
          << line << " [" << oscs::simd_backend_name(backend) << "]";
    }
  }
}

}  // namespace
}  // namespace oscs::stochastic
