/// \file test_projection_golden.cpp
/// \brief Pinned-output oracle for the projection stage. Every value below
///        is an exact double (C hex-float), captured once and compared bit
///        for bit, so any change to the fit that reorders a sum, fuses a
///        multiply-add or moves a stopping decision fails here:
///
///   * project_nd (the separable ALS fit) for the registry's rgb_luma,
///     trilinear_mix and smoothstep3, plus a synthetic arity-2 and an
///     arity-4 target: weights, factor coefficients, rank, the per-term
///     error trajectory and both error figures;
///   * project / project2 (the dense Bernstein fits) for sqrt, gamma,
///     euclid2 and bilinear_gamma: coefficients, chosen degrees, both
///     error figures and the feasibility gap.
///
/// The projection runs no SIMD kernel, so one pass covers both backends;
/// the scalar-only and AVX2 builds each run it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "compile/fit.hpp"
#include "compile/registry.hpp"

namespace oscs::compile {
namespace {

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string hex_list(const std::vector<double>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.append(" ");
    out.append(hex(values[i]));
  }
  return out;
}

/// Header line (rank, target flag, error figures, trajectory), then one
/// line per term: its weight and every factor's coefficients.
std::string render(const ProjectionResultN& r) {
  std::string out = std::to_string(r.arity) + " " + std::to_string(r.terms) +
                    (r.target_met ? " met " : " unmet ") + hex(r.max_error) +
                    " " + hex(r.l2_error) + " | " + hex_list(r.term_errors);
  for (const stochastic::SeparableTerm& term : r.program.terms()) {
    out.append("\n").append(hex(term.weight));
    for (const stochastic::SeparableFactor& factor : term.factors) {
      out.append(" |").append(std::to_string(factor.axis)).append(" ");
      out.append(hex_list(factor.poly.coeffs()));
    }
  }
  return out;
}

std::string render(const ProjectionResult& r) {
  return std::to_string(r.degree) + (r.clamped ? " clamped" : " free") +
         (r.target_met ? " met " : " unmet ") + hex(r.max_error) + " " +
         hex(r.l2_error) + " " + hex(r.feasibility_gap) + " | " +
         hex_list(r.poly.coeffs());
}

std::string render(const ProjectionResult2& r) {
  return std::to_string(r.degree_x) + "x" + std::to_string(r.degree_y) +
         (r.clamped ? " clamped" : " free") +
         (r.target_met ? " met " : " unmet ") + hex(r.max_error) + " " +
         hex(r.l2_error) + " " + hex(r.feasibility_gap) + " | " +
         hex_list(r.poly.coeffs());
}

/// The projection options the compiler uses for a registry entry.
ProjectionResultN project_registry_nd(const std::string& id) {
  const RegistryFunctionN* fn = find_function_nd(id);
  if (fn == nullptr) return {};
  ProjectionOptionsN options;
  options.degree = fn->degree;
  options.max_terms = fn->max_terms;
  return project_nd(fn->f, fn->arity, options);
}

ProjectionResult project_registry(const std::string& id) {
  const RegistryFunction* fn = find_function(id);
  if (fn == nullptr) return {};
  ProjectionOptions options;
  options.max_degree = fn->degree;
  return project(fn->f, options);
}

ProjectionResult2 project_registry2(const std::string& id) {
  const RegistryFunction2* fn = find_function2(id);
  if (fn == nullptr) return {};
  ProjectionOptions2 options;
  options.max_degree_x = fn->degree_x;
  options.max_degree_y = fn->degree_y;
  return project2(fn->f, options);
}

/// A smooth arity-2 target that is not a short rank-1 sum, fit to a tight
/// target so the full rank budget and long ALS polishes run.
ProjectionResultN project_synthetic2() {
  ProjectionOptionsN options;
  options.degree = 3;
  options.max_terms = 3;
  options.grid_samples = 12;
  options.target_max_error = 1e-4;
  return project_nd(
      [](const std::vector<double>& x) {
        const double s = std::sin(1.3 * x[0] + 0.7 * x[1]);
        return 0.2 + 0.6 * s * s;
      },
      2, options);
}

/// An arity-4 target mixing three overlapping products, on a coarse grid
/// so the 6^4-point fit stays quick.
ProjectionResultN project_synthetic4() {
  ProjectionOptionsN options;
  options.degree = 2;
  options.max_terms = 3;
  options.grid_samples = 6;
  options.target_max_error = 1e-3;
  return project_nd(
      [](const std::vector<double>& x) {
        return (x[0] * x[1] + x[2] * (1.0 - x[3]) + 0.5 * x[0] * x[3]) / 2.5;
      },
      4, options);
}

/// The pinned outputs, one entry per case ("" when absent, so a missing
/// entry fails with the rendered actual value in the message).
const std::vector<std::pair<std::string, std::string>> kGolden = {
    {"nd/rgb_luma",
     "3 3 met 0x1.20c8d5c6f125fp-7 0x1.6c63427801482p-11 "
     "| 0x1.d576314fdb2a2p-4 0x1.166d60b7387bdp-5 0x1.20c8d5c6f125fp-7\n"
     "0x1.0000000251479p+2 |0 0x1.99e278f47cfebp-2 0x1.ba82a89f6bae1p-2 "
     "0x1.d87f13b22db02p-2 0x1.f886a08e80c7dp-2 |1 0x0p+0 "
     "0x1.34c8d77d60999p-2 0x1.3e9a8ceec42efp-1 0x1.dc014d2f3aec5p-1 "
     "|2 0x1.ea9e9e2451625p-2 0x1.f8cf46d881792p-2 0x1.03b82bd3609e8p-1 "
     "0x1.0ae8f2b9358aap-1\n"
     "0x1.9405d2d6e0ffp-2 |0 0x1.81af4360fb796p-3 0x1.8eea37547009ap-2 "
     "0x1.257ff46ce4332p-1 0x1.8a81261c74e7ep-1 |1 0x1.e059f42a96f73p-1 "
     "0x1.6ce89d6caab2fp-1 0x1.9aaba2d9d4595p-2 0x1.31796b82e8378p-3 "
     "|2 0x1.02ea257f3b8e2p-3 0x1.3dbfdecd35617p-2 0x1.9cc1f95e8949fp-1 "
     "0x1p+0\n"
     "0x1.620c4315a22d3p-3 |0 0x0p+0 0x1.251dcb6265aaap-2 "
     "0x1.601daf5b65dap-1 0x1p+0 |1 0x1p+0 0x1.9e2081be85208p-1 "
     "0x1.f180555effafap-2 0x1.0461dc3c58867p-2 |2 0x1p+0 "
     "0x1.b92d5394c0367p-1 0x1.4955e8fe8dd4ep-3 0x0p+0"},
    {"nd/trilinear_mix",
     "3 2 met 0x1.e0f9096p-26 0x1.03e822d4a5f7fp-28 | 0x1.34e0a93951b26p-1 "
     "0x1.e0f9096p-26\n"
     "0x1.00000000bca44p+2 |0 0x1.4ea7d602d70ddp-2 0x1.4ea7d5b8735fdp-2 "
     "0x1.4ea7d56e1250fp-2 0x1.4ea7d523af6f5p-2 |1 0x0p+0 "
     "0x1.2f94de17babc4p-2 0x1.2f94dfef29b95p-1 0x1.c75f4f8b817bep-1 "
     "|2 0x0p+0 0x1.2594070da7f8bp-2 0x1.259409c6229cep-1 "
     "0x1.b85e0e226a94fp-1\n"
     "0x1.01370dfad04dbp+0 |0 0x1.018d403010427p-27 0x1.5446ec22c45bap-2 "
     "0x1.5446ebe25c8bp-1 0x1.fe6a61b35be99p-1 |1 0x1.ff29c805f895cp-1 "
     "0x1.ff29c8fe38f2p-1 0x1.ff29c89b8e42ep-1 0x1.ff29c9297e6efp-1 "
     "|2 0x1p+0 0x1.5555570a1f447p-1 0x1.555555887d3c3p-2 "
     "0x1.94f5e15f8049fp-26"},
    {"nd/smoothstep3",
     "3 1 met 0x1.31fp-39 0x1.c5bddd5465208p-42 | 0x1.31fp-39\n"
     "0x1.0000000002f1dp+0 |0 0x0p+0 0x1.148f6415deb9ap-38 "
     "0x1.fffffffff1b8fp-1 0x1.fffffffffee43p-1 |1 0x0p+0 "
     "0x1.c27985713caecp-39 0x1.fffffffff88fbp-1 0x1p+0 "
     "|2 0x0p+0 0x1.969fb26f220ffp-39 0x1.fffffffffb181p-1 "
     "0x1p+0"},
    {"nd/synthetic2",
     "2 3 unmet 0x1.1091cc31325p-8 0x1.c8e0cdf2bb1b7p-10 "
     "| 0x1.57c4f65f011b8p-3 0x1.f9cd8037c3948p-6 0x1.1091cc31325p-8\n"
     "0x1.2876dac36ffe4p+1 |0 0x1.a7353bb45ac5p-3 0x1.a5697bbeac86dp-2 "
     "0x1.0a7f830a9c55ap-1 0x1.610cffd59606ep-2 |1 0x1.6e1f590d75b7bp-3 "
     "0x1.4c502c1d0facp-2 0x1.2dc1467b0d0c6p-1 0x1.8a2e5b09f87a7p-1\n"
     "0x1.29657e33f4b86p-1 |0 0x1.23bbf795490b8p-4 0x1.f5e2ca5f81cbep-7 "
     "0x1.79372506d8e39p-1 0x1.f8a1ac46c2286p-1 |1 0x1.e43061b024055p-1 "
     "0x1p+0 0x1.28a1359fa1e5cp-1 0x1.bcd789a988b1dp-8\n"
     "0x1.3b9498edb94dcp-4 |0 0x1p+0 0x1.36686cbee0f0bp-5 "
     "0x0p+0 0x1.e6e38d3155b3bp-1 |1 0x1p+0 0x0p+0 0x0p+0 "
     "0x1.fff2fdc6bd22ep-1"},
    {"nd/synthetic4",
     "4 3 met 0x1.e0d6d1659816cp-25 0x1.f037c115ab6dp-28 "
     "| 0x1.33e417d0301fap-2 0x1.851e36304e3a5p-4 0x1.e0d6d1659816cp-25\n"
     "0x1.0000000206b41p+2 |0 0x1.15072cf8190c1p-2 0x1.15072c0661653p-2 "
     "0x1.15072b22a4f1ep-2 |1 0x1.0b8e7e34faee1p-1 0x1.0b8e812e14059p-1 "
     "0x1.0b8e7e54d8cb9p-1 |2 0x0p+0 0x1.b227883d9803dp-2 "
     "0x1.b2278ac87e518p-1 |3 0x1.ab18bd843f954p-1 0x1.ab18bbba41b66p-2 "
     "0x0p+0\n"
     "0x1.543667db462bap-1 |0 0x1.bedacb4771376p-29 0x1.b774820a84ebfp-2 "
     "0x1.b774824fbf31ep-1 |1 0x1.2c61ea4142ac6p-23 0x1.ffc20991ebb68p-2 "
     "0x1.ffc2169c7d0e3p-1 |2 0x1.ff5a0746a98fbp-1 0x1.ff5a091dd46f9p-1 "
     "0x1.ff5a08e03c44bp-1 |3 0x1.67b7776d11439p-1 0x1.b3d2a77b06a5ep-1 "
     "0x1.ffedd760b8cb5p-1\n"
     "0x1.99998bcfbf4ddp-3 |0 0x1.cce68e0f094dp-28 0x1.0000020b09ce9p-1 "
     "0x1p+0 |1 0x1p+0 0x1.27599c7f41b74p-1 0x1.3acbe562031abp-3 "
     "|2 0x1p+0 0x1p+0 0x1p+0 |3 0x0p+0 0x1.000003371b60cp-1 "
     "0x1p+0"},
    {"1d/sqrt",
     "6 free unmet 0x1.26262fe1b577cp-4 0x1.da4dd4cd03b6ap-9 "
     "0x0p+0 | 0x1.26262fe1b577cp-4 0x1.4acd3bdd0a00dp-1 "
     "0x1.6fafcf6271fecp-2 0x1.ddd170ef237ebp-1 0x1.6a5e1ac246ef2p-1 "
     "0x1.e85c0945e788ap-1 0x1.fd6030f523676p-1"},
    {"1d/gamma",
     "6 free unmet 0x1.875268515ef8cp-4 0x1.23199ff71e88bp-8 "
     "0x0p+0 | 0x1.875268515ef8cp-4 0x1.70ed8624f2992p-1 "
     "0x1.641364abf6697p-2 0x1.ff5223364277p-1 0x1.6750fe6409c1fp-1 "
     "0x1.f0597a33d35a7p-1 0x1.fcdbcd05bda61p-1"},
    {"2d/euclid2",
     "3x3 clamped met 0x1.434bac2ed2618p-7 0x1.19df400d627c9p-9 "
     "0x1.caaf30df87979p-7 | 0x0p+0 0x1.a6f0ca997a16dp-3 "
     "0x1.f7ff381ac8e12p-2 0x1.67762e59892a5p-1 0x1.a6f0ca997a21p-3 "
     "0x1.345d32afeaa6dp-3 0x1.0069c5cf4eb71p-1 0x1.66793d90817bp-1 "
     "0x1.f7ff381ac8e31p-2 0x1.0069c5cf4eae1p-1 0x1.44d317487e923p-1 "
     "0x1.ab80d8c11cc1bp-1 0x1.67762e598928p-1 0x1.66793d9081832p-1 "
     "0x1.ab80d8c11cbd6p-1 0x1.ffd944f8aeb83p-1"},
    {"2d/bilinear_gamma",
     "5x5 free unmet 0x1.a35e2d14edf06p-4 0x1.3af54013ae91ep-11 "
     "0x0p+0 | 0x1.a35e2d14edf06p-4 0x1.ffd3b87441648p-2 "
     "0x1.96f3662f1caecp-2 0x1.511062a6ba478p-1 0x1.488d9dd6c394fp-1 "
     "0x1.78c5cb928b057p-1 0x1.ffd3b87440537p-2 0x1.8469200b9378ep-2 "
     "0x1.7d6b764345ed9p-1 0x1.27f505de89589p-1 0x1.8ce497242e2b2p-1 "
     "0x1.9599d844fcc06p-1 0x1.96f3662f2077ep-2 0x1.7d6b764341c8ep-1 "
     "0x1.08a7b9fb617ebp-1 0x1.b211c50ed2ba8p-1 0x1.858d581c417fp-1 "
     "0x1.b8edc8ed8c89bp-1 0x1.511062a6b7d97p-1 0x1.27f505de90272p-1 "
     "0x1.b211c50ecd84dp-1 0x1.75f3210126becp-1 0x1.c45632c18d188p-1 "
     "0x1.ce274d5d0d663p-1 0x1.488d9dd6c4ebdp-1 0x1.8ce497242a2a8p-1 "
     "0x1.858d581c4534ep-1 0x1.c45632c18c08dp-1 0x1.cb6f0c9393982p-1 "
     "0x1.e9c957c8261e2p-1 0x1.78c5cb928abffp-1 0x1.9599d844fd902p-1 "
     "0x1.b8edc8ed8bd2bp-1 0x1.ce274d5d0d89cp-1 0x1.e9c957c8262dbp-1 "
     "0x1.ffde65e5d3707p-1"},
};

std::string golden(const std::string& key) {
  for (const auto& [k, v] : kGolden) {
    if (k == key) return v;
  }
  return "";
}

TEST(ProjectionGolden, SeparableRegistry) {
  for (const std::string id : {"rgb_luma", "trilinear_mix", "smoothstep3"}) {
    ASSERT_NE(find_function_nd(id), nullptr) << id;
    EXPECT_EQ(golden("nd/" + id), render(project_registry_nd(id))) << id;
  }
}

TEST(ProjectionGolden, SeparableSyntheticArity2) {
  EXPECT_EQ(golden("nd/synthetic2"), render(project_synthetic2()));
}

TEST(ProjectionGolden, SeparableSyntheticArity4) {
  EXPECT_EQ(golden("nd/synthetic4"), render(project_synthetic4()));
}

TEST(ProjectionGolden, UnivariateRegistry) {
  for (const std::string id : {"sqrt", "gamma"}) {
    ASSERT_NE(find_function(id), nullptr) << id;
    EXPECT_EQ(golden("1d/" + id), render(project_registry(id))) << id;
  }
}

TEST(ProjectionGolden, BivariateRegistry) {
  for (const std::string id : {"euclid2", "bilinear_gamma"}) {
    ASSERT_NE(find_function2(id), nullptr) << id;
    EXPECT_EQ(golden("2d/" + id), render(project_registry2(id))) << id;
  }
}

}  // namespace
}  // namespace oscs::compile
