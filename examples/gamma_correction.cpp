/// Gamma correction - the image-processing workload the paper sizes its
/// 6th-order circuit for (Sec. V-C, following Qian et al. [9]).
///
/// Builds a synthetic test image, gamma-corrects it three ways - exact
/// math, electronic ReSC, and the optical circuit - and reports PSNR of
/// the stochastic results against the exact transform. Writes PGM images
/// into results/ so the outputs can be inspected.
///
///   ./gamma_correction --gamma 0.45 --bits 2048 --size 128

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "optsc/mrr_first.hpp"
#include "optsc/simulator.hpp"
#include "stochastic/bernstein.hpp"
#include "stochastic/functions.hpp"
#include "stochastic/metrics.hpp"

namespace sc = oscs::stochastic;
namespace opt = oscs::optsc;

int main(int argc, char** argv) {
  oscs::ArgParser args("gamma_correction",
                       "stochastic gamma correction on the optical circuit");
  args.add_double("gamma", 0.45, "gamma exponent");
  args.add_int("bits", 2048, "stream length per evaluated gray level");
  args.add_int("size", 128, "test image width/height");
  if (!args.parse(argc, argv)) return 0;
  const double gamma = args.get_double("gamma");
  const auto bits = static_cast<std::size_t>(args.get_int("bits"));
  const auto size = static_cast<std::size_t>(args.get_int("size"));

  // 6th-order Bernstein fit of x^gamma (the paper's sizing).
  const auto f = [gamma](double v) { return std::pow(v, gamma); };
  const sc::BernsteinPoly poly = sc::BernsteinPoly::fit(f, 6);
  std::printf("fit: x^%.2f at degree 6, coefficients in [0,1]: %s\n", gamma,
              poly.is_sc_compatible(1e-12) ? "yes" : "no");

  // Order-6 optical circuit with 3 dB probe margin.
  opt::MrrFirstSpec spec;
  spec.order = 6;
  spec.wl_spacing_nm = 0.4;
  opt::MrrFirstResult design = opt::mrr_first(spec);
  design.params.lasers.probe_power_mw = design.min_probe_mw * 2.0;
  const opt::OpticalScCircuit circuit(design.params);
  const opt::TransientSimulator simulator(circuit);
  std::printf("circuit: 6 MZIs + 7 ring modulators, pump %.0f mW, probe "
              "%.3f mW/channel\n",
              design.pump_power_mw, design.params.lasers.probe_power_mw);

  // Evaluate one 64-entry LUT per backend (8-bit images only need the
  // levels that occur; a LUT is how the circuit would serve a pixel
  // pipeline anyway).
  const std::size_t levels = 64;
  std::vector<double> lut_optical(levels), lut_electronic(levels);
  for (std::size_t i = 0; i < levels; ++i) {
    const double v =
        static_cast<double>(i) / static_cast<double>(levels - 1);
    opt::SimulationConfig cfg;
    cfg.stream_length = bits;
    cfg.stimulus.seed = 1000 + i;
    const opt::SimulationResult res = simulator.run(poly, v, cfg);
    lut_optical[i] = res.optical_estimate;
    lut_electronic[i] = res.electronic_estimate;
  }
  auto lut_fn = [&](const std::vector<double>& lut) {
    return [&lut, levels](double v) {
      return lut[static_cast<std::size_t>(
          std::lround(v * static_cast<double>(levels - 1)))];
    };
  };

  // Apply to the standard test patterns.
  const sc::Image input = sc::Image::gradient(size, size / 4);
  const sc::Image radial = sc::Image::radial(size, size);
  const sc::Image exact = input.mapped(f);
  const sc::Image optical = input.mapped(lut_fn(lut_optical));
  const sc::Image electronic = input.mapped(lut_fn(lut_electronic));
  const sc::Image radial_optical = radial.mapped(lut_fn(lut_optical));

  input.write_pgm("results/gamma_input.pgm");
  exact.write_pgm("results/gamma_exact.pgm");
  optical.write_pgm("results/gamma_optical.pgm");
  electronic.write_pgm("results/gamma_electronic.pgm");
  radial_optical.write_pgm("results/gamma_radial_optical.pgm");

  std::printf("\nquality vs exact transform (gradient image, %zu-bit "
              "streams):\n",
              bits);
  std::printf("  optical circuit   : PSNR %.1f dB\n",
              sc::psnr_db(optical, exact));
  std::printf("  electronic ReSC   : PSNR %.1f dB\n",
              sc::psnr_db(electronic, exact));
  std::printf("\nthroughput at the paper's clocks: optical 1 GHz / %zu "
              "bits = %.0f kpixel/s; electronic 100 MHz -> 10x slower\n",
              bits, 1e9 / static_cast<double>(bits) / 1e3);
  std::printf("images written to results/gamma_*.pgm\n");
  return 0;
}
