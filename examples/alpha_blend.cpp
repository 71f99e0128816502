/// Bivariate (tensor-product ReSC) walkthrough: compile alpha blending
/// f(pixel, alpha) = alpha*pixel + (1-alpha)*0.25 through the 2D
/// fit -> quantize -> codegen pipeline, evaluate a small image-blend grid
/// on the batch engine, then round-trip the same surface through the TCP
/// serving layer with a "ys"-carrying JSON request.
///
///   ./example_alpha_blend --function alpha_blend --length 4096

#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "compile/compiler.hpp"
#include "compile/registry.hpp"
#include "engine/batch.hpp"
#include "serve/server.hpp"
#include "serve/tcp.hpp"

using namespace oscs;
namespace cc = oscs::compile;

int main(int argc, char** argv) {
  ArgParser args("example_alpha_blend",
                 "Compile and serve a bivariate registry function");
  args.add_string("function", "alpha_blend", "bivariate registry id");
  args.add_int("length", 4096, "stream length [bits]");
  args.add_int("repeats", 4, "MC repeats per grid cell");
  if (!args.parse(argc, argv)) return 0;
  const std::string id = args.get_string("function");
  const auto length = static_cast<std::size_t>(args.get_int("length"));
  const auto repeats = static_cast<std::size_t>(args.get_int("repeats"));

  const cc::RegistryFunction2* fn = cc::find_function2(id);
  if (fn == nullptr) {
    std::printf("unknown bivariate function '%s'; try one of:", id.c_str());
    for (const std::string& known : cc::registry2_ids()) {
      std::printf(" %s", known.c_str());
    }
    std::printf("\n");
    return 1;
  }

  // 1. Compile: tensor-product projection, comparator-grid quantization,
  //    two-input kernel codegen, (x, y)-grid certification.
  cc::Compiler compiler;
  const auto program = compiler.compile2(fn->id);
  std::printf("compiled %s = %s at degree (%zu, %zu)\n", fn->id.c_str(),
              fn->expression.c_str(), program->circuit_order(),
              program->circuit_order_y());
  if (program->certification().has_value()) {
    const cc::Certification& cert = *program->certification();
    std::printf("certified: MC MAE %.5f +/- %.5f over a %zux%zu grid at "
                "%zu bits\n\n",
                cert.mc_mae, cert.mc_mae_ci, cert.grid_points,
                cert.grid_points, cert.stream_length);
  }

  // 2. Batch-evaluate a small pixel x alpha blend table.
  engine::BatchRequest request;
  request.polynomials2 = {program->poly2()};
  for (double pixel : {0.1, 0.5, 0.9}) {
    for (double alpha : {0.25, 0.75}) {
      request.xs.push_back(pixel);
      request.ys.push_back(alpha);
    }
  }
  request.stream_lengths = {length};
  request.repeats = repeats;
  const engine::BatchRunner runner(program->kernel(),
                                   program->design_point());
  const engine::BatchSummary summary = runner.run_nd(request);
  std::printf("  %-8s %-8s %-10s %-10s %-8s\n", "pixel", "alpha", "expected",
              "optical", "|err|");
  for (const engine::BatchCell& cell : summary.cells) {
    std::printf("  %-8.2f %-8.2f %-10.4f %-10.4f %-8.4f\n", cell.x, cell.y,
                cell.expected, cell.optical_mean,
                cell.optical_abs_error_mean);
  }
  std::printf("  batch MAE %.5f over %zu cells\n\n", summary.optical_mae,
              summary.cells.size());

  // 3. The same surface over the wire: a "ys"-carrying JSON request.
  serve::ServerOptions options;
  options.compile.certify = false;  // keep the example snappy
  serve::ProgramServer server(options);
  serve::TcpServer tcp(server, /*port=*/0);
  serve::TcpClient client(tcp.port());
  const std::string json_request =
      R"({"id": "blend", "function": ")" + id +
      R"(", "xs": [0.1, 0.5, 0.9], "ys": [0.75, 0.75, 0.75],)"
      R"( "stream_lengths": [)" + std::to_string(length) +
      R"(], "repeats": )" + std::to_string(repeats) + "}";
  std::printf("-> %s\n", json_request.c_str());
  const std::string response = client.request(json_request);
  std::printf("<- %s\n", response.c_str());
  tcp.stop();
  return response.find("\"ok\":true") != std::string::npos ? 0 : 1;
}
