/// \file main.cpp
/// \brief The serving benchmark binary (`perfbench`).
///
///   perfbench --workload <bulk_eval|cold_start> --seed <n> --seconds <s>
///             --trace <0|1>
///
/// Prints a machine fingerprint, per-phase request accounting and every
/// metric with its unit (latencies with their sample counts, layer
/// metrics with the end-to-end metric they should move), then - as the
/// last line - one JSON object {"correct", "attempted", "failed",
/// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
/// metrics with --trace 1. Exits 0 when every output check passed, 1 when
/// one failed, 2 on bad arguments or an error that stopped the run.
/// run.py checks the metric names and units against BENCHMARK.json.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string fingerprint() {
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  return "cpu=\"" + cpu_model() + "\" nproc=" + std::to_string(online_cpus()) +
         " simd=" + oscs::simd_backend_name(oscs::simd_backend()) +
         " compiler=\"" PERFBENCH_COMPILER "\" build=" PERFBENCH_BUILD_TYPE
         " git=" + (sha != nullptr && *sha != '\0' ? sha : "unknown");
}

/// A double with every digit; JSON has no infinity, so a percentile that
/// landed on a failed request prints as 1e308.
std::string number(double v) {
  if (!std::isfinite(v)) v = 1e308;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0.0 && options.seconds <= 600.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds (0, 600] and --trace are required");
  }

  perfbench::RunResult result;
  try {
    std::printf("# machine: %s\n", fingerprint().c_str());
    std::printf("# run: workload=%s seed=%llu seconds=%s trace=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                number(options.seconds).c_str(), options.trace ? 1 : 0);
    std::fflush(stdout);
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 2;
  }

  for (const perfbench::PhaseCounts& p : result.phases) {
    std::string reasons;
    for (const char* r : {"busy", "compile_budget", "too_large", "other"}) {
      const auto it = p.failed_by_reason.find(r);
      reasons += std::string(reasons.empty() ? "" : ", ") + r + " " +
                 std::to_string(it == p.failed_by_reason.end() ? 0 : it->second);
    }
    std::printf("# phase %-22s attempted %zu, succeeded %zu, failed %zu (%s)\n",
                p.phase.c_str(), p.attempted, p.succeeded, p.failed(),
                reasons.c_str());
  }
  for (const Metric& m : result.end_to_end) {
    std::printf("# end_to_end %-20s %-24s %-8s %s\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str(), m.note.c_str());
  }
  for (const Metric& m : result.per_layer) {
    std::printf("# per_layer %-36s %-24s %-8s moves: %s\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& n : result.notes) std::printf("# note: %s\n", n.c_str());
  for (const std::string& p : result.problems) {
    std::printf("# CHECK FAILED: %s\n", p.c_str());
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }

  const std::vector<Metric>& reported =
      options.trace ? result.per_layer : result.end_to_end;
  std::string json = "{\"correct\": " +
                     std::string(result.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted()) +
                     ", \"failed\": " + std::to_string(result.failed()) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    json += (i == 0 ? "" : ", ") + quoted(reported[i].name) +
            ": {\"value\": " + number(reported[i].value) +
            ", \"unit\": " + quoted(reported[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct() ? 0 : 1;
}
