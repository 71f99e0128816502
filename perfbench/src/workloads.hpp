#pragma once
/// \file workloads.hpp
/// \brief The benchmark workloads and the result every run reports.
///
///   bulk_eval  - 1 TCP client, closed loop, server threads = 2; requests
///                rotate over sigmoid / euclid2 / smoothstep3 at 16 points
///                x 8 repeats x 32768 bits and alternate between the design
///                point and a 0.15 mW probe power. The engine and the SNG
///                fill dominate.
///   cold_start - repeated cycles of: construct a server that compiles the
///                full 16-entry registry, save its cache file, construct a
///                second server from that file, then send first-touch and
///                follow-up requests over TCP. The compiler dominates.
///
/// Request counts are fixed per run (derived from --seconds by each
/// workload's nominal rate), never a duration, so the outputs (`mae`,
/// `certified_mae`) repeat exactly at one seed.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "load.hpp"
#include "serve/server.hpp"
#include "spans.hpp"

namespace perfbench {

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< cache files and span dumps
};

/// A workload's fixed parameters.
struct WorkloadSpec {
  std::string name;
  RequestShape shape;
  oscs::serve::ServerOptions server{};
  double nominal_rps = 100.0;     ///< timed requests = seconds * this
  std::size_t warmup_requests = 0;  ///< per set-up, untimed
  std::size_t chunks = 10;        ///< timed traffic slices (median reported)
  std::size_t setups = 3;         ///< set-up repetitions (median reported)
  std::size_t cycles = 0;         ///< cold_start: compile/save/load cycles
};

/// \throws std::invalid_argument on an unknown name.
[[nodiscard]] WorkloadSpec workload_spec(const std::string& name,
                                         double seconds);

/// Requests of one phase: attempted, succeeded, and failed by reason
/// (busy, compile_budget, too_large, other).
struct PhaseCounts {
  std::string phase;
  std::size_t attempted = 0;
  std::size_t succeeded = 0;
  std::map<std::string, std::size_t> failed_by_reason;

  [[nodiscard]] std::size_t failed() const noexcept {
    return attempted - succeeded;
  }
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count, or the metric a layer should move
};

/// Everything one run reports.
struct RunResult {
  std::vector<std::string> problems;  ///< failed output checks
  std::vector<std::string> notes;     ///< observations that gate nothing
  std::vector<PhaseCounts> phases;
  std::vector<Metric> end_to_end;     ///< measured untraced
  std::vector<Metric> per_layer;      ///< traced run only

  [[nodiscard]] bool correct() const noexcept { return problems.empty(); }
  /// Totals over every phase: each request the run sent.
  [[nodiscard]] std::size_t attempted() const;
  [[nodiscard]] std::size_t failed() const;
};

/// Run one workload end to end (and, with options.trace, the traced
/// repetition and the per-layer probes).
[[nodiscard]] RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
