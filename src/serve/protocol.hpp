#pragma once
/// \file protocol.hpp
/// \brief Wire schema of the compiled-program serving layer: JSON requests
///        in, JSON responses out, one document per line. The request names
///        one or more programs (registry function ids or raw Bernstein
///        coefficients), an evaluation grid, and optionally the link
///        conditions to run under; the response carries per-cell Monte-
///        Carlo estimates plus stage latencies. Everything round-trips
///        through common/json.hpp - the strict parser on the way in, the
///        compact writer on the way out.
///
/// Request:
///   {"op": "evaluate",                 // default; also "metrics",
///                                      // "metrics_prom", "health", "ping"
///    "id": "client-42",                // optional, echoed back
///    "trace": "abcd0123",              // optional client trace id; the
///                                      // server generates one otherwise
///                                      // and echoes it as "trace_id"
///    "programs": [{"function": "sigmoid"},
///                 {"function": "tanh", "degree": 4},
///                 {"coefficients": [0.1, 0.5, 0.9], "id": "ramp"}],
///    "xs": [0.25, 0.5, 0.75],
///    "ys": [0.5, 0.5, 0.75],           // bivariate only: pairs with "xs"
///    "inputs": [[...], [...], [...]],  // N-ary alternative to "xs"/"ys":
///                                      // one array per input axis, all
///                                      // pairing element-wise
///    "stream_lengths": [4096],         // default [4096]
///    "repeats": 8,                     // default 8
///    "seed": 1,                        // default 1
///    "sng_width": 16,                  // optional override
///    "operating_point": {...},         // optional explicit op, or
///    "probe_power_mw": 0.8}            // optional link-budget derivation
/// Single-program sugar: a top-level "function" or "coefficients" member
/// instead of "programs".
///
/// Input points: every spelling lowers onto one form, a list of per-axis
/// coordinate arrays pairing element-wise (point k is entry k of every
/// axis). "xs" is axis 0 and "ys" axis 1 (the single-point sugar "y"
/// broadcasts over every x); "inputs" carries every axis and excludes the
/// other three, so one- and two-axis "inputs" requests answer exactly
/// like their "xs"/"ys" spellings. The axis count is the request's arity,
/// and every program must take that many inputs (arities cannot mix):
/// univariate or bivariate registry ids and flat or nested ("coefficients":
/// [[...], [...]]) coefficient programs for one or two axes, N-ary
/// separable catalogue ids ("rgb_luma", "trilinear_mix", ...) above that.
/// Cells of one or two axes echo "x" (and "y"); wider cells echo
/// "inputs": [x0, x1, ...].
///
/// Response (success):
///   {"id": ..., "ok": true, "trace_id": ..., "fused": bool,
///    "programs": [ids...],
///    "op": {...}, "cells": [{"program", "x", "stream_length", "repeats",
///    "expected", "optical_mean", "optical_ci", "abs_error_mean",
///    "abs_error_ci", "flip_rate"}...], "optical_mae": ...,
///    "worst_cell_error": ..., "total_bits": ...,
///    "latency_us": {"parse", "resolve", "execute", "total"}}
/// Response (failure):
///   {"id": ..., "ok": false,
///    "error": {"status": 4xx/5xx, "reason": ..., "message": ...}}
///
/// Health ({"op": "health"}): the accuracy-SLO surface (serve/accuracy.hpp)
///   {"id": ..., "ok": true, "status": "ok"|"degraded"|"violating",
///    "shadow": {"fraction", "sampled", "unsampled"},
///    "drift_total": ...,
///    "observed": {"count", "mean", "p50", "p95", "p99", "max"},
///    "programs": [{"program", "arity", "state", "certified",
///    "certified_mae", "certified_ci", "budget", "ewma", "samples",
///    "drift_total"}...]}   // sorted by program id; "status" is the worst
///                          // per-program state (ok when nothing shadowed)

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/operating_point.hpp"

namespace oscs::serve {

/// Request-level failure carrying an HTTP-style status code and a short
/// machine-readable reason ("bad_request", "unknown_function", "busy",
/// "compile_budget", "internal").
class ServeError : public std::runtime_error {
 public:
  ServeError(int status, std::string reason, const std::string& message)
      : std::runtime_error(message), status_(status),
        reason_(std::move(reason)) {}

  [[nodiscard]] int status() const noexcept { return status_; }
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

 private:
  int status_;
  std::string reason_;
};

/// One program in a request: either a registry function id (any
/// catalogue) or raw Bernstein coefficients that
/// bypass the compiler - a flat vector (univariate) or a nested
/// row-major grid (bivariate tensor-product surface).
struct ProgramSpec {
  std::string function_id;           ///< registry id; empty for raw specs
  std::vector<double> coefficients;  ///< raw univariate spec
  /// Raw bivariate spec: coefficient grid rows (c[i][j] multiplies
  /// B_i(x) B_j(y)); empty for univariate/function specs.
  std::vector<std::vector<double>> coefficients2;
  std::string raw_id;                ///< optional display id for raw specs
  std::optional<std::size_t> degree;  ///< degree-cap override (function;
                                      ///< per-axis cap for bivariate ids,
                                      ///< factor degree for N-ary ids)

  [[nodiscard]] bool is_raw() const noexcept { return function_id.empty(); }
  [[nodiscard]] bool is_raw_bivariate() const noexcept {
    return !coefficients2.empty();
  }
  /// The id echoed into response cells.
  [[nodiscard]] std::string display_id() const;
};

enum class RequestOp : std::uint8_t {
  kEvaluate,
  kMetrics,      ///< JSON metrics document
  kMetricsProm,  ///< Prometheus text exposition (JSON envelope with "body")
  kHealth,       ///< accuracy SLO state per program (ok/degraded/violating)
  kPing,
};

/// A parsed, shape-validated request (semantic checks - registry lookup,
/// admission - happen in the server).
struct ServeRequest {
  RequestOp op = RequestOp::kEvaluate;
  std::string id;  ///< echoed into the response; may be empty
  /// Client-supplied trace id; empty lets the server generate one. The
  /// response carries the effective id as "trace_id" either way.
  std::string trace;
  std::vector<ProgramSpec> programs;
  /// Input axes: inputs[k] carries axis k's coordinate for every
  /// evaluation point, all axes pairing element-wise; the axis count is
  /// the request's arity. Every wire spelling lands here: "xs" is axis 0,
  /// "ys" (or the broadcast "y") axis 1, "inputs" every axis.
  std::vector<std::vector<double>> inputs;
  std::vector<std::size_t> stream_lengths{4096};
  std::size_t repeats = 8;
  std::uint64_t seed = 1;
  std::optional<unsigned> sng_width;
  /// Explicit operating point (takes precedence over probe_power_mw).
  std::optional<oscs::OperatingPoint> operating_point;
  /// Probe power to map through the execution circuit's link budget.
  std::optional<double> probe_power_mw;
};

/// Parse and shape-validate one request document. Each point member is
/// checked under its own name ("xs", "ys", "y", "inputs[k]"), then lowered
/// onto ServeRequest::inputs.
/// \throws ServeError(400, "bad_request") on malformed JSON, unknown
///         members, wrong types, out-of-range values or any
///         validate_evaluate rule.
[[nodiscard]] ServeRequest parse_request(const std::string& text);

/// The rules every evaluate request obeys (parse_request applies them to
/// wire requests): at least one program; nonempty, element-wise paired
/// input axes; nonempty stream lengths; positive repeats; at most one of
/// operating_point/probe_power_mw; every coordinate finite and in [0, 1].
/// Errors name axis k 'inputs[k]'.
/// \throws ServeError(400, "bad_request") on the first rule broken.
void validate_evaluate(const ServeRequest& request);

/// One evaluation-grid cell of a response.
struct CellResult {
  std::string program;  ///< display id of the program this cell belongs to
  /// The cell's input point, one coordinate per axis; serialized as "x"
  /// (and "y") for one or two axes, as the "inputs" array above that.
  std::vector<double> point;
  std::size_t stream_length = 0;
  std::size_t repeats = 0;
  double expected = 0.0;      ///< double-precision reference value
  double optical_mean = 0.0;  ///< MC mean of the optical estimate
  double optical_ci = 0.0;    ///< 95% CI half-width of that mean
  double abs_error_mean = 0.0;
  double abs_error_ci = 0.0;
  double flip_rate = 0.0;  ///< transmission flips per bit
};

/// Stage latencies of one request [microseconds].
struct StageLatency {
  double parse_us = 0.0;
  double resolve_us = 0.0;  ///< program resolution incl. compiles
  double execute_us = 0.0;  ///< batch engine run
  double total_us = 0.0;
};

/// A successful evaluation outcome.
struct ServeResponse {
  std::string id;
  std::string trace_id;  ///< request-scoped trace id (see obs/trace.hpp)
  bool fused = false;  ///< multi-program request ran the fused kernel
  std::vector<std::string> programs;  ///< display ids, request order
  oscs::OperatingPoint op{};          ///< operating point the batch ran at
  std::vector<CellResult> cells;      ///< program-major, then x, then length
  double optical_mae = 0.0;
  double worst_cell_error = 0.0;
  std::size_t total_bits = 0;
  StageLatency latency{};
};

/// Serialize a success response as one compact JSON line (trailing '\n').
[[nodiscard]] std::string write_response(const ServeResponse& response);

/// Serialize a failure as one compact JSON line (trailing '\n').
/// `trace_id` is echoed when nonempty.
[[nodiscard]] std::string write_error(const std::string& request_id,
                                      int status, const std::string& reason,
                                      const std::string& message,
                                      const std::string& trace_id = "");

}  // namespace oscs::serve
