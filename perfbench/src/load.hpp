#pragma once
/// \file load.hpp
/// \brief Deterministic request generation. Every request line of a run is
///        built before timing starts from the workload seed alone: the
///        program rotates evenly over the workload's registry ids, the
///        probe power alternates over the workload's list, the points are
///        drawn on a 1/1000 grid inside (0, 1), and every request carries an
///        explicit "seed" derived from (workload seed, request index). The
///        same seed therefore gives byte-identical lines, and - the engine
///        being bit-identical for any thread count - identical responses.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// The shape every request of a workload shares.
struct RequestShape {
  std::vector<std::string> functions;  ///< registry ids, rotated evenly
  std::size_t points = 3;              ///< evaluation points per request
  std::size_t repeats = 2;             ///< MC repeats per cell
  std::size_t stream_length = 1024;    ///< bits per evaluation
  /// Probe powers, alternated request by request; nullopt runs at the
  /// program's design point.
  std::vector<std::optional<double>> probe_powers{std::nullopt};
};

/// One generated request.
struct Request {
  std::size_t index = 0;
  std::string function;
  std::size_t arity = 1;
  /// Axis-major coordinates: coords[axis][point].
  std::vector<std::vector<double>> coords;
  std::size_t repeats = 0;
  std::size_t stream_length = 0;
  std::uint64_t seed = 0;
  std::optional<double> probe_power_mw;
  std::string line;  ///< the wire form (no trailing newline)

  /// Stream bits the server evaluates for this request.
  [[nodiscard]] std::size_t bits() const noexcept {
    return (coords.empty() ? 0 : coords.front().size()) * repeats *
           stream_length;
  }
};

/// Input arity of a registry id (1, 2 or the N-ary catalogue's arity).
/// \throws std::invalid_argument on an id in no catalogue.
[[nodiscard]] std::size_t registry_arity(const std::string& function_id);

/// Every registry id across the three catalogues, in catalogue order.
[[nodiscard]] std::vector<std::string> all_registry_ids();

/// SplitMix64 finalizer: the mixing step behind every derived value.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

/// Requests [first, first + count) of the workload stream for `seed`.
/// Request i depends only on (shape, seed, i).
/// \throws std::invalid_argument on an empty function list, zero points,
///         repeats or length, or an unknown registry id.
[[nodiscard]] std::vector<Request> make_requests(const RequestShape& shape,
                                                 std::uint64_t seed,
                                                 std::size_t first,
                                                 std::size_t count);

}  // namespace perfbench
