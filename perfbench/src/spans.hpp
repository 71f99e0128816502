#pragma once
/// \file spans.hpp
/// \brief In-memory span recorder for the traced run. The benchmark opens
///        one span around each probe call into a layer (name, start, end,
///        parent span, request id), keeps every span in memory while it
///        runs, and writes them out once at the end. A span's self time is
///        its duration minus the union of the intervals its children cover
///        inside it, so overlapping children (parallel workers) are not
///        subtracted twice.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded span; times are nanoseconds since the recorder started.
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;               ///< index of the parent span; -1 for roots
  std::int64_t request = -1;     ///< request (line) index; -1 when none
};

/// Self time of every span [ns], parallel to `spans`: duration minus the
/// part of [start, end) covered by the union of its direct children,
/// each child clipped to the parent's interval.
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<SpanRecord>& spans);

/// Thread-safe append-only span store.
class SpanRecorder {
 public:
  /// Open a span now; returns its index for end() and for children.
  [[nodiscard]] int begin(std::string name, int parent = -1,
                          std::int64_t request = -1);
  /// Close span `index` now.
  void end(int index);

  /// Copy of every span recorded so far.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Write every span (with its self time) as one JSON document.
  /// \throws std::runtime_error when the file cannot be written.
  void write_json(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< guarded by mutex_
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, int parent = -1,
             std::int64_t request = -1)
      : recorder_(recorder),
        index_(recorder.begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { recorder_.end(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const noexcept { return index_; }

 private:
  SpanRecorder& recorder_;
  int index_;
};

}  // namespace perfbench
