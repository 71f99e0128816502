#include "spans.hpp"

#include <algorithm>
#include <utility>

#include "common/json.hpp"

namespace perfbench {

std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& span : spans) {
    if (span.parent < 0) continue;
    const SpanRecord& parent = spans.at(static_cast<std::size_t>(span.parent));
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(span.parent)].push_back({lo, hi});
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    bool open = false;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      open = true;
      run_lo = lo;
      run_hi = hi;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

int SpanRecorder::begin(std::string name, int parent, std::int64_t request) {
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(SpanRecord{std::move(name), start, start, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int index) {
  const std::int64_t stop = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(index)).end_ns = stop;
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::write_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<std::int64_t> self = self_times(all);
  oscs::JsonWriter w(/*pretty=*/false);
  w.begin_object().key("spans").begin_array();
  for (std::size_t i = 0; i < all.size(); ++i) {
    w.begin_object()
        .field("name", std::string_view(all[i].name))
        .field("start_ns", all[i].start_ns)
        .field("end_ns", all[i].end_ns)
        .field("parent", all[i].parent)
        .field("request", all[i].request)
        .field("self_ns", self[i])
        .end_object();
  }
  w.end_array().end_object();
  oscs::write_text_file(w.str() + "\n", path, "SpanRecorder");
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

}  // namespace perfbench
