// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer: name, start, end, the span that
// was open when it began (its parent) and the training iteration it belongs
// to. Spans are appended to a vector while the run executes and written out
// only at the end, so recording costs two clock reads and one push_back.
// Every span opens and closes on the calling thread, and children close
// before their parent, so a span's self time is its duration minus the
// summed durations of its direct children.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

struct Span {
  const char* name = "";        ///< static string: the layer's metric stem
  std::int64_t start_ns = 0;    ///< since the tracer was created
  std::int64_t end_ns = -1;     ///< -1 while the span is open
  std::int32_t parent = -1;     ///< index into spans(); -1 for a root span
  std::int32_t iteration = -1;  ///< training iteration; -1 outside the loop
};

class Tracer {
 public:
  /// A disabled tracer records nothing; open() returns -1 and close(-1) is
  /// a no-op, so call sites need no branches.
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open span.
  int open(const char* name, int iteration);
  /// Closes span `index`, which must be the innermost open span.
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in seconds of every closed span called `name`, in order.
  std::vector<double> durations(const std::string& name) const;
  /// Per iteration, the summed durations of spans called `name` (iterations
  /// without such a span are omitted).
  std::vector<double> per_iteration_totals(const std::string& name) const;
  /// Self time per span name, summed over the run, sorted by name.
  std::vector<std::pair<std::string, double>> self_seconds() const;

  /// One JSON object per line: name, start/end (ns), parent, iteration.
  void write_jsonl(const std::string& path) const;

  /// Wall cost of one open()+close() pair, measured on a scratch tracer.
  static double calibrate_span_cost_seconds();

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span: opens on construction, closes at scope end or at close().
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int iteration)
      : tracer_(tracer), index_(tracer.open(name, iteration)) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void close() {
    if (index_ >= 0) tracer_.close(index_);
    index_ = -1;
  }

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
