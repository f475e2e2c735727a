#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 14);
}

int Tracer::open(const char* name, int iteration) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  span.parent = open_.empty() ? -1 : open_.back();
  span.iteration = iteration;
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  if (open_.empty() || open_.back() != index)
    throw std::logic_error("Tracer::close: spans must close innermost first");
  open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
          .count();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.end_ns >= 0 && name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  return out;
}

std::vector<double> Tracer::per_iteration_totals(const std::string& name) const {
  std::map<std::int32_t, double> totals;
  for (const Span& s : spans_)
    if (s.end_ns >= 0 && name == s.name)
      totals[s.iteration] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  std::vector<double> out;
  for (const auto& [iteration, total] : totals) out.push_back(total);
  return out;
}

std::vector<std::pair<std::string, double>> Tracer::self_seconds() const {
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const std::int64_t duration = s.end_ns - s.start_ns;
    self[i] += duration;
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= duration;
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].end_ns >= 0)
      by_name[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  return {by_name.begin(), by_name.end()};
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& s : spans_)
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"iteration\":" << s.iteration << "}\n";
  if (!out) throw std::runtime_error("short write of spans to " + path);
}

double Tracer::calibrate_span_cost_seconds() {
  constexpr int kPairs = 20000;
  Tracer scratch(true);
  const Clock::time_point begin = Clock::now();
  for (int i = 0; i < kPairs; ++i) scratch.close(scratch.open("calibration", i));
  return seconds_between(begin, Clock::now()) / kPairs;
}

}  // namespace perfbench
