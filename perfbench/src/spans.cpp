#include "spans.hpp"

namespace perfbench {

SpanRecorder::SpanRecorder(std::size_t capacity)
    : origin_(std::chrono::steady_clock::now()), capacity_(capacity) {
  spans_.reserve(capacity_);
  stack_.reserve(64);
}

SpanRecorder::NameId SpanRecorder::intern(const std::string& name) {
  for (std::size_t i = 0; i < stats_.size(); ++i)
    if (stats_[i].name == name) return static_cast<NameId>(i);
  stats_.push_back(LayerStats{name, 0, 0, 0});
  return static_cast<NameId>(stats_.size() - 1);
}

void SpanRecorder::begin(NameId name, std::uint64_t trace_id) {
  std::int32_t stored = -1;
  if (spans_.size() < capacity_) {
    stored = static_cast<std::int32_t>(spans_.size());
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().stored;
    spans_.push_back(Span{name, parent, trace_id, 0, 0});
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{name, stored, trace_id, now_ns(), 0});
  if (stored >= 0) spans_[static_cast<std::size_t>(stored)].start_ns =
      stack_.back().start_ns;
}

void SpanRecorder::end() {
  const std::uint64_t t = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = t - open.start_ns;
  LayerStats& s = stats_[open.name];
  ++s.count;
  s.total_ns += duration;
  s.self_ns += duration > open.child_ns ? duration - open.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.stored >= 0)
    spans_[static_cast<std::size_t>(open.stored)].end_ns = t;
}

std::vector<SpanRecorder::LayerStats> SpanRecorder::stats() const {
  return stats_;
}

void SpanRecorder::write_chrome(std::ostream& os) const {
  const auto flags = os.flags();
  const auto precision = os.precision();
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"name\":\"" << stats_[s.name].name
       << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
       << ",\"ts\":" << static_cast<double>(s.start_ns) / 1000.0
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1000.0
       << ",\"args\":{\"trace_id\":" << s.trace_id << ",\"span\":" << i
       << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
  os.flags(flags);
  os.precision(precision);
}

}  // namespace perfbench
