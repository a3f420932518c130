// In-memory span recorder for the traced run.
//
// The benchmark wraps each call it makes into a library layer in a span:
// name, start, end, the enclosing span, and a trace id shared by every
// span of one tick or one gesture. Spans nest on one thread (the
// benchmark's generator thread), so self time — a span's duration minus
// the part its children cover — is computed as each span closes. Every
// span feeds the per-name aggregates; only the first `capacity` are kept
// for the Chrome trace-event export (Perfetto / chrome://tracing), so a
// long run stays within a fixed memory budget.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  using NameId = std::uint32_t;

  explicit SpanRecorder(std::size_t capacity);

  /// Registers a span name; call before recording (allocates).
  NameId intern(const std::string& name);

  void begin(NameId name, std::uint64_t trace_id);
  void end();

  struct LayerStats {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  /// Per-name aggregates over every span recorded, in intern order.
  std::vector<LayerStats> stats() const;
  const LayerStats& stats_of(NameId name) const { return stats_[name]; }

  std::size_t kept() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// Chrome trace-event JSON ("X" complete events, microsecond times);
  /// args carry the trace id and the parent span's index (-1 for roots).
  void write_chrome(std::ostream& os) const;

 private:
  struct Span {
    NameId name;
    std::int32_t parent;
    std::uint64_t trace_id;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  struct Open {
    NameId name;
    std::int32_t stored;  ///< Index in spans_, -1 when not kept.
    std::uint64_t trace_id;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
  }

  std::chrono::steady_clock::time_point origin_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::vector<LayerStats> stats_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null recorder makes it a no-op.
class Scope {
 public:
  Scope(SpanRecorder* rec, SpanRecorder::NameId name, std::uint64_t trace_id)
      : rec_(rec) {
    if (rec_) rec_->begin(name, trace_id);
  }
  ~Scope() {
    if (rec_) rec_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
};

}  // namespace perfbench
