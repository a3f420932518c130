#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

namespace perfbench {

using airfinger::core::GestureEvent;
using airfinger::synth::MotionKind;

Quantile percentile(std::vector<double>& samples, double p) {
  Quantile q;
  q.n = samples.size();
  if (samples.empty()) return q;
  const double exact = p / 100.0 * static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  q.value = *nth;
  q.beyond = samples.size() - rank;
  return q;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void FastestOf::add(std::size_t item, double t) {
  if (item >= best_.size())
    best_.resize(item + 1, std::numeric_limits<double>::infinity());
  best_[item] = std::min(best_[item], t);
  ++samples_;
}

double FastestOf::sum() const {
  double total = 0.0;
  for (double t : best_)
    if (std::isfinite(t)) total += t;
  return total;
}

Quantile FastestOf::percentile(double p) const {
  std::vector<double> seen;
  seen.reserve(best_.size());
  for (double t : best_)
    if (std::isfinite(t)) seen.push_back(t);
  return perfbench::percentile(seen, p);
}

MatchResult& MatchResult::operator+=(const MatchResult& o) {
  truths += o.truths;
  detections += o.detections;
  matched += o.matched;
  delays_ms.insert(delays_ms.end(), o.delays_ms.begin(), o.delays_ms.end());
  return *this;
}

bool closes_gesture(const GestureEvent& e) {
  return e.type == GestureEvent::Type::kDetectGesture ||
         e.type == GestureEvent::Type::kScrollDetected;
}

namespace {

/// One emitted segment, the gesture claims its events made, and when the
/// segment was closed (the emission of its last event).
struct Detection {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::optional<MotionKind> detect_class;
  bool up = false;
  bool down = false;
  double closed_s = 0.0;
  bool claims() const { return detect_class || up || down; }
};

bool overlaps(std::size_t a0, std::size_t a1, std::size_t b0,
              std::size_t b1) {
  return a0 < b1 && b0 < a1;
}

void add_claim(Detection& d, const GestureEvent& e) {
  d.begin = std::min(d.begin, e.segment_begin);
  d.end = std::max(d.end, e.segment_end);
  d.closed_s = e.time_s;
  if (e.type == GestureEvent::Type::kDetectGesture && e.gesture &&
      !d.detect_class)
    d.detect_class = *e.gesture;
  if ((e.type == GestureEvent::Type::kScrollDirection ||
       e.type == GestureEvent::Type::kScrollDetected) &&
      e.scroll) {
    d.up = d.up || e.scroll->direction > 0;
    d.down = d.down || e.scroll->direction < 0;
  }
}

/// Groups events into detections: an early kScrollDirection stays open
/// until the next segment-closing event, which joins it when the two
/// overlap (the same segment) and starts its own detection otherwise.
std::vector<Detection> group_detections(
    const std::vector<GestureEvent>& events) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<Detection> out;
  std::size_t open_direction = kNone;
  for (const GestureEvent& e : events) {
    const bool early = e.type == GestureEvent::Type::kScrollDirection;
    if (!early && open_direction != kNone) {
      Detection& d = out[open_direction];
      open_direction = kNone;
      if (overlaps(d.begin, d.end, e.segment_begin,
                   std::max(e.segment_end, e.segment_begin + 1))) {
        add_claim(d, e);
        continue;
      }
    }
    Detection d;
    d.begin = e.segment_begin;
    d.end = e.segment_end;
    add_claim(d, e);
    out.push_back(d);
    if (early) open_direction = out.size() - 1;
  }
  std::erase_if(out, [](const Detection& d) { return !d.claims(); });
  return out;
}

bool agrees(const Detection& d, const Truth& truth) {
  if (truth.kind == MotionKind::kScrollUp) return d.up;
  if (truth.kind == MotionKind::kScrollDown) return d.down;
  return d.detect_class && *d.detect_class == truth.kind;
}

}  // namespace

MatchResult match_events(const std::vector<Truth>& truths,
                         const std::vector<GestureEvent>& events,
                         double sample_rate_hz) {
  const std::vector<Detection> detections = group_detections(events);
  MatchResult result;
  result.truths = truths.size();
  result.detections = detections.size();
  std::vector<bool> used(detections.size(), false);
  for (const Truth& truth : truths) {
    for (std::size_t i = 0; i < detections.size(); ++i) {
      const Detection& d = detections[i];
      if (used[i] || !overlaps(d.begin, d.end, truth.begin, truth.end) ||
          !agrees(d, truth))
        continue;
      used[i] = true;
      ++result.matched;
      const double end_s = static_cast<double>(truth.end) / sample_rate_hz;
      result.delays_ms.push_back(1000.0 * (d.closed_s - end_s));
      break;
    }
  }
  return result;
}

namespace {

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

bool same_event(const GestureEvent& a, const GestureEvent& b) {
  if (a.type != b.type || bits(a.time_s) != bits(b.time_s) ||
      a.gesture != b.gesture || a.segment_begin != b.segment_begin ||
      a.segment_end != b.segment_end ||
      a.scroll.has_value() != b.scroll.has_value())
    return false;
  if (!a.scroll) return true;
  return bits(a.scroll->direction) == bits(b.scroll->direction) &&
         bits(a.scroll->velocity_mps) == bits(b.scroll->velocity_mps) &&
         bits(a.scroll->duration_s) == bits(b.scroll->duration_s) &&
         a.scroll->used_experience_velocity ==
             b.scroll->used_experience_velocity &&
         a.scroll->delta_t_s.has_value() == b.scroll->delta_t_s.has_value() &&
         bits(a.scroll->delta_t_s.value_or(0.0)) ==
             bits(b.scroll->delta_t_s.value_or(0.0));
}

}  // namespace

bool same_events(const std::vector<GestureEvent>& a,
                 const std::vector<GestureEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_event(a[i], b[i])) return false;
  return true;
}

std::vector<std::size_t> make_ladder(std::size_t lo, std::size_t hi,
                                     double step) {
  std::vector<std::size_t> rungs;
  double x = static_cast<double>(std::max<std::size_t>(lo, 1));
  while (true) {
    const auto rung = static_cast<std::size_t>(std::llround(x));
    if (rungs.empty() || rung > rungs.back()) rungs.push_back(rung);
    if (rungs.back() >= hi) break;
    x *= step;
  }
  return rungs;
}

std::size_t highest_rung_at_most(const std::vector<std::size_t>& ladder,
                                 double x) {
  std::size_t best = ladder.front();
  for (std::size_t rung : ladder)
    if (static_cast<double>(rung) <= x) best = rung;
  return best;
}

std::size_t search_capacity(
    const std::vector<std::size_t>& ladder, double limit,
    const std::function<double(std::size_t)>& latency_at) {
  std::ptrdiff_t lo = -1;  // highest rung known to pass
  auto hi = static_cast<std::ptrdiff_t>(ladder.size());  // lowest to fail
  while (hi - lo > 1) {
    const std::ptrdiff_t mid = lo + (hi - lo) / 2;
    if (latency_at(ladder[static_cast<std::size_t>(mid)]) <= limit)
      lo = mid;
    else
      hi = mid;
  }
  return lo >= 0 ? ladder[static_cast<std::size_t>(lo)] : 0;
}

}  // namespace perfbench
