// Measurement helpers shared by the benchmark driver and its tests:
// percentiles that carry their sample counts, the ground-truth gesture
// matcher, byte-exact event encoding for replay comparisons, and the
// capacity ladder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/model_bundle.hpp"
#include "synth/motion_kind.hpp"

namespace perfbench {

/// One percentile of a sample: the value, how many samples it was taken
/// from, and how many samples lie strictly above its rank (the "samples
/// beyond" a tail percentile needs to be more than one outlier).
struct Quantile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile (p in (0, 100]): the smallest sample with at
/// least p% of the samples at or below it. Reorders `samples`. An empty
/// sample gives {0, 0, 0}.
Quantile percentile(std::vector<double>& samples, double p);

/// Median of a small vector (reorders it); 0 when empty.
double median(std::vector<double> values);

/// The fastest time of each item (a stream of a pass, an emitting frame of
/// a replay) over repeated measurements of the same items. Load from the
/// rest of a shared machine only ever adds time to a measurement, so an
/// item's fastest repeat is the one closest to its own cost: sums and
/// percentiles over these minima move with the code rather than with the
/// machine's other tenants. Item indices may grow as items are first seen;
/// with enough capacity reserved, add() does not allocate.
class FastestOf {
 public:
  void reserve(std::size_t items) { best_.reserve(items); }
  void add(std::size_t item, double t);
  std::size_t items() const { return best_.size(); }
  /// Measurements taken, over all items and repeats.
  std::size_t samples() const { return samples_; }
  double sum() const;
  /// Percentile over the items' minima; n counts the items.
  Quantile percentile(double p) const;

 private:
  std::vector<double> best_;
  std::size_t samples_ = 0;
};

/// One ground-truth gesture in sample indices [begin, end).
struct Truth {
  std::size_t begin = 0;
  std::size_t end = 0;
  airfinger::synth::MotionKind kind{};
};

/// Outcome of matching emitted events to ground truth.
///
/// A *detection* is one emitted segment that claims a gesture: a
/// kDetectGesture event, or the kScrollDirection / kScrollDetected events
/// of one segment (an early direction verdict and the final event that
/// closes the same segment count once). kNonGesture events claim nothing.
/// A truth matches at most one detection and vice versa: the detection
/// must overlap the truth's interval and agree with it — a detect gesture
/// by class, a scroll by direction from either kind of scroll event.
struct MatchResult {
  std::size_t truths = 0;
  std::size_t detections = 0;
  std::size_t matched = 0;
  /// Per matched truth: emission time of the event that closed the
  /// matched segment minus the truth's end, in ms of sensor time. An early
  /// direction verdict counts for the match but not for the delay: it
  /// lands before the gesture ends, and mixing both kinds of emission
  /// would put the median near zero.
  std::vector<double> delays_ms;

  double recall() const {
    return truths ? static_cast<double>(matched) / truths : 0.0;
  }
  double precision() const {
    return detections ? static_cast<double>(matched) / detections : 0.0;
  }
  MatchResult& operator+=(const MatchResult& o);
};

MatchResult match_events(
    const std::vector<Truth>& truths,
    const std::vector<airfinger::core::GestureEvent>& events,
    double sample_rate_hz);

/// True for the events that close a segment with a gesture
/// (kDetectGesture, kScrollDetected): the emissions the decide path makes.
bool closes_gesture(const airfinger::core::GestureEvent& e);

/// True when the two event streams are equal field by field, doubles
/// compared by bit pattern. Allocation-free.
bool same_events(const std::vector<airfinger::core::GestureEvent>& a,
                 const std::vector<airfinger::core::GestureEvent>& b);

/// Geometric ladder of stream counts from `lo` up to at least `hi`, each
/// rung `step` (> 1) times the previous one, rounded, strictly increasing.
std::vector<std::size_t> make_ladder(std::size_t lo, std::size_t hi,
                                     double step);

/// Highest rung <= x (the lowest rung when x is below all of them).
std::size_t highest_rung_at_most(const std::vector<std::size_t>& ladder,
                                 double x);

/// Highest rung whose measured latency stays within `limit`, found by
/// bisection over the ladder (latency is assumed to rise with the stream
/// count); 0 when no rung passes.
std::size_t search_capacity(
    const std::vector<std::size_t>& ladder, double limit,
    const std::function<double(std::size_t)>& latency_at);

}  // namespace perfbench
