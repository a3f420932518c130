// Detect-aimed vs track-aimed gesture distinction (Sec. IV-E).
//
// For a detect-aimed gesture the ascending points of all photodiodes occur
// almost simultaneously; for a track-aimed gesture they occur in order. The
// paper compares the spread of ascending points against the threshold I_g
// (30 ms in Sec. V-A). The router applies the integral form of that rule
// (DESIGN.md §6): a gesture is track-aimed when the spatial asymmetry A(t)
// between the outer photodiodes sweeps monotonically by a clear net swing
// and takes at least I_g to cross the middle of that swing.
#pragma once

#include "core/ascending.hpp"
#include "core/data_processor.hpp"

namespace airfinger::core {

/// Router tunables.
struct TypeRouterConfig {
  double ig_threshold_s = 0.030;  ///< I_g.
  /// Minimum net swing of the spatial asymmetry A(t) for a segment to be
  /// track-aimed (A spans [-1, 1]).
  double asymmetry_threshold = 0.25;
  /// The net swing must also be at least this fraction of the A path's
  /// total range (monotone sweep, not an oscillation that happens to end
  /// off-centre).
  double monotone_fraction = 0.30;
  TimingConfig timing{};
};

/// Gesture category decided at the start of gesture performance.
enum class GestureCategory { kDetectAimed, kTrackAimed };

/// Stateless router.
class TypeRouter {
 public:
  explicit TypeRouter(TypeRouterConfig config = {});

  const TypeRouterConfig& config() const { return config_; }

  /// Classifies the gesture in `segment` by route_timing() over the
  /// segment's timing analysis: track-aimed when some channel rose and the
  /// asymmetry path is a monotone sweep (no reversals) whose net swing
  /// |ΔA| is at least asymmetry_threshold and at least monotone_fraction of
  /// the path's range, with a transit time of at least I_g; detect-aimed
  /// otherwise (nothing rose, A barely moved, or A reversed).
  GestureCategory route(const ProcessedTrace& processed,
                        const dsp::Segment& segment) const;

  /// The routing decision on a precomputed timing analysis (which must
  /// have been produced with this router's TimingConfig over the padded
  /// segment windows). Lets the decision core compute one SegmentTiming
  /// and share it between routing and ZEBRA tracking.
  ///
  /// Contract (load-bearing for the probe's change-detection gate,
  /// DESIGN.md §16): the verdict is a pure function of `timing.active`,
  /// `timing.first_active`, and the asymmetry figures — it reads nothing
  /// else, so bit-identical values of those fields imply the identical
  /// verdict. OpenSegmentTiming::refresh() tracks exactly this field set;
  /// widening route_timing()'s inputs requires widening the gate.
  GestureCategory route_timing(const SegmentTiming& timing) const;

 private:
  TypeRouterConfig config_;
};

}  // namespace airfinger::core
