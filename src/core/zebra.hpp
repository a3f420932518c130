// ZEBRA — track-aimed gesture recognition (Alg. 1, Sec. IV-D).
//
// Determines scroll direction from the order of ascending points of the
// outer photodiodes P1 and P3, velocity from the time difference Δt between
// them (the P1–P3 physical distance is fixed), and displacement
// D_t = α · v(Δt) · min{t, T}. When only one outer photodiode rose (the
// finger passed only IL1 or only IL2), the experience velocity v' is used,
// exactly as in the paper.
#pragma once

#include <optional>

#include "core/ascending.hpp"
#include "core/data_processor.hpp"

namespace airfinger::core {

/// ZEBRA tunables (defaults from Sec. V-A / V-G).
struct ZebraConfig {
  double pd_span_m = 0.016;          ///< Physical distance P1 → P3 (4 mm pitch).
  double experience_velocity_mps = 0.080;  ///< v' = 80 mm/s.
  /// Calibration gain on pd_span / Δt. The paper only requires velocity to
  /// be proportional to the measured time difference (Alg. 1 line 11 reads
  /// "v(Δt) = Δt"); the asymmetry transit Δt underestimates the geometric
  /// transit slightly, so a fitted gain maps it to physical units.
  double velocity_gain = 1.0;
  TimingConfig timing{};
};

/// Tracking verdict for one segmented gesture.
struct ScrollEstimate {
  double direction = 0.0;      ///< α: +1 up, -1 down, 0 undecidable.
  double velocity_mps = 0.0;   ///< v(Δt) or v'.
  double duration_s = 0.0;     ///< T.
  bool used_experience_velocity = false;  ///< True when Δt was incalculable.
  std::optional<double> delta_t_s;        ///< Δt when both PDs rose.

  /// Displacement D_t at elapsed time t since gesture start (Eq. 5).
  double displacement_at(double t) const;

  /// Final displacement D_T.
  double final_displacement() const { return displacement_at(duration_s); }
};

/// ZEBRA tracker bound to a processed trace's geometry.
class ZebraTracker {
 public:
  explicit ZebraTracker(ZebraConfig config = {});

  const ZebraConfig& config() const { return config_; }

  /// Applies Alg. 1 to one gesture segment of a processed trace.
  /// Requires >= 2 channels; P1 = channel 0, P3 = last channel.
  /// Returns nullopt when neither outer photodiode rose (no scroll).
  std::optional<ScrollEstimate> track(const ProcessedTrace& processed,
                                      const dsp::Segment& segment) const;

  /// Alg. 1 on a precomputed timing analysis. `timing` must come from this
  /// tracker's TimingConfig over `windows` (the padded per-channel views of
  /// the gesture); `segment` is the unpadded segment (duration and the
  /// early-energy tie-break read it). Lets the decision core share one
  /// SegmentTiming between routing and tracking.
  ///
  /// Unlike the routing verdict, the estimate is NOT a pure function of
  /// the gated timing fields: duration_s grows with the window even when
  /// every routed statistic keeps its bits, which is why the probe's
  /// change-detection gate (DESIGN.md §16) may cache "no emission" but
  /// never a ScrollEstimate.
  std::optional<ScrollEstimate> track_timing(
      const SegmentTiming& timing,
      std::span<const std::span<const double>> windows,
      const dsp::Segment& segment, double sample_rate_hz) const;

 private:
  ZebraConfig config_;
};

}  // namespace airfinger::core
