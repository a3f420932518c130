// Signal-ascending-point detection shared by ZEBRA (Sec. IV-D) and the
// detect/track gesture router (Sec. IV-E).
//
// Within a segmented gesture window, a photodiode channel "has an ascending
// point" when its ΔRSS² rises decisively above its in-window noise floor;
// the paper uses SBC output for this. A channel whose peak stays below a
// fraction of the strongest channel's peak is considered to have no
// ascending point (the finger never entered that photodiode's cone).
#pragma once

#include <optional>
#include <span>

#include "common/arena.hpp"
#include "common/inline_vector.hpp"
#include "dsp/dynamic_threshold.hpp"

namespace airfinger::core {

/// Upper bound on photodiode channels the timing analysis supports. The
/// paper's prototype has 3 (the 2-D cross variant has 5); per-channel
/// results are held inline (no heap) up to this bound.
inline constexpr std::size_t kMaxTimingChannels = 8;

/// Tunables of the ascending-point detector.
struct AscendingConfig {
  /// Onset threshold: floor + rise_fraction · (peak − floor), where floor
  /// is the channel's in-window 20th-percentile level. Detect-aimed
  /// gestures make every channel cross this onset almost simultaneously;
  /// a scrolling finger reaches each photodiode's cone in sequence.
  double rise_fraction = 0.25;
  /// Percentile (0–1) defining the channel noise floor inside the window.
  double floor_quantile = 0.05;
  /// Consecutive samples required above the threshold to confirm a rise
  /// (rejects single-sample noise spikes).
  std::size_t confirm_samples = 2;
  /// Channels whose peak is below this fraction of the strongest channel's
  /// peak are treated as silent (no ascending point).
  double silence_fraction = 0.12;

  bool operator==(const AscendingConfig&) const = default;
};

/// Per-channel ascending-point result for one gesture window. Value type
/// with inline storage: returning one performs no heap allocation.
struct AscendingPoints {
  /// ascending[c] = sample index (relative to the window) of channel c's
  /// ascending point, or nullopt when the channel stayed silent.
  common::InlineVector<std::optional<std::size_t>, kMaxTimingChannels>
      ascending;
  /// Peak ΔRSS² per channel within the window.
  common::InlineVector<double, kMaxTimingChannels> peaks;
};

/// Detects ascending points for all channels over the same window.
/// `windows[c]` is channel c's ΔRSS² restricted to the gesture segment.
/// Internal scratch (quantile sort buffers) comes from `arena`; the arena
/// is restored before returning.
AscendingPoints find_ascending_points(
    std::span<const std::span<const double>> windows,
    const AscendingConfig& config, common::ScratchArena& arena);

/// find_ascending_points() with a transient internal arena.
AscendingPoints find_ascending_points(
    std::span<const std::span<const double>> windows,
    const AscendingConfig& config = {});

/// Integral timing analysis of one gesture window: exactly the inputs of
/// the detect/track router (TypeRouter::route_timing) and of ZEBRA
/// (ZebraTracker::track_timing).
///
/// The paper compares single ascending points of P1 and P3; with noisy
/// spiky ΔRSS² the robust integral equivalent is the sweep of the spatial
/// asymmetry between the outer channels: a scrolling finger lights the
/// photodiodes in spatial order, so A(t) moves monotonically from one
/// side to the other over the transit time, while a fixed-spot micro
/// gesture leaves it near its start or moves it cyclically.
struct SegmentTiming {
  /// Channel rose above the silence level.
  common::InlineVector<bool, kMaxTimingChannels> active;
  int first_active = -1;        ///< Lowest-index active channel.
  /// Spatial asymmetry A(t) = (E_P3 − E_P1)/(ΣE + ε): net change over the
  /// window. A scroll sweeps A monotonically (|ΔA| large, sign = α); every
  /// fixed-spot or cyclic gesture returns A to its start (ΔA ≈ 0). This is
  /// the integral form of "P1's ascending point precedes P3's".
  double asymmetry_start = 0.0;
  double asymmetry_end = 0.0;
  double asymmetry_delta = 0.0;
  /// Transit time: how long A takes to cross the middle half of its swing
  /// (scaled to the full swing); the Δt of Alg. 1. 0 when ΔA ≈ 0.
  double transition_s = 0.0;
  /// Range of A over the differential-gated path (max − min).
  double asymmetry_range = 0.0;
  /// Direction reversals of the differential-gated A path, counted with
  /// hysteresis: 0 for a monotone sweep (scroll), ≥ 1 for cyclic gestures
  /// whose A returns (rub, circle) or wanders.
  std::size_t asymmetry_reversals = 0;
};

/// Parameters of the integral timing analysis.
struct TimingConfig {
  AscendingConfig ascending{};  ///< Silence detection reuses this.
  double asymmetry_smooth_s = 0.15;  ///< Smoothing before computing A(t).
  /// ε floor in the A(t) denominator, as a fraction of the summed-energy peak
  /// (pulls A towards 0 where no energy is present).
  double epsilon_fraction = 0.05;
  /// Seconds of context added on each side of the detected segment before
  /// the analysis: a scroll's asymmetry swing lives partly in the faded
  /// approach/exit phases just outside the segmented energy burst.
  double analysis_pad_s = 0.25;
  /// Samples participate in the A path only where the differential weight
  /// exceeds this fraction of its in-window maximum.
  double gate_fraction = 0.15;
  /// ...and where the summed energy exceeds this fraction of its peak:
  /// low-energy onset/offset transients carry deceptive asymmetry.
  double energy_gate_fraction = 0.08;
  /// Reversal hysteresis: a direction change must retrace at least
  /// max(reversal_abs, reversal_rel × range) to count.
  double reversal_abs = 0.22;
  double reversal_rel = 0.40;

  /// Exact equality lets the decision core prove that two analyses (router
  /// and ZEBRA) would compute the same SegmentTiming and share one.
  bool operator==(const TimingConfig&) const = default;
};

/// Expands a segment by the config's analysis padding, clamped to the
/// signal length.
dsp::Segment pad_segment(const dsp::Segment& segment, std::size_t limit,
                         double pad_s, double sample_rate_hz);

/// Computes the integral timing of a gesture window at `sample_rate_hz`.
/// All working arrays (smoothed channels, the asymmetry path)
/// come from `arena`, which is restored before returning: once the arena
/// reaches its high-water mark the analysis is allocation-free. Results
/// are bit-identical to the arena-less overload.
SegmentTiming segment_timing(std::span<const std::span<const double>> windows,
                             double sample_rate_hz,
                             const TimingConfig& config,
                             common::ScratchArena& arena);

/// segment_timing() with a transient internal arena.
SegmentTiming segment_timing(std::span<const std::span<const double>> windows,
                             double sample_rate_hz,
                             const TimingConfig& config = {});

namespace detail {
// Building blocks of segment_timing(), shared with the incremental
// open-segment cache (timing_cache.hpp) so both paths run the *same* scalar
// code on the same intermediate arrays — bit-identity by construction.

/// Ascending-point run scan of one channel at a known peak and noise floor.
std::optional<std::size_t> ascending_onset(std::span<const double> w,
                                           double peak, double floor,
                                           const AscendingConfig& config);

/// Asymmetry-path statistics (ΔA, transit, range, reversals) from the
/// smoothed outer-channel and summed energies. Scratch from `arena`.
void asymmetry_stats(std::span<const double> e1, std::span<const double> e3,
                     std::span<const double> esum, double sample_rate_hz,
                     const TimingConfig& config, common::ScratchArena& arena,
                     SegmentTiming& out);

/// The tercile / transit / range / reversal folds of asymmetry_stats()
/// over a precomputed asymmetry path `a` and differential-weight sequence
/// `w`. `total_w` / `max_w` must be the ascending-order fold results over
/// `w` (sum from 0.0 / max with 0.0). Shared with the incremental
/// open-segment cache, which stores a/w and resumes the weight folds from
/// finalized-frontier checkpoints — running the *same* fold code here is
/// what makes the two paths bit-identical by construction.
void asymmetry_folds(std::span<const double> a, std::span<const double> w,
                     double total_w, double max_w, double sample_rate_hz,
                     const TimingConfig& config, SegmentTiming& out);
}  // namespace detail

}  // namespace airfinger::core
