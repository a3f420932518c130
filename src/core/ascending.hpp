// Signal-ascending-point detection shared by ZEBRA (Sec. IV-D) and the
// detect/track gesture router (Sec. IV-E).
//
// Within a segmented gesture window, a photodiode channel "has an ascending
// point" when its ΔRSS² rises decisively above its in-window noise floor;
// the paper uses SBC output for this. A channel whose peak stays below a
// fraction of the strongest channel's peak is considered to have no
// ascending point (the finger never entered that photodiode's cone).
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

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

/// Bitwise equality: "every fold downstream reproduces its bits". Value
/// equality would identify -0.0 with 0.0 and never identify NaN with
/// itself.
inline bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

/// One tercile bin of the asymmetry path: Σw, Σa·w and Σi·w over the
/// non-zero-weight samples, each folded from 0.0 in ascending sample order.
/// Folded from sample 0, `w` is also the cumulative weight the tercile
/// assignment reads.
struct TercileFold {
  double w = 0.0;
  double aw = 0.0;
  double tw = 0.0;
};

/// Reversal count over the gated asymmetry path: a zigzag scan whose
/// direction changes must retrace the hysteresis to count.
struct ZigzagFold {
  int direction = 0;  ///< +1 rising, -1 falling, 0 undecided.
  double path_min = 0.0, path_max = 0.0, extremum = 0.0;
  bool have_first = false;
  std::size_t reversals = 0;
};

/// Range of the gated asymmetry path (min/max of a where w > gate).
struct RangeFold {
  bool started = false;
  double lo = 0.0, hi = 0.0;
};

/// A left-to-right fold of the samples [begin, end) that can no longer
/// change, resumed at the next frontier.
template <class State>
struct FrontierFold {
  State state{};
  std::size_t end = 0;
};

/// The tercile / transit / range / reversal folds of asymmetry_stats() over
/// a precomputed asymmetry path `a` and differential-weight sequence `w`,
/// as one left-to-right fold whose state can be checkpointed.
///
/// run() with a default-constructed state and `frontier` 0 is the batch
/// analysis. The open-segment cache (timing_cache.hpp) keeps one instance
/// per segment and passes its finalized frontier: samples left of it never
/// change again, so run() keeps
///  - sparse checkpoints of the tercile fold (every kCheckpointEvery
///    samples), from which the first tercile's end and the last tercile's
///    start are found by re-folding a short distance;
///  - the last tercile's fold up to the frontier, resumed while its first
///    sample stays the same (re-summed from that sample when it moves,
///    never differenced — DESIGN.md §16);
///  - the range and zigzag fold states at the frontier, resumed while the
///    gate (and, for the zigzag, the hysteresis) keeps its bits.
/// Every path runs the same step code, so resumed and batch results are
/// the same bits.
class AsymmetryFolds {
 public:
  static constexpr std::size_t kCheckpointEvery = 8;

  /// Forgets every checkpoint (keeps capacity): required whenever a sample
  /// left of a previous frontier changed.
  void reset();

  /// Fills the asymmetry fields of `out`. `total_w` / `max_w` must be the
  /// ascending-order fold results over `w` (sum from 0.0 / max with 0.0);
  /// a[0, frontier) and w[0, frontier) must be what earlier runs since the
  /// last reset() saw, and `frontier` may not decrease between them.
  void run(std::span<const double> a, std::span<const double> w,
           double total_w, double max_w, std::size_t frontier,
           double sample_rate_hz, const TimingConfig& config,
           SegmentTiming& out);

 private:
  std::size_t frontier_ = 0;  ///< The last run's frontier.
  /// checkpoints_[k] is the tercile fold of [0, (k+1)·kCheckpointEvery).
  std::vector<TercileFold> checkpoints_;
  /// Checkpoints below the first / last tercile bound at the last run
  /// (where the next search starts).
  std::size_t first_hint_ = 0, last_hint_ = 0;
  FrontierFold<TercileFold> last_;  ///< The last tercile from...
  std::size_t last_begin_ = 0;      ///< ...this sample on.
  FrontierFold<RangeFold> range_;   ///< The range of [0, end)...
  double range_gate_ = 0.0;         ///< ...at this gate.
  FrontierFold<ZigzagFold> zigzag_;  ///< The zigzag scan of [0, end)...
  double zigzag_gate_ = 0.0;         ///< ...at this gate
  double zigzag_hysteresis_ = 0.0;   ///< and hysteresis.
};
}  // namespace detail

}  // namespace airfinger::core
