// Incremental timing analysis of the currently open segment.
//
// While a gesture is open, the early-direction probe needs the router's
// and ZEBRA's inputs — the active-channel set and the asymmetry figures —
// over the whole open window on every frame. Recomputing segment_timing()
// each time is an O(n·w) cost (moving averages, quantile selection, the
// asymmetry folds) that grows with the window and is paid ~100×/s.
// OpenSegmentTiming turns that into work proportional to the new frame,
// exploiting that the window only ever *grows at the right edge*:
//
//  - per-channel peaks are running left-to-right max folds — appending
//    one sample extends the identical fold;
//  - the noise-floor quantile reads the tops of two heaps
//    (StreamingQuantile), which take each sample in O(log n);
//  - a centred moving average of half-width h keeps one running sum per
//    output whose window is still open (2h+1 of them per channel). A new
//    sample is added to each — the same additions, in the same order, as
//    the batch kernel's per-output loop — and an output is final once its
//    window closes, h samples later. Everything left of that finalized
//    frontier never changes again;
//  - the smoothed outer-channel difference, the summed energy, the
//    asymmetry path a(t) and the weights w(t) are stored; only their live
//    tail (h samples) is recomputed per frame (all of a/w when the
//    summed-energy peak — and with it ε and the energy gate — changes
//    bits). The esum-peak, total-weight and max-weight folds resume from
//    frontier checkpoints;
//  - the asymmetry folds (detail::AsymmetryFolds) find the tercile bounds
//    from sparse checkpoints, resume the last tercile's sums while its
//    first sample stays put (re-summing them from the new first sample
//    when it moves, never differencing), and resume the range and
//    reversal scans from the frontier while the gate and hysteresis keep
//    their bits;
//  - ascending-point scans early-exit at the first confirmed run and are
//    resumed from the last scanned sample while the rise level's bits are
//    unchanged (raw windows are grow-only, so a found onset never moves);
//    a higher level restarts the scan at the last run it saw.
//
// Cost model per refreshed frame, with C channels and moving-average
// half-width h: O(C·h) to smooth the new sample and restate the h open
// outputs; O(h) for the a/w tail and the esum-peak / weight folds; and,
// on frames whose router inputs changed, the asymmetry folds: a short
// checkpoint walk plus at most one checkpoint interval (8 samples) and
// the live tail per tercile bound, and O(h) for each resumed fold. O(n)
// work remains only for a re-summed last tercile (its first sample
// moved), for range and zigzag re-folds (the gate or the hysteresis
// moved) and for the full a/w rebuild (the esum peak moved). append()
// stays O(C·log n): the running max and the floor heaps. Per-sample
// state is four doubles (difference, summed energy, a, w) plus the floor
// heaps; the tercile checkpoints add three doubles every 8 samples.
//
// refresh() additionally *detects change*: it reports whether any
// decision-relevant statistic (the active-channel set and the asymmetry
// figures the detect/track router reads) changed bits since the previous
// frame. Appends that fall below the energy gate — the long decay tail of
// every gesture — leave all of them bit-identical, so the probe can prove
// "same verdict as last frame" without re-deriving it (DESIGN.md §16).
//
// Every derived scalar runs through the same arithmetic as
// segment_timing(), so the result is bit-identical to the batch analysis
// of the same window — locked in by timing_cache and probe tests.
#pragma once

#include <vector>

#include "core/ascending.hpp"

namespace airfinger::core {

/// Fixed-q linear-interpolated quantile of a grow-only multiset, in
/// O(log n) per push. A max-heap holds the ⌊q(n−1)⌋+1 smallest values and
/// a min-heap the rest, so the two order statistics common::quantile_sorted
/// interpolates between are the two heap tops; value() applies its exact
/// formula to them and so returns the same bits as quantile_sorted() over a
/// sorted copy. clear() keeps both heaps' capacity.
class StreamingQuantile {
 public:
  /// Empties the multiset and sets q (in [0,1]) for the values that follow.
  void reset(double q);
  void push(double v);
  std::size_t size() const { return low_.size() + high_.size(); }
  /// Requires size() > 0.
  double value() const;

 private:
  double q_ = 0.0;
  std::vector<double> low_;   ///< Max-heap: the ⌊q(n−1)⌋+1 smallest values.
  std::vector<double> high_;  ///< Min-heap: every other value.
};

/// Incrementally maintained segment_timing() over a grow-only window.
/// Not thread-safe; owned by one Session (or test) at a time. Buffers keep
/// their capacity across segments, so steady-state operation performs no
/// heap allocation once sized by the longest gesture seen.
class OpenSegmentTiming {
 public:
  OpenSegmentTiming() = default;

  /// Binds the cache to a channel count / sample rate / timing config.
  /// Must be called before the first append; restarts any open segment.
  void configure(std::size_t channels, double sample_rate_hz,
                 const TimingConfig& config);

  bool configured() const { return channel_count_ > 0; }
  const TimingConfig& config() const { return config_; }

  /// Starts a new open segment: drops all cached state, keeps capacity.
  void begin_segment();

  /// Appends one ΔRSS² sample per channel (the frame just pushed).
  void append(std::span<const double> deltas);

  /// Samples appended since begin_segment().
  std::size_t size() const { return n_; }

  /// Advances the decision-relevant state — the active-channel set and the
  /// asymmetry statistics the detect/track router reads — to the current
  /// window and reports whether any of it changed bits since the previous
  /// refresh of this segment. `windows` as for timing(). A `false` return
  /// proves the router would route this window exactly as it routed the
  /// previous one.
  bool refresh(std::span<const std::span<const double>> windows);

  /// Timing analysis of the full appended window; `windows[c]` must be
  /// channel c's ΔRSS² over exactly the appended samples (the open-segment
  /// view the deltas came from). Bit-identical to
  /// segment_timing(windows, sample_rate_hz, config).
  SegmentTiming timing(std::span<const std::span<const double>> windows);

  /// Verdict memo for the early-direction probe: true iff the last probe
  /// over this segment concluded "no emission" (detect-aimed). Combined
  /// with refresh() == false this lets the probe return its cached nullopt
  /// without routing. Reset by begin_segment()/configure().
  bool probe_verdict_no_emit() const { return probe_no_emit_; }
  void record_probe_verdict_no_emit(bool no_emit) { probe_no_emit_ = no_emit; }

 private:
  /// Adds samples [smoothed_, n_) of every channel to the running
  /// moving-average sums of the outputs whose window holds them.
  void smooth(std::span<const std::span<const double>> windows);
  /// Stores outputs [from, to)'s smoothed difference and summed energy
  /// from the running sums over the first smoothed_ samples.
  void store_smoothed(std::size_t from, std::size_t to);

  struct Channel {
    double peak = 0.0;        ///< Running max of the window.
    StreamingQuantile floor;  ///< Window values (noise-floor quantile).
    /// Running moving-average sums: sums[i − sums_base_] holds output i's
    /// 0.0 + x[lo] + … over the samples smoothed so far.
    std::vector<double> sums;
    // Ascending-point scan memo. Raw windows are grow-only, so while the
    // rise level keeps its bits a scan can resume where the last one
    // stopped (and a found onset is final — the *first* confirmed run
    // can never move under appends).
    double rise_level = 0.0;    ///< Level the memo was scanned at.
    bool rise_valid = false;    ///< rise_level holds a scanned-at value.
    bool onset_found = false;   ///< A confirmed run exists in [0, scanned).
    std::size_t scanned = 0;    ///< Samples consumed by the scan so far.
    std::size_t run = 0;        ///< Trailing ≥-level run length at scanned.
    bool active = false;        ///< Last refresh()'s activity verdict.
  };

  std::size_t channel_count_ = 0;
  double sample_rate_hz_ = 0.0;
  TimingConfig config_{};
  std::size_t half_ = 0;  ///< Asymmetry moving-average half-width.
  std::size_t n_ = 0;
  std::vector<Channel> channels_;

  // ---- smoothed energies (entries < smoothed_ − half_ are final) -------
  std::size_t smoothed_ = 0;   ///< Samples added to the running sums.
  std::size_t sums_base_ = 0;  ///< Output held at Channel::sums[0].
  std::size_t stored_ = 0;     ///< Outputs < stored_ hold final values.
  std::vector<double> counts_;  ///< store_smoothed() scratch.
  std::vector<double> diff_;   ///< Smoothed last − first channel.
  std::vector<double> esum_;   ///< Σ_c smoothed channel c.

  // ---- asymmetry-path state (entries < aw_frontier_ are final) ----------
  std::vector<double> a_;  ///< diff/(esum+ε) over the window.
  std::vector<double> w_;  ///< Energy-gated |diff| over the window.
  std::size_t aw_frontier_ = 0;
  double esum_peak_ckpt_ = 0.0;   ///< max fold of esum_[0, frontier) from 0.
  double total_w_ckpt_ = 0.0;     ///< sum fold of w_[0, frontier) from 0.
  double max_w_ckpt_ = 0.0;       ///< max fold of w_[0, frontier) from 0.
  double last_esum_peak_ = 0.0;   ///< ε / energy gate derive from this.
  bool have_esum_peak_ = false;
  detail::AsymmetryFolds folds_;  ///< Checkpointed folds over a_/w_.
  /// Asymmetry figures of the last refresh that saw a change.
  SegmentTiming asymmetry_;

  // ---- refresh bookkeeping --------------------------------------------
  bool have_refresh_ = false;       ///< A refresh ran this segment.
  std::size_t last_refresh_n_ = 0;  ///< Window length of the last refresh.
  bool last_changed_ = true;        ///< Its change verdict (memoized).
  bool probe_no_emit_ = false;      ///< Last probe verdict was nullopt.
};

}  // namespace airfinger::core
