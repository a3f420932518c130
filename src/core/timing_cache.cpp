#include "core/timing_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "dsp/filters.hpp"

namespace airfinger::core {

namespace {

/// Bitwise equality — the change detector's notion of "same value". Value
/// equality would identify -0.0 with 0.0 and never identify NaN with
/// itself; bit equality is exactly "every downstream fold reproduces its
/// bits".
inline bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

}  // namespace

void StreamingQuantile::reset(double q) {
  AF_EXPECT(q >= 0.0 && q <= 1.0, "quantile q must lie in [0,1]");
  q_ = q;
  low_.clear();
  high_.clear();
}

void StreamingQuantile::push(double v) {
  constexpr std::greater<> min_heap;
  if (low_.empty() || !(low_.front() < v)) {
    low_.push_back(v);
    std::push_heap(low_.begin(), low_.end());
  } else {
    high_.push_back(v);
    std::push_heap(high_.begin(), high_.end(), min_heap);
  }
  // quantile_sorted() reads sorted[lo] and sorted[lo + 1] with
  // lo = ⌊q(n−1)⌋: rebalance so low_ holds exactly the lo + 1 smallest.
  const std::size_t keep =
      static_cast<std::size_t>(q_ * static_cast<double>(size() - 1)) + 1;
  while (low_.size() > keep) {
    std::pop_heap(low_.begin(), low_.end());
    high_.push_back(low_.back());
    low_.pop_back();
    std::push_heap(high_.begin(), high_.end(), min_heap);
  }
  while (low_.size() < keep) {
    std::pop_heap(high_.begin(), high_.end(), min_heap);
    low_.push_back(high_.back());
    high_.pop_back();
    std::push_heap(low_.begin(), low_.end());
  }
}

double StreamingQuantile::value() const {
  AF_EXPECT(!low_.empty(), "quantile of an empty window");
  // common::quantile_sorted()'s formula on the two order statistics: the
  // lo-th is low_'s top and the (lo+1)-th high_'s. With no (lo+1)-th,
  // low_ holds every value and its top is sorted.back().
  const std::size_t n = size();
  if (n == 1) return low_.front();
  const double pos = q_ * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= n) return low_.front();
  return low_.front() * (1.0 - frac) + high_.front() * frac;
}

void OpenSegmentTiming::configure(std::size_t channels,
                                  double sample_rate_hz,
                                  const TimingConfig& config) {
  AF_EXPECT(channels >= 2, "timing cache requires >= 2 channels");
  AF_EXPECT(channels <= kMaxTimingChannels,
            "timing cache supports at most kMaxTimingChannels");
  AF_EXPECT(sample_rate_hz > 0.0, "sample rate must be positive");
  const AscendingConfig& asc = config.ascending;
  AF_EXPECT(asc.rise_fraction > 0.0 && asc.rise_fraction < 1.0,
            "rise fraction must lie in (0,1)");
  AF_EXPECT(asc.floor_quantile >= 0.0 && asc.floor_quantile < 1.0,
            "floor quantile must lie in [0,1)");
  AF_EXPECT(asc.confirm_samples >= 1, "confirm_samples must be >= 1");
  AF_EXPECT(asc.silence_fraction >= 0.0 && asc.silence_fraction < 1.0,
            "silence fraction must lie in [0,1)");

  channel_count_ = channels;
  sample_rate_hz_ = sample_rate_hz;
  config_ = config;
  a_smooth_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(config.asymmetry_smooth_s * sample_rate_hz)));
  channels_.resize(channel_count_);
  begin_segment();
}

void OpenSegmentTiming::begin_segment() {
  n_ = 0;
  for (auto& ch : channels_) {
    ch.peak = 0.0;
    ch.floor.reset(config_.ascending.floor_quantile);
    ch.smooth.clear();
    ch.rise_level = 0.0;
    ch.rise_valid = false;
    ch.onset_found = false;
    ch.scanned = 0;
    ch.run = 0;
    ch.active = false;
  }
  esum_.clear();
  a_.clear();
  w_.clear();
  aw_frontier_ = 0;
  esum_peak_ckpt_ = 0.0;
  total_w_ckpt_ = 0.0;
  max_w_ckpt_ = 0.0;
  last_esum_peak_ = 0.0;
  have_esum_peak_ = false;
  asym_start_ = asym_end_ = asym_delta_ = 0.0;
  asym_transition_s_ = asym_range_ = 0.0;
  asym_reversals_ = 0;
  have_refresh_ = false;
  last_refresh_n_ = 0;
  last_changed_ = true;
  probe_no_emit_ = false;
}

void OpenSegmentTiming::append(std::span<const double> deltas) {
  AF_EXPECT(configured(), "timing cache must be configured before use");
  AF_EXPECT(deltas.size() == channel_count_,
            "frame arity must match the configured channel count");
  for (std::size_t c = 0; c < channel_count_; ++c) {
    Channel& ch = channels_[c];
    ch.peak = std::max(ch.peak, deltas[c]);
    ch.floor.push(deltas[c]);
  }
  ++n_;
}

void OpenSegmentTiming::advance_moving_average(std::span<const double> x,
                                               std::size_t w,
                                               std::vector<double>& out) {
  // An entry i of moving_average(x, w) reads x[max(0, i-half) .. i+half];
  // at a previous length m it was final iff i + half + 1 <= m. Recompute
  // only the trailing entries the grow invalidated, through the same
  // SIMD moving_average_range kernel moving_average_into uses, so each
  // revised entry is bit-identical to a full pass.
  const std::size_t half = w / 2;
  const std::size_t m = out.size();
  const std::size_t revise = m > half ? m - half : 0;
  out.resize(x.size());
  dsp::moving_average_range_into(x, w, revise, out);
}

bool OpenSegmentTiming::refresh(
    std::span<const std::span<const double>> windows) {
  AF_EXPECT(configured(), "timing cache must be configured before use");
  AF_EXPECT(windows.size() == channel_count_,
            "window arity must match the configured channel count");
  for (const auto& w : windows)
    AF_EXPECT(w.size() == n_,
              "windows must cover exactly the appended samples");
  // Grow-only window: at an unchanged length the whole pass below is
  // idempotent, so re-entry (the probe refreshes, then timing() refreshes
  // again on the same frame) returns the memoized verdict.
  if (have_refresh_ && last_refresh_n_ == n_) return last_changed_;

  // Entering (or leaving, which cannot happen under grow-only) the n >= 8
  // regime switches the asymmetry analysis on — decision-relevant.
  bool changed = !have_refresh_ || (n_ >= 8) != (last_refresh_n_ >= 8);

  // Advance the lazy moving-average caches lane by lane — each channel
  // tail goes through the SIMD moving_average_range kernel back to
  // back — then rebuild the invalidated tail of the summed smoothed
  // energy with the accumulate kernel (same channel-order additions as
  // the batch path's esum build).
  const std::size_t prev = channels_.front().smooth.size();
  for (std::size_t c = 0; c < channel_count_; ++c)
    advance_moving_average(windows[c], a_smooth_, channels_[c].smooth);
  const std::size_t half_a = a_smooth_ / 2;
  const std::size_t revise = prev > half_a ? prev - half_a : 0;
  esum_.resize(n_);
  std::fill(esum_.begin() + static_cast<std::ptrdiff_t>(revise), esum_.end(),
            0.0);
  for (std::size_t c = 0; c < channel_count_; ++c)
    simd::kernels().accumulate(esum_.data() + revise,
                               channels_[c].smooth.data() + revise,
                               n_ - revise);

  // ---- active-channel set via memoized ascending-point scans ----------
  double strongest = 0.0;
  for (const auto& ch : channels_)
    strongest = std::max(strongest, ch.peak);
  const double silence_level = strongest * config_.ascending.silence_fraction;

  for (std::size_t c = 0; c < channel_count_; ++c) {
    Channel& ch = channels_[c];
    bool active = false;
    if (!(windows[c].empty() || ch.peak <= silence_level ||
          ch.peak <= 0.0)) {
      const double floor = ch.floor.value();
      const double rise =
          floor + config_.ascending.rise_fraction * (ch.peak - floor);
      if (!(ch.rise_valid && same_bits(rise, ch.rise_level))) {
        ch.rise_valid = true;
        ch.rise_level = rise;
        ch.onset_found = false;
        ch.scanned = 0;
        ch.run = 0;
      }
      // detail::ascending_onset()'s scan, resumable: the raw window is
      // grow-only and the scan stops at the *first* confirmed run, so
      // while the rise level keeps its bits a found onset is final and
      // an unfinished scan continues from where it stopped.
      if (!ch.onset_found) {
        const auto& w = windows[c];
        std::size_t run = ch.run;
        std::size_t i = ch.scanned;
        for (; i < w.size(); ++i) {
          run = (w[i] >= ch.rise_level) ? run + 1 : 0;
          if (run >= config_.ascending.confirm_samples) {
            ch.onset_found = true;
            ++i;
            break;
          }
        }
        ch.scanned = i;
        ch.run = run;
      }
      active = ch.onset_found;
    }
    if (active != ch.active) changed = true;
    ch.active = active;
  }

  // ---- asymmetry path tail + change detection -------------------------
  // Summed-energy peak: resume the max fold from the finalized-frontier
  // checkpoint (entries left of the frontier can never be revised again).
  const std::size_t frontier = n_ > half_a ? n_ - half_a : 0;
  double m = esum_peak_ckpt_;
  for (std::size_t i = aw_frontier_; i < frontier; ++i)
    if (esum_[i] > m) m = esum_[i];
  const double peak_ckpt = m;
  for (std::size_t i = frontier; i < n_; ++i)
    if (esum_[i] > m) m = esum_[i];
  const double esum_peak = m;

  // ε and the energy gate derive from esum_peak: if its bits moved, every
  // stored a/w entry was computed against stale globals — rebuild all.
  const bool rebuild =
      !have_esum_peak_ || !same_bits(esum_peak, last_esum_peak_);
  const double eps =
      std::max(esum_peak * config_.epsilon_fraction, 1e-12);
  const double energy_gate = esum_peak * config_.energy_gate_fraction;
  const std::size_t old_size = a_.size();
  const std::size_t from = rebuild ? 0 : revise;
  if (rebuild) changed = true;
  a_.resize(n_);
  w_.resize(n_);
  const std::span<const double> e1{channels_.front().smooth};
  const std::span<const double> e3{channels_.back().smooth};
  const std::span<const double> esum{esum_};
  for (std::size_t i = from; i < n_; ++i) {
    const double na = (e3[i] - e1[i]) / (esum[i] + eps);
    const double nw = esum[i] > energy_gate ? std::fabs(e3[i] - e1[i]) : 0.0;
    if (!changed) {
      // A revised or appended sample moves the router's asymmetry
      // statistics only if it carries weight the folds can see: a
      // zero-weight sample is an exact no-op on every fold, whatever its
      // a value.
      if (i >= old_size) {
        if (nw != 0.0) changed = true;
      } else if (!same_bits(nw, w_[i]) ||
                 (nw != 0.0 && !same_bits(na, a_[i]))) {
        changed = true;
      }
    }
    a_[i] = na;
    w_[i] = nw;
  }

  // Advance the weight-fold checkpoints to the new frontier. The entries
  // folded in are final, and the two-step fold (prefix state, then live
  // tail) performs the same ascending additions/comparisons as a full
  // left-to-right pass — bit-identical by construction.
  double total_w = 0.0, max_w = 0.0;
  if (rebuild) {
    double tw = 0.0, mw = 0.0;
    for (std::size_t i = 0; i < frontier; ++i) {
      tw += w_[i];
      if (w_[i] > mw) mw = w_[i];
    }
    total_w_ckpt_ = tw;
    max_w_ckpt_ = mw;
  } else {
    for (std::size_t i = aw_frontier_; i < frontier; ++i) {
      total_w_ckpt_ += w_[i];
      if (w_[i] > max_w_ckpt_) max_w_ckpt_ = w_[i];
    }
  }
  total_w = total_w_ckpt_;
  max_w = max_w_ckpt_;
  for (std::size_t i = frontier; i < n_; ++i) {
    total_w += w_[i];
    if (w_[i] > max_w) max_w = w_[i];
  }
  aw_frontier_ = frontier;
  esum_peak_ckpt_ = peak_ckpt;
  last_esum_peak_ = esum_peak;
  have_esum_peak_ = true;

  // Re-derive the asymmetry outputs only when an input bit moved; on
  // quiescent frames (the decay tail of every gesture, where appended
  // samples fall below the energy gate) the cached figures are provably
  // the ones a full recomputation would produce.
  if (changed) {
    asym_start_ = asym_end_ = asym_delta_ = 0.0;
    asym_transition_s_ = asym_range_ = 0.0;
    asym_reversals_ = 0;
    if (n_ >= 8) {
      SegmentTiming folds;
      detail::asymmetry_folds(a_, w_, total_w, max_w, sample_rate_hz_,
                              config_, folds);
      asym_start_ = folds.asymmetry_start;
      asym_end_ = folds.asymmetry_end;
      asym_delta_ = folds.asymmetry_delta;
      asym_transition_s_ = folds.transition_s;
      asym_range_ = folds.asymmetry_range;
      asym_reversals_ = folds.asymmetry_reversals;
    }
  }

  have_refresh_ = true;
  last_refresh_n_ = n_;
  last_changed_ = changed;
  return changed;
}

SegmentTiming OpenSegmentTiming::timing(
    std::span<const std::span<const double>> windows,
    common::ScratchArena& arena) {
  (void)arena;  // Scratch now lives in the cache; kept for API stability.
  refresh(windows);

  SegmentTiming out;
  out.active.resize(channel_count_, false);
  for (std::size_t c = 0; c < channel_count_; ++c) {
    out.active[c] = channels_[c].active;
    if (out.active[c] && out.first_active < 0)
      out.first_active = static_cast<int>(c);
  }
  if (n_ >= 8) {
    out.asymmetry_start = asym_start_;
    out.asymmetry_end = asym_end_;
    out.asymmetry_delta = asym_delta_;
    out.transition_s = asym_transition_s_;
    out.asymmetry_range = asym_range_;
    out.asymmetry_reversals = asym_reversals_;
  }
  return out;
}

}  // namespace airfinger::core
