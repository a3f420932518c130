#include "core/timing_cache.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/error.hpp"

namespace airfinger::core {

using detail::same_bits;

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
  const auto a_smooth = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(config.asymmetry_smooth_s * sample_rate_hz)));
  half_ = a_smooth / 2;
  // Room for the 2h+1 open sums plus slack, so the buffer is compacted
  // only once every kSumsSlack samples.
  constexpr std::size_t kSumsSlack = 64;
  const std::size_t capacity = 2 * half_ + 1 + kSumsSlack;
  channels_.resize(channel_count_);
  for (auto& ch : channels_) ch.sums.assign(capacity, 0.0);
  counts_.assign(capacity, 0.0);
  begin_segment();
}

void OpenSegmentTiming::begin_segment() {
  n_ = 0;
  for (auto& ch : channels_) {
    ch.peak = 0.0;
    ch.floor.reset(config_.ascending.floor_quantile);
    ch.rise_level = 0.0;
    ch.rise_valid = false;
    ch.onset_found = false;
    ch.scanned = 0;
    ch.run = 0;
    ch.active = false;
  }
  smoothed_ = 0;
  sums_base_ = 0;
  stored_ = 0;
  diff_.clear();
  esum_.clear();
  a_.clear();
  w_.clear();
  aw_frontier_ = 0;
  esum_peak_ckpt_ = 0.0;
  total_w_ckpt_ = 0.0;
  max_w_ckpt_ = 0.0;
  last_esum_peak_ = 0.0;
  have_esum_peak_ = false;
  folds_.reset();
  asymmetry_ = SegmentTiming{};
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

void OpenSegmentTiming::smooth(
    std::span<const std::span<const double>> windows) {
  // Output i of moving_average(x, w) is (0.0 + x[lo] + … + x[hi−1]) /
  // (hi − lo) with lo = max(0, i−h), hi = min(i+h+1, n): sample m belongs
  // to outputs [m−h, m+h]. The output whose window opens at m (every
  // output in [0, h] when m = 0) starts its sum at 0.0 first, so each sum
  // performs the batch kernel's additions in its order — the same bits
  // under every SIMD tier, whose lanes run that scalar order. Each output
  // owns its accumulator, so the per-sample loop vectorizes freely.
  const std::size_t capacity = counts_.size();
  for (std::size_t m = smoothed_; m < n_; ++m) {
    const std::size_t first = m > half_ ? m - half_ : 0;
    const std::size_t last = m + half_;
    if (last - sums_base_ >= capacity) {
      // Outputs below m − h are final: store them, then slide the open
      // sums [m−h, m+h) to the front of the buffer.
      smoothed_ = m;
      store_smoothed(stored_, first);
      stored_ = first;
      for (auto& ch : channels_)
        std::copy(ch.sums.begin() +
                      static_cast<std::ptrdiff_t>(first - sums_base_),
                  ch.sums.begin() +
                      static_cast<std::ptrdiff_t>(last - sums_base_),
                  ch.sums.begin());
      sums_base_ = first;
    }
    for (std::size_t c = 0; c < channel_count_; ++c) {
      double* sums = channels_[c].sums.data();
      if (m == 0) {
        std::fill(sums, sums + half_ + 1, 0.0);
      } else {
        sums[last - sums_base_] = 0.0;
      }
      const double x = windows[c][m];
      for (std::size_t j = first - sums_base_; j <= last - sums_base_; ++j)
        sums[j] += x;
    }
  }
  smoothed_ = n_;
}

void OpenSegmentTiming::store_smoothed(std::size_t from, std::size_t to) {
  if (from >= to) return;
  const std::size_t len = to - from;
  // Output counts hi − lo, formed once per call (exact in double).
  for (std::size_t k = 0; k < len; ++k) {
    const std::size_t i = from + k;
    const std::size_t lo = i >= half_ ? i - half_ : 0;
    counts_[k] = static_cast<double>(std::min(i + half_ + 1, smoothed_) - lo);
  }
  // The batch esum accumulates the smoothed channels in channel order
  // into a zeroed array; its outer terms are the same e_first / e_last.
  const double* count = counts_.data();
  double* esum = esum_.data() + from;
  double* diff = diff_.data() + from;
  const std::size_t offset = from - sums_base_;
  const double* s = channels_.front().sums.data() + offset;
  for (std::size_t k = 0; k < len; ++k) {
    const double e = s[k] / count[k];
    esum[k] = 0.0 + e;
    diff[k] = e;
  }
  for (std::size_t c = 1; c + 1 < channel_count_; ++c) {
    s = channels_[c].sums.data() + offset;
    for (std::size_t k = 0; k < len; ++k) esum[k] += s[k] / count[k];
  }
  s = channels_.back().sums.data() + offset;
  for (std::size_t k = 0; k < len; ++k) {
    const double e = s[k] / count[k];
    esum[k] += e;
    diff[k] = e - diff[k];
  }
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

  // Feed the samples appended since the last refresh to the running
  // moving-average sums, then store every output not yet final: the ones
  // whose window closed since, and the still-open trailing h at the
  // current length. Entries from `revise` on may differ from the last
  // refresh's.
  const std::size_t prev = smoothed_;
  diff_.resize(n_);
  esum_.resize(n_);
  smooth(windows);
  const std::size_t frontier = n_ > half_ ? n_ - half_ : 0;
  store_smoothed(stored_, n_);
  stored_ = frontier;
  const std::size_t revise = prev > half_ ? prev - half_ : 0;

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
        // A higher level only shortens runs: no run starting before the
        // last scan's final run (the confirmed one, or the unfinished
        // trailing one) can be confirmed, and none of them reaches into
        // it, so the scan restarts there with an empty run. A lower
        // level can confirm earlier runs: rescan from the start.
        const std::size_t restart =
            ch.rise_valid && rise > ch.rise_level ? ch.scanned - ch.run : 0;
        ch.rise_valid = true;
        ch.rise_level = rise;
        ch.onset_found = false;
        ch.scanned = restart;
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
  for (std::size_t i = from; i < n_; ++i) {
    const double na = diff_[i] / (esum_[i] + eps);
    const double nw = esum_[i] > energy_gate ? std::fabs(diff_[i]) : 0.0;
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
  // the ones a full recomputation would produce. A rebuild revised
  // entries left of the frontier, which voids every fold checkpoint.
  if (rebuild) folds_.reset();
  if (changed) {
    asymmetry_ = SegmentTiming{};
    if (n_ >= 8)
      folds_.run(a_, w_, total_w, max_w, frontier, sample_rate_hz_, config_,
                 asymmetry_);
  }

  have_refresh_ = true;
  last_refresh_n_ = n_;
  last_changed_ = changed;
  return changed;
}

SegmentTiming OpenSegmentTiming::timing(
    std::span<const std::span<const double>> windows) {
  refresh(windows);

  SegmentTiming out = asymmetry_;
  out.active.resize(channel_count_, false);
  for (std::size_t c = 0; c < channel_count_; ++c) {
    out.active[c] = channels_[c].active;
    if (out.active[c] && out.first_active < 0)
      out.first_active = static_cast<int>(c);
  }
  return out;
}

}  // namespace airfinger::core
