#include "core/ascending.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/reduce.hpp"
#include "common/simd.hpp"
#include "common/stats.hpp"
#include "dsp/filters.hpp"

namespace airfinger::core {

AscendingPoints find_ascending_points(
    std::span<const std::span<const double>> windows,
    const AscendingConfig& config, common::ScratchArena& arena) {
  AF_EXPECT(!windows.empty(), "ascending detection requires channels");
  AF_EXPECT(windows.size() <= kMaxTimingChannels,
            "ascending detection supports at most kMaxTimingChannels");
  AF_EXPECT(config.rise_fraction > 0.0 && config.rise_fraction < 1.0,
            "rise fraction must lie in (0,1)");
  AF_EXPECT(config.floor_quantile >= 0.0 && config.floor_quantile < 1.0,
            "floor quantile must lie in [0,1)");
  AF_EXPECT(config.confirm_samples >= 1, "confirm_samples must be >= 1");
  AF_EXPECT(config.silence_fraction >= 0.0 && config.silence_fraction < 1.0,
            "silence fraction must lie in [0,1)");

  AscendingPoints out;
  out.ascending.resize(windows.size());
  out.peaks.resize(windows.size(), 0.0);

  double strongest = 0.0;
  for (std::size_t c = 0; c < windows.size(); ++c) {
    out.peaks[c] = common::reduce::max_with(windows[c], 0.0);
    strongest = std::max(strongest, out.peaks[c]);
  }
  const double silence_level = strongest * config.silence_fraction;

  std::size_t longest = 0;
  for (const auto& w : windows) longest = std::max(longest, w.size());
  const auto scratch_frame = arena.frame();
  const std::span<double> sort_scratch = arena.alloc<double>(longest);

  for (std::size_t c = 0; c < windows.size(); ++c) {
    const auto& w = windows[c];
    if (w.empty() || out.peaks[c] <= silence_level || out.peaks[c] <= 0.0)
      continue;
    const double floor =
        common::quantile_with(w, config.floor_quantile, sort_scratch);
    out.ascending[c] = detail::ascending_onset(w, out.peaks[c], floor, config);
  }
  return out;
}

std::optional<std::size_t> detail::ascending_onset(
    std::span<const double> w, double peak, double floor,
    const AscendingConfig& config) {
  const double rise_level = floor + config.rise_fraction * (peak - floor);
  std::size_t run = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    run = (w[i] >= rise_level) ? run + 1 : 0;
    if (run >= config.confirm_samples)
      return i + 1 - run;  // onset = first sample of the run
  }
  return std::nullopt;
}

AscendingPoints find_ascending_points(
    std::span<const std::span<const double>> windows,
    const AscendingConfig& config) {
  common::ScratchArena arena;
  return find_ascending_points(windows, config, arena);
}

dsp::Segment pad_segment(const dsp::Segment& segment, std::size_t limit,
                         double pad_s, double sample_rate_hz) {
  AF_EXPECT(sample_rate_hz > 0.0, "sample rate must be positive");
  const auto pad = static_cast<std::size_t>(
      std::lround(std::max(pad_s, 0.0) * sample_rate_hz));
  dsp::Segment out;
  out.begin = segment.begin >= pad ? segment.begin - pad : 0;
  out.end = std::min(segment.end + pad, limit);
  return out;
}

SegmentTiming segment_timing(std::span<const std::span<const double>> windows,
                             double sample_rate_hz,
                             const TimingConfig& config,
                             common::ScratchArena& arena) {
  AF_EXPECT(windows.size() >= 2, "segment_timing requires >= 2 channels");
  AF_EXPECT(windows.size() <= kMaxTimingChannels,
            "segment_timing supports at most kMaxTimingChannels");
  AF_EXPECT(sample_rate_hz > 0.0, "sample rate must be positive");

  const auto timing_frame = arena.frame();
  const AscendingPoints pts =
      find_ascending_points(windows, config.ascending, arena);
  SegmentTiming out;
  out.active.resize(windows.size(), false);
  for (std::size_t c = 0; c < windows.size(); ++c) {
    out.active[c] = pts.ascending[c].has_value();
    if (out.active[c] && out.first_active < 0)
      out.first_active = static_cast<int>(c);
  }

  // Spatial asymmetry A(t) between the outer channels.
  const std::size_t n = windows.front().size();
  if (n >= 8) {
    const auto a_smooth = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(config.asymmetry_smooth_s * sample_rate_hz)));
    const std::span<double> e1 = arena.alloc<double>(n);
    dsp::moving_average_into(windows.front(), a_smooth, e1);
    const std::span<double> e3 = arena.alloc<double>(n);
    dsp::moving_average_into(windows.back(), a_smooth, e3);
    const std::span<double> esum = arena.alloc<double>(n);
    // The sum's outer-channel terms are exactly e1/e3 (same window, same
    // smoothing); reusing them drops two of the five moving averages.
    // Accumulation stays in channel order, so esum keeps its bits.
    for (std::size_t c = 0; c < windows.size(); ++c) {
      if (c == 0) {
        simd::kernels().accumulate(esum.data(), e1.data(), n);
      } else if (c + 1 == windows.size()) {
        simd::kernels().accumulate(esum.data(), e3.data(), n);
      } else {
        const auto channel_frame = arena.frame();
        const std::span<double> es = arena.alloc<double>(n);
        dsp::moving_average_into(windows[c], a_smooth, es);
        simd::kernels().accumulate(esum.data(), es.data(), n);
      }
    }
    detail::asymmetry_stats(e1, e3, esum, sample_rate_hz, config, arena, out);
  }
  return out;
}

void detail::asymmetry_stats(std::span<const double> e1,
                             std::span<const double> e3,
                             std::span<const double> esum,
                             double sample_rate_hz, const TimingConfig& config,
                             common::ScratchArena& arena, SegmentTiming& out) {
  const std::size_t n = esum.size();
  const auto asymmetry_frame = arena.frame();
  {
    const double esum_peak = common::reduce::max_with(esum, 0.0);
    const double eps =
        std::max(esum_peak * config.epsilon_fraction, 1e-12);

    const std::span<double> a = arena.alloc<double>(n);
    for (std::size_t i = 0; i < n; ++i)
      a[i] = (e3[i] - e1[i]) / (esum[i] + eps);

    // Asymmetry in *differential-energy* terciles. The weight of a sample
    // is |E_P3 − E_P1|: a scroll concentrates its differential energy at
    // the two zone crossings (first tercile on P1's side, last on P3's),
    // while common-mode events — clicks, lifts, and the centre crossings
    // of cyclic micro gestures — carry almost no differential weight.
    const std::span<double> w = arena.alloc<double>(n);
    double total_w = 0.0;
    {
      // Energy gate: low-energy onset/offset transients show deceptive
      // asymmetry (one zone lights up marginally earlier); exclude them.
      const double energy_gate = esum_peak * config.energy_gate_fraction;
      for (std::size_t i = 0; i < n; ++i) {
        w[i] = esum[i] > energy_gate ? std::fabs(e3[i] - e1[i]) : 0.0;
        total_w += w[i];
      }
    }
    const double max_w = common::reduce::max_with(w, 0.0);
    detail::AsymmetryFolds().run(a, w, total_w, max_w, /*frontier=*/0,
                                 sample_rate_hz, config, out);
  }
}

namespace {

// Tercile bounds on the cumulative differential weight.
constexpr double kFirstTercile = 1.0 / 3.0;
constexpr double kLastTercile = 2.0 / 3.0;

inline void add_to_tercile(std::size_t i, double a, double w,
                           detail::TercileFold& fold) {
  fold.aw += a * w;
  fold.tw += static_cast<double>(i) * w;
  fold.w += w;
}

/// True while a sample whose preceding cumulative weight is `cum` still
/// lies below `bound` (a fraction of `total_w`). cum only grows and a
/// correctly rounded division by a fixed total is monotone, so along the
/// window this is true on a prefix and false from there on (a NaN
/// quotient, once reached, stays NaN): tercile membership is monotone.
inline bool below(double cum, double total_w, double bound) {
  return cum / total_w < bound;
}

// The folds below run on a local copy of their state and store it back
// once: the state's doubles could alias the input spans, which would
// otherwise keep every accumulator in memory across iterations.

/// Folds every non-zero-weight sample of [from, to) into `fold`.
/// Zero-weight samples are exact no-ops on every tercile accumulator
/// (x += ±0.0 keeps the bits of the non-negative sums these folds build),
/// so both tercile folds skip them: O(gated samples), same bits.
void fold_tercile(std::span<const double> a, std::span<const double> w,
                  std::size_t from, std::size_t to,
                  detail::TercileFold& fold) {
  detail::TercileFold f = fold;
  for (std::size_t i = from; i < to; ++i)
    if (w[i] != 0.0) add_to_tercile(i, a[i], w[i], f);
  fold = f;
}

/// With `fold` the fold of [0, from), folds the non-zero-weight samples
/// from `from` on while they lie below `bound`; returns the first sample
/// at or above it (w.size() if none).
std::size_t fold_tercile_below(std::span<const double> a,
                               std::span<const double> w, std::size_t from,
                               double total_w, double bound,
                               detail::TercileFold& fold) {
  detail::TercileFold f = fold;
  std::size_t i = from;
  for (; i < w.size(); ++i) {
    if (w[i] == 0.0) continue;
    if (!below(f.w, total_w, bound)) break;
    add_to_tercile(i, a[i], w[i], f);
  }
  fold = f;
  return i;
}

void fold_range(std::span<const double> a, std::span<const double> w,
                std::size_t from, std::size_t to, double gate,
                detail::RangeFold& fold) {
  detail::RangeFold f = fold;
  for (std::size_t i = from; i < to; ++i) {
    if (w[i] <= gate) continue;
    if (!f.started) {
      f.started = true;
      f.lo = f.hi = a[i];
    } else {
      f.lo = std::min(f.lo, a[i]);
      f.hi = std::max(f.hi, a[i]);
    }
  }
  fold = f;
}

void fold_zigzag(std::span<const double> a, std::span<const double> w,
                 std::size_t from, std::size_t to, double gate,
                 double hysteresis, detail::ZigzagFold& fold) {
  detail::ZigzagFold z = fold;
  for (std::size_t i = from; i < to; ++i) {
    if (w[i] <= gate) continue;
    const double v = a[i];
    if (!z.have_first) {
      z.have_first = true;
      z.path_min = z.path_max = v;
      continue;
    }
    if (z.direction == 0) {
      z.path_min = std::min(z.path_min, v);
      z.path_max = std::max(z.path_max, v);
      if (v >= z.path_min + hysteresis) {
        z.direction = +1;
        z.extremum = v;
      } else if (v <= z.path_max - hysteresis) {
        z.direction = -1;
        z.extremum = v;
      }
    } else if (z.direction > 0) {
      z.extremum = std::max(z.extremum, v);
      if (v <= z.extremum - hysteresis) {
        ++z.reversals;
        z.direction = -1;
        z.extremum = v;
      }
    } else {
      z.extremum = std::min(z.extremum, v);
      if (v >= z.extremum + hysteresis) {
        ++z.reversals;
        z.direction = +1;
        z.extremum = v;
      }
    }
  }
  fold = z;
}

}  // namespace

void detail::AsymmetryFolds::reset() {
  std::vector<TercileFold> checkpoints = std::move(checkpoints_);
  checkpoints.clear();
  *this = AsymmetryFolds{};
  checkpoints_ = std::move(checkpoints);
}

void detail::AsymmetryFolds::run(std::span<const double> a,
                                 std::span<const double> w, double total_w,
                                 double max_w, std::size_t frontier,
                                 double sample_rate_hz,
                                 const TimingConfig& config,
                                 SegmentTiming& out) {
  const std::size_t n = a.size();
  AF_ASSERT(w.size() == n && frontier <= n && frontier >= frontier_,
            "asymmetry folds: frontier moved backwards");
  frontier_ = frontier;
  if (total_w <= 0.0) return;

  // Folds `saved` (the fold of [begin, saved.end), valid while `same`
  // holds) up to the frontier and returns it extended over the live tail.
  const auto resume = [&](auto& saved, bool same, std::size_t begin,
                          const auto& fold) {
    if (!same) saved = {{}, begin};
    fold(saved.end, frontier, saved.state);
    saved.end = std::max(saved.end, frontier);
    auto state = saved.state;
    fold(saved.end, n, state);
    return state;
  };

  // Differential-energy terciles. Membership is monotone (see below()),
  // so the first tercile is a prefix and the last a suffix of the
  // weighted samples; the middle one is never read.
  constexpr std::size_t K = kCheckpointEvery;
  while ((checkpoints_.size() + 1) * K <= frontier) {
    TercileFold fold = checkpoints_.empty() ? TercileFold{}
                                            : checkpoints_.back();
    fold_tercile(a, w, checkpoints_.size() * K, (checkpoints_.size() + 1) * K,
                 fold);
    checkpoints_.push_back(fold);
  }
  // The last checkpoint still below `bound` (a true-prefix predicate
  // over the checkpoints, searched from the last run's answer): every
  // weighted sample before it lies in the bin, and the scan resumes there.
  const auto resume_below = [&](double bound, std::size_t& hint,
                                std::size_t& from, TercileFold& fold) {
    std::size_t k = std::min(hint, checkpoints_.size());
    while (k > 0 && !below(checkpoints_[k - 1].w, total_w, bound)) --k;
    while (k < checkpoints_.size() && below(checkpoints_[k].w, total_w, bound))
      ++k;
    hint = k;
    from = k * K;
    fold = k == 0 ? TercileFold{} : checkpoints_[k - 1];
  };
  std::size_t from = 0;
  TercileFold first;
  resume_below(kFirstTercile, first_hint_, from, first);
  const std::size_t first_end =
      fold_tercile_below(a, w, from, total_w, kFirstTercile, first);
  TercileFold middle;
  resume_below(kLastTercile, last_hint_, from, middle);
  if (first_end > from) {
    from = first_end;
    middle = first;
  }
  const std::size_t last_begin =
      fold_tercile_below(a, w, from, total_w, kLastTercile, middle);
  const TercileFold last =
      resume(last_, last_begin == last_begin_, last_begin,
             [&](std::size_t i, std::size_t to, TercileFold& f) {
               fold_tercile(a, w, i, to, f);
             });
  last_begin_ = last_begin;
  if (first.w > 0.0 && last.w > 0.0) {
    out.asymmetry_start = first.aw / first.w;
    out.asymmetry_end = last.aw / last.w;
    out.asymmetry_delta = out.asymmetry_end - out.asymmetry_start;
    // Transit time: between the weight-centroid times of the first and
    // last terciles, scaled to the full traversal (the terciles span
    // the middle ~2/3 of the differential mass).
    const double t0 = first.tw / first.w;
    const double t2 = last.tw / last.w;
    out.transition_s = 1.5 * std::max(0.0, t2 - t0) / sample_rate_hz;
  }

  // Reversal count over the differential-gated A path: only samples
  // carrying real differential weight contribute; direction changes
  // must retrace more than the hysteresis to count. A monotone sweep
  // (scroll) has 0 reversals; cyclic gestures (rub, circle) whose A
  // returns towards its start have >= 1. Both scans resume from their
  // frontier state while the thresholds they ran at keep their bits.
  const double gate = max_w * config.gate_fraction;
  const RangeFold range =
      resume(range_, same_bits(gate, range_gate_), 0,
             [&](std::size_t i, std::size_t to, RangeFold& f) {
               fold_range(a, w, i, to, gate, f);
             });
  range_gate_ = gate;
  out.asymmetry_range = range.started ? range.hi - range.lo : 0.0;

  const double hysteresis = std::max(
      config.reversal_abs, config.reversal_rel * out.asymmetry_range);
  const ZigzagFold zigzag = resume(
      zigzag_,
      same_bits(gate, zigzag_gate_) &&
          same_bits(hysteresis, zigzag_hysteresis_),
      0, [&](std::size_t i, std::size_t to, ZigzagFold& f) {
        fold_zigzag(a, w, i, to, gate, hysteresis, f);
      });
  zigzag_gate_ = gate;
  zigzag_hysteresis_ = hysteresis;
  out.asymmetry_reversals = zigzag.reversals;
}

SegmentTiming segment_timing(std::span<const std::span<const double>> windows,
                             double sample_rate_hz,
                             const TimingConfig& config) {
  common::ScratchArena arena;
  return segment_timing(windows, sample_rate_hz, config, arena);
}

}  // namespace airfinger::core
