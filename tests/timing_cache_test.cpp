// Locks the incremental open-segment timing cache (DESIGN.md §16): the
// OpenSegmentTiming cache must reproduce the batch segment_timing() bit for
// bit at every prefix length, whatever its refresh cadence, moving-average
// width or SIMD tier, and its streaming noise-floor quantile must equal the
// sorted-copy quantile.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "core/ascending.hpp"
#include "core/timing_cache.hpp"
#include "dsp/filters.hpp"
#include "simd_tiers.hpp"

namespace {

using namespace airfinger;

// Exact bit equality: the invariant is "same bits", not "close".
void expect_bits(double a, double b, const char* what) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  EXPECT_EQ(ba, bb) << what << ": " << a << " vs " << b;
}

void expect_timing_equal(const core::SegmentTiming& a,
                         const core::SegmentTiming& b, std::size_t n) {
  SCOPED_TRACE("window length " + std::to_string(n));
  ASSERT_EQ(a.active.size(), b.active.size());
  for (std::size_t c = 0; c < a.active.size(); ++c)
    EXPECT_EQ(a.active[c], b.active[c]);
  EXPECT_EQ(a.first_active, b.first_active);
  expect_bits(a.asymmetry_start, b.asymmetry_start, "asymmetry_start");
  expect_bits(a.asymmetry_end, b.asymmetry_end, "asymmetry_end");
  expect_bits(a.asymmetry_delta, b.asymmetry_delta, "asymmetry_delta");
  expect_bits(a.transition_s, b.transition_s, "transition_s");
  expect_bits(a.asymmetry_range, b.asymmetry_range, "asymmetry_range");
  EXPECT_EQ(a.asymmetry_reversals, b.asymmetry_reversals);
}

// The incremental open-segment cache must reproduce the batch
// segment_timing() bit for bit at every prefix length, across several
// signal shapes (sequential humps like a scroll, overlapping humps like a
// click, and plain noise).
TEST(OpenSegmentTiming, IncrementalMatchesBatchAtEveryLength) {
  constexpr std::size_t kChannels = 3;
  constexpr double kRate = 100.0;
  const core::TimingConfig config;

  std::mt19937_64 rng(31337);
  std::uniform_real_distribution<double> noise(0.0, 0.35);
  for (int shape = 0; shape < 3; ++shape) {
    const std::size_t total = 140 + static_cast<std::size_t>(shape) * 23;
    std::vector<std::vector<double>> channels(kChannels,
                                              std::vector<double>(total));
    for (std::size_t c = 0; c < kChannels; ++c) {
      const double centre =
          shape == 0 ? (0.25 + 0.25 * static_cast<double>(c)) *
                           static_cast<double>(total)  // sequential (scroll)
          : shape == 1 ? 0.5 * static_cast<double>(total)  // common (click)
                       : -100.0;                           // noise only
      for (std::size_t i = 0; i < total; ++i) {
        const double d = (static_cast<double>(i) - centre) / 9.0;
        channels[c][i] = 40.0 * std::exp(-0.5 * d * d) + noise(rng);
      }
    }

    core::OpenSegmentTiming cache;
    cache.configure(kChannels, kRate, config);
    cache.begin_segment();
    common::ScratchArena batch_arena;
    double frame[kChannels];
    std::vector<std::span<const double>> windows(kChannels);
    for (std::size_t n = 1; n <= total; ++n) {
      for (std::size_t c = 0; c < kChannels; ++c) frame[c] = channels[c][n - 1];
      cache.append({frame, kChannels});
      // Probe at several prefix lengths, including consecutive ones (the
      // streaming cadence) and after skipped appends (lazy advance).
      if (n % 7 != 0 && n != total) continue;
      for (std::size_t c = 0; c < kChannels; ++c)
        windows[c] = std::span<const double>(channels[c].data(), n);
      const std::span<const std::span<const double>> w(windows);
      const auto incremental = cache.timing(w);
      const auto batch = core::segment_timing(w, kRate, config, batch_arena);
      expect_timing_equal(incremental, batch, n);
    }
  }
}

/// An adversarial window for order statistics: quantized noise (ties),
/// runs of exact zeros, constant stretches, a few negative values and one
/// huge outlier, over `total` samples.
std::vector<double> adversarial_window(std::size_t total, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> noise(0.0, 6.0);
  std::vector<double> out(total);
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t phase = (i / 50) % 5;
    if (phase == 1) {
      out[i] = 0.0;  // a run of exact zeros
    } else if (phase == 3) {
      out[i] = 2.5;  // a constant stretch
    } else {
      out[i] = std::round(noise(rng) * 4.0) / 4.0;  // heavy ties
      if (i % 97 == 13) out[i] = -out[i] - 0.25;
    }
  }
  out[total / 3] = 1e300;  // one huge outlier
  return out;
}

// The cache's noise-floor quantile (two heaps) must equal
// common::quantile_sorted over a sorted copy of the same prefix, bit for
// bit, at every prefix length — including across a reset that reuses the
// heaps' capacity.
TEST(OpenSegmentTiming, StreamingQuantileMatchesSortedOracle) {
  constexpr std::size_t kTotal = 1100;
  const std::vector<double> values = adversarial_window(kTotal, 77);
  core::StreamingQuantile floor;
  for (const double q :
       {0.0, core::AscendingConfig{}.floor_quantile, 0.2, 0.5, 0.95, 1.0}) {
    SCOPED_TRACE("q = " + std::to_string(q));
    floor.reset(q);
    std::vector<double> sorted;
    for (std::size_t n = 1; n <= kTotal; ++n) {
      const double v = values[n - 1];
      floor.push(v);
      sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), v), v);
      ASSERT_EQ(floor.size(), n);
      expect_bits(floor.value(), common::quantile_sorted(sorted, q),
                  ("prefix " + std::to_string(n)).c_str());
    }
  }
}

// The cache must also agree with the batch analysis over long windows
// whose noise floor sits in ties, zero runs and constant stretches. The
// outlier is swapped for a per-channel hump in scroll order, so channels
// turn active one by one and the asymmetry path sweeps.
TEST(OpenSegmentTiming, LongAdversarialWindowMatchesBatch) {
  constexpr std::size_t kChannels = 3;
  constexpr std::size_t kTotal = 1100;
  constexpr double kRate = 100.0;
  const core::TimingConfig config;
  std::vector<std::vector<double>> channels;
  for (std::size_t c = 0; c < kChannels; ++c) {
    channels.push_back(adversarial_window(kTotal, 500 + c));
    auto& ch = channels.back();
    const double centre = 300.0 + 250.0 * static_cast<double>(c);
    for (std::size_t i = 0; i < kTotal; ++i) {
      const double d = (static_cast<double>(i) - centre) / 20.0;
      ch[i] = std::fabs(ch[i]) + 60.0 * std::exp(-0.5 * d * d);
    }
    ch[kTotal / 3] = 3.0;
  }

  core::OpenSegmentTiming cache;
  cache.configure(kChannels, kRate, config);
  common::ScratchArena batch_arena;
  double frame[kChannels];
  std::vector<std::span<const double>> windows(kChannels);
  for (std::size_t n = 1; n <= kTotal; ++n) {
    for (std::size_t c = 0; c < kChannels; ++c) frame[c] = channels[c][n - 1];
    cache.append({frame, kChannels});
    for (std::size_t c = 0; c < kChannels; ++c)
      windows[c] = std::span<const double>(channels[c].data(), n);
    const std::span<const std::span<const double>> w(windows);
    const auto incremental = cache.timing(w);
    const auto batch = core::segment_timing(w, kRate, config, batch_arena);
    expect_timing_equal(incremental, batch, n);
  }
}

/// The batch asymmetry inputs the cache's resume decisions hinge on,
/// recomputed on the test side. Used only to prove that the scenarios
/// below reach every resume case; the bits themselves are checked against
/// segment_timing().
struct FoldInputs {
  double esum_peak = 0.0;
  double total_w = 0.0;
  double gate = 0.0;
  double range = 0.0;
  double hysteresis = 0.0;
  std::size_t first_end = 0;  ///< First weighted sample past tercile 1.
};

FoldInputs fold_inputs(std::span<const std::span<const double>> windows,
                       double rate, const core::TimingConfig& config) {
  const std::size_t n = windows.front().size();
  const auto width = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(config.asymmetry_smooth_s * rate)));
  const std::vector<double> e1 = dsp::moving_average(windows.front(), width);
  const std::vector<double> e3 = dsp::moving_average(windows.back(), width);
  std::vector<double> esum(n, 0.0);
  for (const auto& x : windows) {
    const std::vector<double> e = dsp::moving_average(x, width);
    for (std::size_t i = 0; i < n; ++i) esum[i] += e[i];
  }
  FoldInputs f;
  for (const double v : esum) f.esum_peak = std::max(f.esum_peak, v);
  const double eps = std::max(f.esum_peak * config.epsilon_fraction, 1e-12);
  const double energy_gate = f.esum_peak * config.energy_gate_fraction;
  std::vector<double> a(n), w(n);
  double max_w = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = (e3[i] - e1[i]) / (esum[i] + eps);
    w[i] = esum[i] > energy_gate ? std::fabs(e3[i] - e1[i]) : 0.0;
    f.total_w += w[i];
    max_w = std::max(max_w, w[i]);
  }
  f.gate = max_w * config.gate_fraction;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (std::size_t i = 0; i < n; ++i) {
    if (w[i] <= f.gate) continue;
    lo = std::min(lo, a[i]);
    hi = std::max(hi, a[i]);
  }
  f.range = hi >= lo ? hi - lo : 0.0;
  f.hysteresis =
      std::max(config.reversal_abs, config.reversal_rel * f.range);
  double cum = 0.0;
  f.first_end = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (w[i] == 0.0) continue;
    if (!(cum / f.total_w < 1.0 / 3.0)) {
      f.first_end = i;
      break;
    }
    cum += w[i];
  }
  return f;
}

/// How often consecutive refreshes hit each resume case of the cache.
struct ResumeCoverage {
  int rebuild = 0;              ///< The summed-energy peak moved.
  int gate_change = 0;          ///< Same peak, the reversal gate moved.
  int hysteresis_crossing = 0;  ///< Same gate, hysteresis moved as the
                                ///< range crossed reversal_abs/rel.
  int hysteresis_above = 0;     ///< Same gate, hysteresis moved above it.
  int range_below = 0;          ///< Same gate, range moved under it
                                ///< (hysteresis kept its bits).
  int first_end_left = 0;       ///< Same peak, total_w fell and the first
                                ///< tercile's end moved left.

  void record(const FoldInputs& prev, const FoldInputs& cur,
              const core::TimingConfig& config) {
    using core::detail::same_bits;
    if (!same_bits(prev.esum_peak, cur.esum_peak)) {
      ++rebuild;
      return;
    }
    if (cur.total_w < prev.total_w && cur.first_end < prev.first_end)
      ++first_end_left;
    if (!same_bits(prev.gate, cur.gate)) {
      ++gate_change;
      return;
    }
    const double knee = config.reversal_abs / config.reversal_rel;
    const bool below_prev = prev.range < knee, below_cur = cur.range < knee;
    if (!same_bits(prev.hysteresis, cur.hysteresis)) {
      if (below_prev != below_cur) ++hysteresis_crossing;
      if (!below_prev && !below_cur) ++hysteresis_above;
    } else if (below_prev && below_cur &&
               !same_bits(prev.range, cur.range)) {
      ++range_below;
    }
  }
};

/// Three-channel test windows, `total` samples each, of a given shape.
std::vector<std::vector<double>> scenario(int shape, std::size_t total) {
  std::mt19937_64 rng(9001 + static_cast<std::uint64_t>(shape));
  std::uniform_real_distribution<double> noise(0.0, 0.4);
  std::vector<std::vector<double>> ch(3, std::vector<double>(total));
  const auto hump = [](double i, double centre, double width) {
    const double d = (i - centre) / width;
    return std::exp(-0.5 * d * d);
  };
  for (std::size_t i = 0; i < total; ++i) {
    const double t = static_cast<double>(i);
    double v[3] = {0.0, 0.0, 0.0};
    switch (shape) {
      case 0:  // scroll: the finger lights P1, P2, P3 in turn
        for (int c = 0; c < 3; ++c) v[c] = 40.0 * hump(t, 60.0 + 35.0 * c, 14.0);
        break;
      case 1:  // rub: the energy swings between the outer channels
        v[0] = 30.0 * (1.0 + std::sin(t / 9.0)) * hump(t, 120.0, 60.0);
        v[2] = 30.0 * (1.0 - std::sin(t / 9.0)) * hump(t, 120.0, 60.0);
        v[1] = 20.0 * hump(t, 120.0, 60.0);
        break;
      case 2:  // click: common-mode, a slight lean that grows late
        for (int c = 0; c < 3; ++c) v[c] = 35.0 * hump(t, 90.0, 12.0);
        v[2] += 6.0 * hump(t, 150.0, 25.0);
        break;
      case 3:  // plateau cut off sharply, then a late reverse sweep
        v[0] = t < 110.0 ? 30.0 * hump(t, 70.0, 30.0) : 0.0;
        v[1] = t < 110.0 ? 25.0 : 0.0;
        v[2] = 8.0 * hump(t, 60.0, 20.0) + 20.0 * hump(t, 180.0, 18.0);
        break;
      default:  // adversarial floor: ties, zero runs, negatives, a sweep
        break;
    }
    for (int c = 0; c < 3; ++c) ch[c][i] = v[c] + noise(rng);
  }
  if (shape == 4) {
    for (std::size_t c = 0; c < 3; ++c) {
      ch[c] = adversarial_window(total, 700 + c);
      for (std::size_t i = 0; i < total; ++i)
        ch[c][i] = std::fabs(ch[c][i]) +
                   50.0 * hump(static_cast<double>(i),
                               70.0 + 60.0 * static_cast<double>(c), 16.0);
      ch[c][total / 3] = 3.0;
    }
  }
  return ch;
}

// Cache vs batch bit equality at every prefix length, for every SIMD tier
// (the batch smoothing runs the tier's kernel, the cache its running sums),
// for moving-average widths 1, 15 and 16 (odd and even half-widths, and no
// smoothing at all), refreshing on every frame and on every 7th frame. The
// scenarios are checked to reach every resume case of the asymmetry folds.
TEST(OpenSegmentTiming, MatchesBatchAtEveryPrefixUnderEveryTier) {
  constexpr double kRate = 100.0;
  constexpr std::size_t kTotal = 240;
  const test::TierGuard guard;
  const std::vector<simd::Tier> tiers = test::available_tiers();
  for (const double smooth_s : {0.01, 0.15, 0.16}) {
    core::TimingConfig config;
    config.asymmetry_smooth_s = smooth_s;
    SCOPED_TRACE("asymmetry_smooth_s " + std::to_string(smooth_s));
    ResumeCoverage coverage;
    for (int shape = 0; shape < 5; ++shape) {
      SCOPED_TRACE("shape " + std::to_string(shape));
      const auto channels = scenario(shape, kTotal);
      for (const std::size_t every : {std::size_t{1}, std::size_t{7}}) {
        SCOPED_TRACE("refresh every " + std::to_string(every));
        for (const simd::Tier tier : tiers) {
          SCOPED_TRACE(simd::tier_name(tier));
          ASSERT_TRUE(simd::set_tier(tier));
          const bool count = every == 1 && tier == tiers.front();
          core::OpenSegmentTiming cache;
          cache.configure(3, kRate, config);
          common::ScratchArena arena;
          std::vector<std::span<const double>> windows(3);
          FoldInputs prev;
          for (std::size_t n = 1; n <= kTotal; ++n) {
            const double frame[3] = {channels[0][n - 1], channels[1][n - 1],
                                     channels[2][n - 1]};
            cache.append(frame);
            if (n % every != 0) continue;
            for (std::size_t c = 0; c < 3; ++c)
              windows[c] = std::span<const double>(channels[c].data(), n);
            const std::span<const std::span<const double>> w(windows);
            expect_timing_equal(cache.timing(w),
                                core::segment_timing(w, kRate, config, arena),
                                n);
            if (count && n >= 8) {
              const FoldInputs cur = fold_inputs(w, kRate, config);
              if (n > 8) coverage.record(prev, cur, config);
              prev = cur;
            }
          }
        }
      }
    }
    if (smooth_s > 0.1) {
      // A width-1 average has no live tail, so only the smoothed widths
      // can revise weights; both must reach every resume case.
      EXPECT_GT(coverage.rebuild, 0);
      EXPECT_GT(coverage.gate_change, 0);
      EXPECT_GT(coverage.hysteresis_crossing, 0);
      EXPECT_GT(coverage.hysteresis_above, 0);
      EXPECT_GT(coverage.range_below, 0);
      EXPECT_GT(coverage.first_end_left, 0);
    }
  }
}

}  // namespace
