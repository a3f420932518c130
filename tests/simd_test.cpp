// Locks the SIMD kernel-layer contract (DESIGN.md §15): every kernel is
// bit-identical to the scalar reference on every tier this build + CPU
// supports, across awkward lengths (1..17 and a few larger ones) that
// exercise lane-group tails and edges; and the public call sites that
// batch work (goertzel_magnitudes, batched forest traversal,
// FeatureBank extraction, partial moving-average updates) match their
// one-at-a-time references bit for bit.
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.hpp"
#include "common/simd.hpp"
#include "dsp/autocorr.hpp"
#include "dsp/fft.hpp"
#include "dsp/filters.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/wavelet.hpp"
#include "features/bank.hpp"
#include "features/measures.hpp"
#include "ml/compiled_forest.hpp"
#include "ml/random_forest.hpp"
#include "simd_tiers.hpp"

namespace {

using namespace airfinger;
using test::available_tiers;
using test::TierGuard;

void expect_bits(double a, double b, const std::string& what) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  EXPECT_EQ(ba, bb) << what << ": " << a << " vs " << b;
}

const std::vector<std::size_t>& awkward_lengths() {
  static const std::vector<std::size_t> lengths = [] {
    std::vector<std::size_t> v;
    for (std::size_t n = 1; n <= 17; ++n) v.push_back(n);
    v.push_back(96);
    v.push_back(255);
    v.push_back(301);
    return v;
  }();
  return lengths;
}

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  std::vector<double> x(n);
  for (auto& v : x) v = value(rng);
  return x;
}

/// Runs `kernel_call` under every available tier and bit-compares each
/// result vector against the scalar tier's.
template <typename Fn>
void expect_tiers_match(const std::string& what, Fn kernel_call) {
  TierGuard guard;
  ASSERT_TRUE(simd::set_tier(simd::Tier::kScalar));
  const std::vector<double> reference = kernel_call();
  for (const simd::Tier tier : available_tiers()) {
    ASSERT_TRUE(simd::set_tier(tier));
    const std::vector<double> got = kernel_call();
    ASSERT_EQ(reference.size(), got.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      expect_bits(reference[i], got[i],
                  what + " tier=" + simd::tier_name(tier) + " [" +
                      std::to_string(i) + "]");
  }
}

TEST(SimdDispatch, TierOverrideAndDetection) {
  TierGuard guard;
  // Scalar is always available, and the active table reports its tier.
  ASSERT_TRUE(simd::set_tier(simd::Tier::kScalar));
  EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
  EXPECT_STREQ(simd::tier_name(simd::Tier::kScalar), "scalar");
  // The detected tier must itself be activatable.
  EXPECT_TRUE(simd::set_tier(simd::detected_tier()));
  EXPECT_EQ(simd::active_tier(), simd::detected_tier());
#if defined(__x86_64__) || defined(_M_X64)
  // SSE2 is part of the x86-64 baseline.
  EXPECT_TRUE(simd::set_tier(simd::Tier::kSSE2));
  EXPECT_FALSE(simd::set_tier(simd::Tier::kNEON));
#endif
}

TEST(SimdKernels, AccumulateBitIdenticalAcrossTiers) {
  for (const std::size_t n : awkward_lengths()) {
    const std::vector<double> x = random_signal(n, 11 + n);
    const std::vector<double> acc0 = random_signal(n, 23 + n);
    expect_tiers_match("accumulate n=" + std::to_string(n), [&] {
      std::vector<double> acc = acc0;
      simd::kernels().accumulate(acc.data(), x.data(), n);
      return acc;
    });
  }
}

TEST(SimdKernels, MovingAverageBitIdenticalAcrossTiers) {
  for (const std::size_t n : awkward_lengths()) {
    const std::vector<double> x = random_signal(n, 31 + n);
    for (const std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{7}, std::size_t{22},
                                std::size_t{31}, std::size_t{200}}) {
      expect_tiers_match(
          "moving_average n=" + std::to_string(n) + " w=" + std::to_string(w),
          [&] {
            std::vector<double> out(n);
            dsp::moving_average_into(x, w, out);
            return out;
          });
    }
  }
}

TEST(SimdKernels, MovingAverageRangeMatchesFullPass) {
  // A partial update over [from, n) must write exactly the bits a full
  // pass writes at those positions — the streaming timing cache depends
  // on this.
  const std::size_t n = 97;
  const std::vector<double> x = random_signal(n, 71);
  for (const std::size_t w :
       {std::size_t{3}, std::size_t{9}, std::size_t{33}}) {
    std::vector<double> full(n);
    dsp::moving_average_into(x, w, full);
    for (const std::size_t from : {std::size_t{0}, std::size_t{1},
                                   std::size_t{40}, std::size_t{96},
                                   std::size_t{97}}) {
      std::vector<double> partial(n, -1000.0);
      dsp::moving_average_range_into(x, w, from, partial);
      for (std::size_t i = from; i < n; ++i)
        expect_bits(full[i], partial[i],
                    "range w=" + std::to_string(w) +
                        " from=" + std::to_string(from) + " i=" +
                        std::to_string(i));
      for (std::size_t i = 0; i < from; ++i)
        EXPECT_EQ(partial[i], -1000.0) << "wrote before from";
    }
  }
}

TEST(SimdKernels, AcfBitIdenticalAcrossTiersAndAgainstLegacy) {
  for (const std::size_t n : awkward_lengths()) {
    const std::vector<double> x = random_signal(n, 43 + n);
    const std::size_t max_lag = n + 2;  // deliberately beyond n
    expect_tiers_match("acf n=" + std::to_string(n), [&] {
      std::vector<double> out(max_lag + 1);
      common::ScratchArena arena;
      dsp::acf_into(x, arena, out);
      return out;
    });
    // The hoisted arena overload must match the per-lag reference exactly.
    std::vector<double> legacy(max_lag + 1);
    dsp::acf_into(x, legacy);
    std::vector<double> hoisted(max_lag + 1);
    common::ScratchArena arena;
    dsp::acf_into(x, arena, hoisted);
    for (std::size_t k = 0; k <= max_lag; ++k)
      expect_bits(legacy[k], hoisted[k],
                  "acf legacy-vs-hoisted n=" + std::to_string(n) + " lag=" +
                      std::to_string(k));
  }
  // Zero-variance convention survives the hoisting.
  const std::vector<double> flat(32, 3.25);
  std::vector<double> out(5);
  common::ScratchArena arena;
  dsp::acf_into(flat, arena, out);
  EXPECT_EQ(out[0], 1.0);
  for (std::size_t k = 1; k < out.size(); ++k) EXPECT_EQ(out[k], 0.0);
}

TEST(SimdKernels, CwtConvolutionBitIdenticalAcrossTiers) {
  for (const std::size_t n : awkward_lengths()) {
    const std::vector<double> x = random_signal(n, 57 + n);
    for (const double a : {0.7, 2.0, 5.0, 10.0, 20.0}) {
      expect_tiers_match(
          "cwt n=" + std::to_string(n) + " a=" + std::to_string(a), [&] {
            std::vector<double> out(n);
            common::ScratchArena arena;
            dsp::cwt_row_into(x, a, arena, out);
            return out;
          });
    }
  }
}

TEST(SimdKernels, EntropiesBitIdenticalAcrossTiers) {
  for (const std::size_t n : awkward_lengths()) {
    if (n < 4) continue;
    const std::vector<double> x = random_signal(n, 77 + n);
    expect_tiers_match("entropies n=" + std::to_string(n), [&] {
      return std::vector<double>{features::sample_entropy(x),
                                 features::approximate_entropy(x)};
    });
  }
}

TEST(SimdKernels, FusedEntropyCountsMatchLegacyKernelsOnEveryTier) {
  TierGuard guard;
  constexpr std::size_t m = 2;
  const double r = 0.35;
  for (const std::size_t n : awkward_lengths()) {
    if (n <= m + 1) continue;  // kernel precondition
    const std::vector<double> x = random_signal(n, 505 + n);
    const std::size_t tm = n - m + 1;
    const std::size_t tm1 = n - m;

    // Independent references: the pair totals from the legacy
    // count_matches kernel, the per-template counts from a plain double
    // loop over ALL ordered (i, j) including the self-match.
    ASSERT_TRUE(simd::set_tier(simd::Tier::kScalar));
    const std::size_t want_pm = simd::kernels().count_matches(x.data(), n, m, r);
    const std::size_t want_pm1 =
        simd::kernels().count_matches(x.data(), n, m + 1, r);
    const auto cheb = [&](std::size_t i, std::size_t j, std::size_t mm) {
      for (std::size_t k = 0; k < mm; ++k)
        if (std::fabs(x[i + k] - x[j + k]) > r) return false;
      return true;
    };
    std::vector<std::uint32_t> want_cm(tm, 0), want_cm1(tm1, 0);
    for (std::size_t i = 0; i < tm; ++i)
      for (std::size_t j = 0; j < tm; ++j)
        if (cheb(i, j, m)) ++want_cm[i];
    for (std::size_t i = 0; i < tm1; ++i)
      for (std::size_t j = 0; j < tm1; ++j)
        if (cheb(i, j, m + 1)) ++want_cm1[i];

    for (const simd::Tier tier : available_tiers()) {
      ASSERT_TRUE(simd::set_tier(tier));
      std::vector<std::uint32_t> cm(tm), cm1(tm1);
      std::size_t pm = 0, pm1 = 0;
      simd::kernels().entropy_counts(x.data(), n, m, r, cm.data(), cm1.data(),
                                     &pm, &pm1);
      const std::string what =
          std::string("entropy_counts tier=") + simd::tier_name(tier) +
          " n=" + std::to_string(n);
      EXPECT_EQ(want_pm, pm) << what;
      EXPECT_EQ(want_pm1, pm1) << what;
      EXPECT_EQ(want_cm, cm) << what;
      EXPECT_EQ(want_cm1, cm1) << what;
    }
  }
}

TEST(SimdKernels, EntropyPairMatchesSeparateMeasuresBitExact) {
  common::ScratchArena arena;
  for (const std::size_t n : awkward_lengths()) {
    if (n < 4) continue;
    const std::vector<double> x = random_signal(n, 909 + n);
    // Across tiers, and against the separate legacy entry points, the
    // fused pair must reproduce the exact same bits.
    expect_tiers_match("entropy_pair n=" + std::to_string(n), [&] {
      const auto [sampen, apen] = features::entropy_pair(x, arena);
      return std::vector<double>{sampen, apen, features::sample_entropy(x),
                                 features::approximate_entropy(x)};
    });
    const auto [sampen, apen] = features::entropy_pair(x, arena);
    expect_bits(sampen, features::sample_entropy(x),
                "entropy_pair sampen n=" + std::to_string(n));
    expect_bits(apen, features::approximate_entropy(x),
                "entropy_pair apen n=" + std::to_string(n));
  }
}

TEST(SimdKernels, PeakCountsBitIdenticalAcrossTiers) {
  for (const std::size_t n : awkward_lengths()) {
    const std::vector<double> x = random_signal(n, 91 + n);
    expect_tiers_match("peaks n=" + std::to_string(n), [&] {
      std::vector<double> counts;
      for (const std::size_t s : {std::size_t{1}, std::size_t{3},
                                  std::size_t{5}})
        counts.push_back(static_cast<double>(dsp::count_peaks(x, s)));
      return counts;
    });
  }
}

TEST(SimdKernels, GoertzelBatchMatchesSingleBitIdentically) {
  TierGuard guard;
  const double rate = 1000.0;
  std::vector<double> frequencies;
  for (int f = 1; f <= 37; ++f) frequencies.push_back(12.5 * f);
  for (const std::size_t n : {std::size_t{16}, std::size_t{301}}) {
    const std::vector<double> x = random_signal(n, 101 + n);
    // Reference: the untouched one-frequency public routine.
    std::vector<double> single(frequencies.size());
    for (std::size_t f = 0; f < frequencies.size(); ++f)
      single[f] = dsp::goertzel_magnitude(x, frequencies[f], rate);
    for (const simd::Tier tier : available_tiers()) {
      ASSERT_TRUE(simd::set_tier(tier));
      std::vector<double> batched(frequencies.size());
      dsp::goertzel_magnitudes(x, frequencies, rate, batched);
      for (std::size_t f = 0; f < frequencies.size(); ++f)
        expect_bits(single[f], batched[f],
                    std::string("goertzel tier=") + simd::tier_name(tier) +
                        " f=" + std::to_string(f));
    }
  }
}

TEST(SimdKernels, FftBitIdenticalAcrossTiers) {
  // 4096 crosses the stack-twiddle cap (stage half > 512), exercising the
  // legacy serial-chain fallback next to kernel-driven stages.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8},
        std::size_t{64}, std::size_t{256}, std::size_t{1024},
        std::size_t{4096}}) {
    const std::vector<double> x = random_signal(n, 113 + n);
    expect_tiers_match("fft n=" + std::to_string(n), [&] {
      std::vector<std::complex<double>> buf(n);
      for (std::size_t i = 0; i < n; ++i) buf[i] = {x[i], 0.0};
      dsp::fft_inplace(buf);
      std::vector<double> flat;
      flat.reserve(2 * n);
      for (const auto& c : buf) {
        flat.push_back(c.real());
        flat.push_back(c.imag());
      }
      return flat;
    });
  }
}

ml::SampleSet make_training_set(std::size_t rows, std::size_t cols,
                                int classes, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  ml::SampleSet set;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> row(cols);
    for (auto& v : row) v = value(rng);
    double s = 0.0;
    for (std::size_t c = 0; c < cols; c += 2) s += row[c];
    const int label = std::min(
        classes - 1, std::max(0, static_cast<int>(s + classes / 2.0)));
    set.features.push_back(std::move(row));
    set.labels.push_back(label);
  }
  for (int k = 0; k < classes; ++k)
    set.labels[static_cast<std::size_t>(k)] = k;
  return set;
}

TEST(SimdKernels, BatchedForestBitIdenticalAcrossTiersAndToReference) {
  constexpr std::size_t kCols = 12;
  ml::RandomForestConfig config;
  config.num_trees = 70;  // > one traversal chunk, with a lane-group tail
  config.seed = 99;
  ml::RandomForest forest(config);
  forest.fit(make_training_set(160, kCols, 4, 7));
  const ml::CompiledForest compiled(forest);
  ASSERT_TRUE(compiled.compiled());

  TierGuard guard;
  std::mt19937_64 rng(123);
  std::uniform_real_distribution<double> value(-3.0, 3.0);
  std::vector<double> x(kCols);
  std::vector<double> proba(compiled.num_classes());
  for (int trial = 0; trial < 100; ++trial) {
    for (auto& v : x) v = value(rng);
    const std::vector<double> ref = forest.predict_proba(x);
    for (const simd::Tier tier : available_tiers()) {
      ASSERT_TRUE(simd::set_tier(tier));
      compiled.predict_proba_into(x, proba);
      for (std::size_t c = 0; c < ref.size(); ++c)
        expect_bits(ref[c], proba[c],
                    std::string("forest tier=") + simd::tier_name(tier));
    }
  }
}

TEST(SimdKernels, FeatureBankExtractionBitIdenticalAcrossTiers) {
  const features::FeatureBank bank;
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> value(0.0, 5.0);
  for (const std::size_t n : {std::size_t{24}, std::size_t{67},
                              std::size_t{160}}) {
    std::vector<std::vector<double>> channels(3, std::vector<double>(n));
    for (auto& ch : channels)
      for (auto& v : ch) v = value(rng);
    std::vector<std::span<const double>> windows(channels.begin(),
                                                 channels.end());
    const std::span<const std::span<const double>> span_windows(windows);
    expect_tiers_match("feature bank n=" + std::to_string(n),
                       [&] { return bank.extract(span_windows); });
  }
}

}  // namespace
