// SIMD kernel layer: runtime-dispatched vector kernels for the
// dsp/features/ml hot path (DESIGN.md §15).
//
// The layer is a table of function pointers (`Kernels`) resolved once at
// startup from the best tier the CPU supports (scalar / SSE2 / AVX2 on
// x86-64, NEON on aarch64). Call sites fetch the table via kernels() and
// never branch on the architecture themselves.
//
// Exactness contract: every kernel is BIT-IDENTICAL to the scalar
// reference implementation on every tier. The vector variants achieve
// this by laning across *independent outputs* (moving-average positions,
// ACF lags, CWT output samples, Goertzel frequencies, trees) so each lane
// reproduces the scalar accumulation order, or by counting integers
// (entropy matches, peaks), which is order-free. No backend is compiled with FMA, so mul+add sequences cannot
// be contracted. The scalar table entries ARE the reference: the former
// open-coded loops in dsp/ and features/ moved here verbatim.
//
// Thread safety: kernels() is safe to call concurrently. set_tier() is a
// test hook; call it only while no other thread is inside a kernel.
#pragma once

#include <cstddef>
#include <cstdint>

namespace airfinger::simd {

enum class Tier : std::uint8_t { kScalar = 0, kSSE2, kAVX2, kNEON };

/// Lower-case tier name ("scalar", "sse2", "avx2", "neon").
const char* tier_name(Tier tier);

struct Kernels {
  Tier tier = Tier::kScalar;

  /// acc[i] += x[i] for i in [0, n).
  void (*accumulate)(double* acc, const double* x, std::size_t n);

  /// Centred moving average of window w over x[0..n): writes out[i] for
  /// i in [from, to) only (out must be sized n). Edges use the available
  /// neighbourhood; each output accumulates its window left to right.
  void (*moving_average_range)(const double* x, std::size_t n, std::size_t w,
                               std::size_t from, std::size_t to, double* out);

  /// ACF numerators over the centred signal d: out[j] = sum_i d[i] *
  /// d[i + lag0 + j] for j in [0, count), i ascending per lag.
  void (*acf_numerators)(const double* d, std::size_t n, std::size_t lag0,
                         std::size_t count, double* out);

  /// Same-size clipped convolution (CWT row): out[i] = sum_k x[i + k -
  /// half] * w[k] over the taps k of the (2*half+1)-long kernel that land
  /// inside [0, n), k ascending.
  void (*conv_clipped)(const double* x, std::size_t n, const double* w,
                       std::size_t half, double* out);

  /// Sample-entropy pair count: templates of length m within Chebyshev
  /// tolerance r, self-matches excluded (j > i).
  std::size_t (*count_matches)(const double* x, std::size_t n, std::size_t m,
                               double r);

  /// Approximate-entropy phi(m): mean over templates i of log(C_i /
  /// templates) where C_i counts all j (self included) within tolerance r.
  /// Requires n > m.
  double (*apen_phi)(const double* x, std::size_t n, std::size_t m, double r);

  /// Fused SampEn/ApEn pair sweep: one pass over ordered template pairs
  /// (i < j) of length m yields the SampEn totals for m and m+1
  /// (pairs_m / pairs_m1) and the ApEn per-template neighbour counts
  /// with the self-match included (cm sized n-m+1, cm1 sized n-m). A
  /// length-(m+1) match is a length-m match whose final offset is also
  /// within r, counted only while both templates fit. Every output is
  /// an integer, hence order-free and exactly equal on every tier to
  /// what count_matches(m), count_matches(m+1), and apen_phi's inner
  /// counts would produce. Requires n > m + 1.
  void (*entropy_counts)(const double* x, std::size_t n, std::size_t m,
                         double r, std::uint32_t* cm, std::uint32_t* cm1,
                         std::size_t* pairs_m, std::size_t* pairs_m1);

  /// Peaks strictly above their `support` neighbours on both sides.
  std::size_t (*count_peaks)(const double* x, std::size_t n,
                             std::size_t support);

  /// k Goertzel recurrences over the same window, one lane per frequency:
  /// s0 = (x[i] + coeff*s1) - s2. Final states land in s1/s2 (size k).
  void (*goertzel_batch)(const double* x, std::size_t n, const double* coeff,
                         std::size_t k, double* s1, double* s2);

  /// One radix-2 FFT stage over n complex values stored as interleaved
  /// (re, im) doubles: for every block of `len` values, butterflies
  /// u' = u + v*w, v' = u - v*w with the len/2 precomputed twiddles in
  /// `tw` (interleaved re, im). Requires len >= 2 and len | n.
  void (*fft_stage)(double* reim, std::size_t n, std::size_t len,
                    const double* tw);

  /// Batched forest descent: idx[t] holds the root node of tree t on
  /// entry and its reached leaf on exit. Nodes are the CompiledForest SoA
  /// arrays (feature < 0 marks a leaf; right child = child + 1; descend
  /// left iff x[feature] < threshold, NaN routing right like the scalar
  /// ternary).
  void (*forest_leaves)(const std::int32_t* feature, const double* threshold,
                        const std::int32_t* child, const double* x,
                        std::int32_t* idx, std::size_t count);
};

/// The active kernel table. First call resolves the tier: the best the
/// CPU supports.
const Kernels& kernels();

/// Tier of the active table.
Tier active_tier();

/// Best tier this build + CPU supports, ignoring set_tier().
Tier detected_tier();

/// Forces the active table (test hook). Returns false — leaving the
/// table unchanged — when the tier is not compiled in or the CPU lacks it.
bool set_tier(Tier tier);

}  // namespace airfinger::simd
