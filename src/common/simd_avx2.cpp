// AVX2 backend of the SIMD kernel layer (4 lanes).
//
// This translation unit alone is compiled with -mavx2 — deliberately NOT
// -mfma: with FMA available the compiler could contract the mul+add
// sequences in the generic templates into fused operations, which round
// once instead of twice and would break the bit-identity contract against
// the scalar reference. Runtime dispatch (simd.cpp) guarantees this code
// only runs on CPUs reporting AVX2.
//
// Beyond the generic templates, AVX2 supplies one kernel that needs its
// specific instructions: the radix-2 FFT stage (two complex butterflies
// per vector via addsub). Forest descent takes the shared 4-way
// software-interleaved walk (interleaved_forest_leaves), like SSE2 and
// NEON; see below for why AVX2 has no gather variant.
#include "common/simd.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "common/simd_kernels.inl"

namespace airfinger::simd::detail {

namespace {

struct Avx2Ops {
  static constexpr std::size_t kW = 4;
  using V = __m256d;
  static V load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V broadcast(double v) { return _mm256_set1_pd(v); }
  static V zero() { return _mm256_setzero_pd(); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V div(V a, V b) { return _mm256_div_pd(a, b); }
  static unsigned gt_mask(V a, V b) {
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_GT_OQ)));
  }
  static unsigned within_mask(V a, V b, V r) {
    const V diff = _mm256_sub_pd(a, b);
    const V magnitude = _mm256_andnot_pd(_mm256_set1_pd(-0.0), diff);
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(magnitude, r, _CMP_LE_OQ)));
  }
};

// One FFT stage, two interleaved complex values per 256-bit vector.
// Complex product (ar,ai)*(br,bi): even lanes ar*br - ai*bi via the
// subtract half of addsub, odd lanes ai*br + ar*bi via the add half —
// the same two products and one add/sub as the scalar reference (IEEE
// addition is commutative, so ai*br + ar*bi == ar*bi + ai*br bitwise).
void avx2_fft_stage(double* reim, std::size_t n, std::size_t len,
                    const double* tw) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    double* ub = reim + 2 * i;
    double* vb = reim + 2 * (i + half);
    std::size_t k = 0;
    for (; k + 2 <= half; k += 2) {
      const __m256d u = _mm256_loadu_pd(ub + 2 * k);
      const __m256d v = _mm256_loadu_pd(vb + 2 * k);
      const __m256d w = _mm256_loadu_pd(tw + 2 * k);
      const __m256d wr = _mm256_movedup_pd(w);       // (br0,br0,br1,br1)
      const __m256d wi = _mm256_permute_pd(w, 0xF);  // (bi0,bi0,bi1,bi1)
      const __m256d vs = _mm256_permute_pd(v, 0x5);  // (ai0,ar0,ai1,ar1)
      const __m256d vw =
          _mm256_addsub_pd(_mm256_mul_pd(v, wr), _mm256_mul_pd(vs, wi));
      _mm256_storeu_pd(ub + 2 * k, _mm256_add_pd(u, vw));
      _mm256_storeu_pd(vb + 2 * k, _mm256_sub_pd(u, vw));
    }
    for (; k < half; ++k)
      scalar_butterfly_one(ub + 2 * k, vb + 2 * k, tw[2 * k], tw[2 * k + 1]);
  }
}

// Forest descent deliberately has no gather variant. A masked
// _mm256_mask_i32gather_pd version was measured SLOWER than the serial
// scalar walk on this generation (each tree level chains four dependent
// gathers — feature, x, threshold, child — and the lane-group moves in
// lockstep at the deepest tree's depth). interleaved_forest_leaves keeps
// the walks in scalar registers and lets the out-of-order core overlap
// them instead; see simd_kernels.inl and DESIGN.md §15.

}  // namespace

const Kernels& avx2_table() {
  static const Kernels table = {
      Tier::kAVX2,
      &accumulate_v<Avx2Ops>,
      &moving_average_range_v<Avx2Ops>,
      &acf_numerators_v<Avx2Ops>,
      &conv_clipped_v<Avx2Ops>,
      &count_matches_v<Avx2Ops>,
      &apen_phi_v<Avx2Ops>,
      &entropy_counts_v<Avx2Ops>,
      &count_peaks_v<Avx2Ops>,
      &goertzel_batch_v<Avx2Ops>,
      &avx2_fft_stage,
      &interleaved_forest_leaves,
  };
  return table;
}

}  // namespace airfinger::simd::detail

#endif  // x86-64
