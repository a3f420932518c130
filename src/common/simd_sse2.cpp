// SSE2 backend of the SIMD kernel layer (x86-64 baseline, 2 lanes).
//
// Compiled without any extra ISA flags: SSE2 is part of the x86-64
// baseline, and crucially no FMA is available, so mul+add sequences in the
// templates cannot be contracted and stay bit-identical to the scalar
// reference. The FFT-stage kernel keeps the scalar implementation — a
// 2-lane complex multiply costs more shuffling than it saves — and
// forest descent uses the shared software-interleaved walk (gathers
// lose on every tier; see simd_kernels.inl).
#include "common/simd.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include "common/simd_kernels.inl"

namespace airfinger::simd::detail {

namespace {

struct Sse2Ops {
  static constexpr std::size_t kW = 2;
  using V = __m128d;
  static V load(const double* p) { return _mm_loadu_pd(p); }
  static void store(double* p, V v) { _mm_storeu_pd(p, v); }
  static V broadcast(double v) { return _mm_set1_pd(v); }
  static V zero() { return _mm_setzero_pd(); }
  static V add(V a, V b) { return _mm_add_pd(a, b); }
  static V sub(V a, V b) { return _mm_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm_mul_pd(a, b); }
  static V div(V a, V b) { return _mm_div_pd(a, b); }
  static unsigned gt_mask(V a, V b) {
    return static_cast<unsigned>(_mm_movemask_pd(_mm_cmpgt_pd(a, b)));
  }
  static unsigned within_mask(V a, V b, V r) {
    // |a - b| <= r; clearing the sign bit is exactly std::fabs, and the
    // ordered compare is false on NaN like the scalar <=.
    const V diff = _mm_sub_pd(a, b);
    const V magnitude = _mm_andnot_pd(_mm_set1_pd(-0.0), diff);
    return static_cast<unsigned>(_mm_movemask_pd(_mm_cmple_pd(magnitude, r)));
  }
};

}  // namespace

const Kernels& sse2_table() {
  static const Kernels table = {
      Tier::kSSE2,
      &accumulate_v<Sse2Ops>,
      &moving_average_range_v<Sse2Ops>,
      &acf_numerators_v<Sse2Ops>,
      &conv_clipped_v<Sse2Ops>,
      &count_matches_v<Sse2Ops>,
      &apen_phi_v<Sse2Ops>,
      &entropy_counts_v<Sse2Ops>,
      &count_peaks_v<Sse2Ops>,
      &goertzel_batch_v<Sse2Ops>,
      &scalar_fft_stage,
      &interleaved_forest_leaves,
  };
  return table;
}

}  // namespace airfinger::simd::detail

#endif  // x86-64
