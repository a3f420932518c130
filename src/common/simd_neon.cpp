// NEON backend of the SIMD kernel layer (aarch64, 2 lanes).
//
// aarch64 has fused multiply-add in its baseline ISA and GCC defaults to
// -ffp-contract=fast there, so the *scalar reference* mul+add loops may
// already be compiled with fused operations. An intrinsics backend using
// separate vmulq/vaddq would then diverge from the reference by the
// intermediate rounding the fusion removed. Rather than fight the
// compiler's contraction choices per kernel, this table only registers
// vector kernels whose bit-identity cannot depend on contraction:
//
//   - accumulate, moving_average_range: additions only, nothing to fuse.
//   - count_matches, apen_phi, count_peaks: compare + integer
//     count; the subtraction inside the Chebyshev test is a lone sub.
//
// The mul+add kernels (acf_numerators, conv_clipped, goertzel_batch,
// fft_stage) keep the scalar reference — on NEON both "variants" are
// then the same code, trivially identical. DESIGN.md §15 records this
// caveat. forest_leaves takes the shared 4-way software-interleaved
// descent: it is pure integer/compare scalar ISA (no contraction
// hazard) and wins on ILP alone.
#include "common/simd.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "common/simd_kernels.inl"

namespace airfinger::simd::detail {

namespace {

struct NeonOps {
  static constexpr std::size_t kW = 2;
  using V = float64x2_t;
  static V load(const double* p) { return vld1q_f64(p); }
  static void store(double* p, V v) { vst1q_f64(p, v); }
  static V broadcast(double v) { return vdupq_n_f64(v); }
  static V zero() { return vdupq_n_f64(0.0); }
  static V add(V a, V b) { return vaddq_f64(a, b); }
  static V sub(V a, V b) { return vsubq_f64(a, b); }
  static V mul(V a, V b) { return vmulq_f64(a, b); }
  static V div(V a, V b) { return vdivq_f64(a, b); }
  static unsigned movemask(uint64x2_t m) {
    return static_cast<unsigned>(vgetq_lane_u64(m, 0) & 1u) |
           static_cast<unsigned>((vgetq_lane_u64(m, 1) & 1u) << 1);
  }
  static unsigned gt_mask(V a, V b) { return movemask(vcgtq_f64(a, b)); }
  static unsigned within_mask(V a, V b, V r) {
    return movemask(vcleq_f64(vabsq_f64(vsubq_f64(a, b)), r));
  }
};

}  // namespace

const Kernels& neon_table() {
  static const Kernels table = {
      Tier::kNEON,
      &accumulate_v<NeonOps>,
      &moving_average_range_v<NeonOps>,
      &scalar_acf_numerators,  // mul+add: contraction hazard, see header
      &scalar_conv_clipped,    // mul+add: contraction hazard
      &count_matches_v<NeonOps>,
      &apen_phi_v<NeonOps>,
      &entropy_counts_v<NeonOps>,
      &count_peaks_v<NeonOps>,
      &scalar_goertzel_batch,  // mul+add: contraction hazard
      &scalar_fft_stage,       // mul+add: contraction hazard
      &interleaved_forest_leaves,  // ILP descent, scalar ISA: no hazard
  };
  return table;
}

}  // namespace airfinger::simd::detail

#endif  // __aarch64__
