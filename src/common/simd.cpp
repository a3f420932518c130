// Scalar reference table + runtime tier dispatch for the SIMD kernel
// layer (DESIGN.md §15).
#include "common/simd.hpp"

#include <atomic>

#include "common/simd_kernels.inl"

namespace airfinger::simd {

namespace detail {

const Kernels& scalar_table() {
  static const Kernels table = {
      Tier::kScalar,
      &scalar_accumulate,
      &scalar_moving_average_range,
      &scalar_acf_numerators,
      &scalar_conv_clipped,
      &scalar_count_matches,
      &scalar_apen_phi,
      &scalar_entropy_counts,
      &scalar_count_peaks,
      &scalar_goertzel_batch,
      &scalar_fft_stage,
      &scalar_forest_leaves,
  };
  return table;
}

#if defined(__x86_64__) || defined(_M_X64)
#define AF_SIMD_HAVE_X86 1
const Kernels& sse2_table();  // simd_sse2.cpp
const Kernels& avx2_table();  // simd_avx2.cpp
#else
#define AF_SIMD_HAVE_X86 0
#endif

#if defined(__aarch64__)
#define AF_SIMD_HAVE_NEON 1
const Kernels& neon_table();  // simd_neon.cpp
#else
#define AF_SIMD_HAVE_NEON 0
#endif

}  // namespace detail

namespace {

/// Table for a tier, or nullptr when the build or the CPU lacks it.
const Kernels* table_for(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return &detail::scalar_table();
    case Tier::kSSE2:
#if AF_SIMD_HAVE_X86
      return &detail::sse2_table();  // SSE2 is x86-64 baseline
#else
      return nullptr;
#endif
    case Tier::kAVX2:
#if AF_SIMD_HAVE_X86
      return __builtin_cpu_supports("avx2") ? &detail::avx2_table()
                                            : nullptr;
#else
      return nullptr;
#endif
    case Tier::kNEON:
#if AF_SIMD_HAVE_NEON
      return &detail::neon_table();  // NEON is aarch64 baseline
#else
      return nullptr;
#endif
  }
  return nullptr;
}

std::atomic<const Kernels*> g_active{nullptr};

}  // namespace

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSSE2:
      return "sse2";
    case Tier::kAVX2:
      return "avx2";
    case Tier::kNEON:
      return "neon";
  }
  return "scalar";
}

Tier detected_tier() {
#if AF_SIMD_HAVE_X86
  if (__builtin_cpu_supports("avx2")) return Tier::kAVX2;
  return Tier::kSSE2;
#elif AF_SIMD_HAVE_NEON
  return Tier::kNEON;
#else
  return Tier::kScalar;
#endif
}

const Kernels& kernels() {
  const Kernels* active = g_active.load(std::memory_order_acquire);
  if (active == nullptr) {
    const Kernels* resolved = table_for(detected_tier());
    // Lost races are benign: every first-caller resolves the same table,
    // and a concurrent set_tier() simply wins.
    const Kernels* expected = nullptr;
    g_active.compare_exchange_strong(expected, resolved,
                                     std::memory_order_acq_rel);
    active = g_active.load(std::memory_order_acquire);
  }
  return *active;
}

Tier active_tier() { return kernels().tier; }

bool set_tier(Tier tier) {
  const Kernels* table = table_for(tier);
  if (table == nullptr) return false;
  g_active.store(table, std::memory_order_release);
  return true;
}

}  // namespace airfinger::simd
