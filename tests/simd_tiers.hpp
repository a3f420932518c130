// Test helpers for running a check under every SIMD tier (DESIGN.md §15).
#pragma once

#include <vector>

#include "common/simd.hpp"

namespace airfinger::test {

/// Tiers this build + CPU can actually activate (always includes scalar).
inline std::vector<simd::Tier> available_tiers() {
  std::vector<simd::Tier> tiers;
  for (const simd::Tier t : {simd::Tier::kScalar, simd::Tier::kSSE2,
                             simd::Tier::kAVX2, simd::Tier::kNEON})
    if (simd::set_tier(t)) tiers.push_back(t);
  simd::set_tier(simd::Tier::kScalar);
  return tiers;
}

/// Restores the detected tier when a test ends, whatever it switched to.
struct TierGuard {
  ~TierGuard() { simd::set_tier(simd::detected_tier()); }
};

}  // namespace airfinger::test
