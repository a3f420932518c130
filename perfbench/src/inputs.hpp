// Workload input generation. Everything here is a pure function of the
// seed and runs before any timed phase; the program under test only ever
// sees the frames these functions produce.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/health.hpp"
#include "harness.hpp"
#include "synth/motion_kind.hpp"

namespace perfbench {

/// One distinct input stream: interleaved frames (frame i occupies
/// [i * channels, (i + 1) * channels)) plus its ground truth.
struct Stream {
  std::size_t channels = 0;
  std::vector<double> samples;
  std::vector<Truth> truths;

  std::size_t frames() const {
    return channels ? samples.size() / channels : 0;
  }
  std::span<const double> frame(std::size_t i) const {
    return {samples.data() + i * channels, channels};
  }
};

/// Gesture-dense streams at the synthesizer's own spacing
/// (synth::make_gesture_stream): one per seeded user, each cycling all
/// eight paper gestures `cycles` times (the cycle starts at a different
/// gesture for each user).
std::vector<Stream> dense_streams(std::uint64_t seed, std::size_t users,
                                  std::size_t cycles);

/// Mostly idle streams: `gestures` paper gestures per stream, each
/// followed by `gap_s` extra seconds of idle hand at rest.
std::vector<Stream> sparse_streams(std::uint64_t seed, std::size_t count,
                                   std::size_t gestures, double gap_s);

/// The deployment recipe for the degraded-mode policy: thresholds derived
/// from the clean streams' own ceilings (repair floor above the worst
/// clean step, drift threshold above the worst clean baseline bend, the
/// saturation rail far enough out that the artifact layer owns storms).
airfinger::core::FaultPolicy derive_policy(const std::vector<Stream>& clean);

/// Applies a seeded FaultInjector artifact storm (impulse glitches,
/// crackle trains and ambient flicker, sized against `policy`'s repair
/// floor) to every `every`-th stream.
void apply_storms(std::vector<Stream>& streams, std::size_t every,
                  const airfinger::core::FaultPolicy& policy,
                  std::uint64_t seed);

}  // namespace perfbench
