#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/rng.hpp"
#include "sensor/artifact.hpp"
#include "sensor/fault_injector.hpp"
#include "sensor/prototype.hpp"
#include "synth/dataset.hpp"
#include "synth/scenario.hpp"

namespace perfbench {

namespace sy = airfinger::synth;
namespace se = airfinger::sensor;
using airfinger::common::Rng;

namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Stream to_stream(const se::MultiChannelTrace& trace,
                 const std::vector<std::pair<std::size_t, std::size_t>>& bounds,
                 const std::vector<sy::MotionKind>& kinds) {
  Stream s;
  s.channels = trace.channel_count();
  s.samples.resize(trace.sample_count() * s.channels);
  for (std::size_t c = 0; c < s.channels; ++c) {
    const auto ch = trace.channel(c);
    for (std::size_t i = 0; i < ch.size(); ++i)
      s.samples[i * s.channels + c] = ch[i];
  }
  for (std::size_t g = 0; g < bounds.size(); ++g)
    s.truths.push_back(Truth{bounds[g].first, bounds[g].second, kinds[g]});
  return s;
}

std::vector<sy::MotionKind> rotated_cycles(std::size_t start,
                                           std::size_t cycles) {
  const auto all = sy::all_gestures();
  std::vector<sy::MotionKind> kinds;
  for (std::size_t i = 0; i < cycles * all.size(); ++i)
    kinds.push_back(all[(start + i) % all.size()]);
  return kinds;
}

/// make_gesture_stream with a longer idle tail after every gesture: the
/// same single-user, single-recording construction (one acquisition
/// chain, one auto-gain calibration), built from the public synth layers.
Stream idle_padded_stream(const std::vector<sy::MotionKind>& kinds,
                          double gap_s, std::uint64_t seed) {
  Rng rng(seed);
  sy::CollectionConfig config;
  config.users = 1;
  config.seed = seed;
  const sy::DatasetBuilder builder(config);
  const sy::UserProfile user = builder.roster().front();
  const sy::SessionContext session = sy::SessionContext::sample(0, 11.0, rng);

  auto scenarios = std::make_shared<std::vector<sy::Scenario>>();
  auto offsets = std::make_shared<std::vector<double>>();
  double total = 0.0;
  for (sy::MotionKind kind : kinds) {
    sy::ScenarioSpec spec;
    spec.kind = kind;
    spec.user = user;
    spec.session = session;
    spec.repetition = sy::RepetitionJitter::sample(rng);
    spec.repetition.post_idle_s += gap_s;
    offsets->push_back(total);
    scenarios->push_back(sy::make_scenario(spec, rng));
    total += scenarios->back().duration_s;
  }
  const se::SceneStateProvider provider = [scenarios, offsets](double t) {
    std::size_t idx = scenarios->size() - 1;
    for (std::size_t i = 0; i + 1 < offsets->size(); ++i)
      if (t < (*offsets)[i + 1]) {
        idx = i;
        break;
      }
    return (*scenarios)[idx].provider(t - (*offsets)[idx]);
  };

  se::PrototypeSpec proto = config.prototype;
  proto.ambient.hour_of_day = session.hour_of_day;
  proto.ambient.drift_phase = rng.uniform(0.0, 6.28318);
  {
    // Auto-gain calibration against the idle scene, as a device would.
    const se::Prototype probe(proto);
    const auto idle = provider(0.0);
    const std::vector<double> analog =
        proto.front_end.lock_in
            ? probe.scene().evaluate_components(idle.patches, 0.0).emitted
            : probe.scene().evaluate(idle.patches, 0.0);
    double peak = 0.0;
    for (double v : analog) peak = std::max(peak, v);
    if (peak > 0.0)
      proto.adc.gain = std::clamp(0.30 * proto.adc.vref / peak, 4.0, 250.0);
  }
  const se::Prototype prototype(proto);
  const se::MultiChannelTrace trace = prototype.record(provider, total, rng);

  const double rate = proto.sample_rate_hz;
  std::vector<std::pair<std::size_t, std::size_t>> bounds;
  for (std::size_t i = 0; i < scenarios->size(); ++i) {
    const auto& sc = (*scenarios)[i];
    bounds.emplace_back(
        static_cast<std::size_t>(
            std::llround(((*offsets)[i] + sc.gesture_start_s) * rate)),
        static_cast<std::size_t>(
            std::llround(((*offsets)[i] + sc.gesture_end_s) * rate)));
  }
  return to_stream(trace, bounds, kinds);
}

}  // namespace

std::vector<Stream> dense_streams(std::uint64_t seed, std::size_t users,
                                  std::size_t cycles) {
  std::vector<Stream> out;
  for (std::size_t u = 0; u < users; ++u) {
    sy::CollectionConfig config;
    config.users = 1;
    config.seed = mix(seed, u);
    const auto kinds = rotated_cycles(u, cycles);
    const auto stream = sy::make_gesture_stream(config, kinds, config.seed);
    out.push_back(to_stream(stream.trace, stream.gesture_bounds, stream.kinds));
  }
  return out;
}

std::vector<Stream> sparse_streams(std::uint64_t seed, std::size_t count,
                                   std::size_t gestures, double gap_s) {
  std::vector<Stream> out;
  for (std::size_t s = 0; s < count; ++s) {
    std::vector<sy::MotionKind> kinds;
    for (std::size_t g = 0; g < gestures; ++g)
      kinds.push_back(sy::all_gestures()[(s * gestures + g) %
                                         sy::all_gestures().size()]);
    out.push_back(idle_padded_stream(kinds, gap_s, mix(seed, 1000 + s)));
  }
  return out;
}

airfinger::core::FaultPolicy derive_policy(const std::vector<Stream>& clean) {
  double ceiling = 0.0, max_dx = 0.0, max_vel = 0.0;
  for (const Stream& s : clean) {
    for (std::size_t c = 0; c < s.channels; ++c) {
      se::ChannelArtifactDetector det;
      for (std::size_t i = 0; i < s.frames(); ++i) {
        const double x = s.samples[i * s.channels + c];
        ceiling = std::max(ceiling, std::abs(x));
        if (i > 0)
          max_dx = std::max(
              max_dx, std::abs(x - s.samples[(i - 1) * s.channels + c]));
        det.accept(x);
        if (det.warmed_up())
          max_vel = std::max(max_vel, std::abs(det.baseline_velocity()));
      }
    }
  }
  airfinger::core::FaultPolicy policy;
  policy.enabled = true;
  const double floor = 6.0 * max_dx + 32.0;
  policy.saturation_level = ceiling + 8.0 * floor;
  policy.saturation_run_limit = 8;
  policy.stuck_run_limit = 32;
  policy.recovery_frames = 32;
  policy.artifact.repair = true;
  policy.artifact.repair_z = 6.0;
  policy.artifact.repair_min_step = floor;
  policy.artifact.escalate = true;
  policy.artifact.detector.drift_velocity = std::max(2.0 * max_vel, 0.05);
  return policy;
}

void apply_storms(std::vector<Stream>& streams, std::size_t every,
                  const airfinger::core::FaultPolicy& policy,
                  std::uint64_t seed) {
  const double magnitude = 4.0 * policy.artifact.repair_min_step;
  se::FaultInjectorConfig config;
  config.glitch_rate = 0.002;
  config.glitch_magnitude = magnitude;
  config.crackle_rate = 0.0003;
  config.crackle_magnitude = magnitude;
  config.flicker_rate = 0.0003;
  config.flicker_run = 300;
  config.flicker_magnitude = 0.5 * policy.artifact.repair_min_step;
  for (std::size_t s = 0; s < streams.size(); s += every) {
    Stream& stream = streams[s];
    se::MultiChannelTrace trace(stream.channels, 100.0);
    for (std::size_t c = 0; c < stream.channels; ++c) {
      auto& ch = trace.mutable_channel(c);
      ch.resize(stream.frames());
      for (std::size_t i = 0; i < ch.size(); ++i)
        ch[i] = stream.samples[i * stream.channels + c];
    }
    se::FaultInjector injector(config, mix(seed, 5000 + s));
    const se::MultiChannelTrace corrupted = injector.corrupt(trace);
    for (std::size_t c = 0; c < stream.channels; ++c) {
      const auto ch = corrupted.channel(c);
      for (std::size_t i = 0; i < ch.size(); ++i)
        stream.samples[i * stream.channels + c] = ch[i];
    }
  }
}

}  // namespace perfbench
