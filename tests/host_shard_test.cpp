// Concurrency battery for the sharded MultiSessionHost (DESIGN.md §14).
//
// Locks in the serving-host contract the 10k-stream bench relies on:
//
//   * emissions are bit-identical across shard counts {1, 2, 8}, thread
//     counts {1, 4} (auto-sharded), and ring capacities — standalone
//     Session replays of each lane are the reference every configuration
//     must reproduce exactly;
//   * a mid-trace fault quarantines exactly its own lane at any shard
//     count, and sibling lanes on the same shard stay bit-identical to
//     standalone sessions;
//   * sessions can be added and removed between epochs: indices stay
//     stable, retired lanes reject feeds and keep contributing their
//     final health/metrics to the aggregates;
//   * admission control is exact: under kReject every refusal is counted
//     and every acceptance processed, and under kBlock nothing is ever
//     lost no matter how small the rings are;
//   * parking never loses a wakeup: thousands of feed-one-then-pump
//     epochs and concurrent feeders on 1-frame rings with idle gaps keep
//     the workers parking and waking without a hang (ctest's TIMEOUT
//     turns a lost wakeup into a failure).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "core/multi_session_host.hpp"
#include "core/trainer.hpp"
#include "sensor/fault_injector.hpp"
#include "synth/dataset.hpp"

namespace airfinger {
namespace {

/// One small trained bundle shared by every test in this file (training
/// dominates the suite's cost; the bundle is immutable so sharing is safe).
const std::shared_ptr<const core::ModelBundle>& trained_bundle() {
  static const std::shared_ptr<const core::ModelBundle> bundle = [] {
    core::TrainerConfig config;
    config.users = 2;
    config.sessions = 1;
    config.repetitions = 3;
    config.non_gesture_repetitions = 3;
    config.seed = 11;
    return core::build_bundle(config);
  }();
  return bundle;
}

/// Distinct multi-gesture streams, one per hosted session.
std::vector<sensor::MultiChannelTrace> gesture_streams(std::size_t count) {
  const std::vector<synth::MotionKind> mix{
      synth::MotionKind::kCircle, synth::MotionKind::kScrollUp,
      synth::MotionKind::kClick, synth::MotionKind::kScrollDown};
  std::vector<sensor::MultiChannelTrace> traces;
  traces.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    synth::CollectionConfig config;
    config.users = 1;
    config.seed = 2200 + s;
    traces.push_back(
        synth::make_gesture_stream(config, mix, config.seed).trace);
  }
  return traces;
}

void expect_events_identical(const std::vector<core::GestureEvent>& a,
                             const std::vector<core::GestureEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    SCOPED_TRACE("event " + std::to_string(e));
    EXPECT_EQ(a[e].type, b[e].type);
    EXPECT_EQ(a[e].time_s, b[e].time_s);
    EXPECT_EQ(a[e].gesture, b[e].gesture);
    EXPECT_EQ(a[e].segment_begin, b[e].segment_begin);
    EXPECT_EQ(a[e].segment_end, b[e].segment_end);
    EXPECT_EQ(a[e].scroll.has_value(), b[e].scroll.has_value());
    if (a[e].scroll && b[e].scroll) {
      EXPECT_EQ(a[e].scroll->direction, b[e].scroll->direction);
      EXPECT_EQ(a[e].scroll->velocity_mps, b[e].scroll->velocity_mps);
      EXPECT_EQ(a[e].scroll->duration_s, b[e].scroll->duration_s);
    }
  }
}

void expect_hosted_identical(const std::vector<core::SessionEvent>& a,
                             const std::vector<core::SessionEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  std::vector<core::GestureEvent> ea, eb;
  for (std::size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a[e].session, b[e].session) << "event " << e;
    ea.push_back(a[e].event);
    eb.push_back(b[e].event);
  }
  expect_events_identical(ea, eb);
}

// ------------------------------------------- shard-count invariance

TEST(HostSharding, EmissionsBitIdenticalAcrossShardCounts) {
  const auto traces = gesture_streams(6);
  // The reference is each lane replayed through its own standalone
  // Session, in the host's (session index, emission order) total order.
  std::vector<core::SessionEvent> reference;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    core::Session standalone(trained_bundle());
    for (const auto& e : standalone.process_trace(traces[i]))
      reference.push_back(core::SessionEvent{i, e});
  }
  ASSERT_FALSE(reference.empty());

  // Ring capacity is a pure throughput knob: a 2-frame ring forces
  // constant backpressure yet must not perturb a single bit.
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const std::size_t ring : {std::size_t{2}, std::size_t{64}}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + ", ring " +
                   std::to_string(ring));
      core::HostConfig config;
      config.shards = shards;
      config.ring_frames = ring;
      core::MultiSessionHost host(trained_bundle(), traces.size(),
                                  trained_bundle()->config().fault_policy,
                                  config);
      expect_hosted_identical(reference, host.run_round_robin(traces, 53));
    }
  }
}

TEST(HostSharding, AutoShardCountFollowsThreadPoolAndEmissionsMatch) {
  const auto traces = gesture_streams(4);
  std::vector<core::SessionEvent> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    common::ScopedThreads scoped(threads);
    core::MultiSessionHost host(trained_bundle(), traces.size());
    EXPECT_EQ(host.shard_count(), threads);  // auto = current pool size
    const auto hosted = host.run_round_robin(traces, 37);
    if (reference.empty())
      reference = hosted;
    else
      expect_hosted_identical(reference, hosted);
  }
  // Explicit shards trump the pool; the count is capped by sessions.
  common::ScopedThreads scoped(1);
  core::HostConfig config;
  config.shards = 99;
  core::MultiSessionHost host(trained_bundle(), traces.size(),
                              trained_bundle()->config().fault_policy,
                              config);
  EXPECT_EQ(host.shard_count(), traces.size());
  expect_hosted_identical(reference, host.run_round_robin(traces, 37));
}

// ------------------------------------------------ fault quarantine

TEST(HostSharding, MidTraceFaultQuarantinesOnlyItsLaneAtAnyShardCount) {
  auto traces = gesture_streams(5);
  sensor::FaultInjectorConfig fault_config;
  fault_config.non_finite_rate = 0.01;
  sensor::FaultInjector injector(fault_config, 31337);
  traces[2] = injector.corrupt(traces[2]);
  ASSERT_FALSE(injector.log().empty());

  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    core::HostConfig config;
    config.shards = shards;
    // Strict sessions: the corrupt lane throws inside its shard worker
    // and must be quarantined without disturbing shard siblings.
    core::MultiSessionHost host(trained_bundle(), traces.size(),
                                trained_bundle()->config().fault_policy,
                                config);
    const auto hosted = host.run_round_robin(traces, 37);

    EXPECT_TRUE(host.session_faulted(2));
    EXPECT_EQ(host.faulted_count(), 1u);
    EXPECT_NE(host.session_fault(2).find("non-finite"), std::string::npos);
    EXPECT_GT(host.dropped_frames(2), 0u);

    std::vector<std::vector<core::GestureEvent>> per_session(traces.size());
    for (const auto& e : hosted) per_session[e.session].push_back(e.event);
    for (std::size_t i = 0; i < traces.size(); ++i) {
      if (i == 2) continue;
      SCOPED_TRACE("sibling " + std::to_string(i));
      EXPECT_FALSE(host.session_faulted(i));
      core::Session standalone(trained_bundle());
      expect_events_identical(per_session[i],
                              standalone.process_trace(traces[i]));
    }
  }
}

// -------------------------------------------- lifecycle between epochs

TEST(HostSharding, AddAndRemoveSessionsBetweenEpochs) {
  const auto traces = gesture_streams(3);
  const std::size_t channels = trained_bundle()->config().channels;
  core::MultiSessionHost host(trained_bundle(), 2);

  const auto feed_range = [&](std::size_t lane,
                              const sensor::MultiChannelTrace& trace,
                              std::size_t begin, std::size_t end) {
    std::vector<double> frame(channels);
    for (std::size_t f = begin; f < end; ++f) {
      for (std::size_t c = 0; c < channels; ++c)
        frame[c] = trace.channel(c)[f];
      EXPECT_TRUE(host.feed(lane, frame));
    }
  };

  const std::size_t half0 = traces[0].sample_count() / 2;
  const std::size_t half1 = traces[1].sample_count() / 2;
  feed_range(0, traces[0], 0, half0);
  feed_range(1, traces[1], 0, half1);
  host.pump();  // epoch barrier: everything fed so far is processed
  EXPECT_EQ(host.frames_processed(), half0 + half1);

  // Grow between epochs: the new lane lands on shard index % shards.
  const std::size_t added = host.add_session();
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(host.session_count(), 3u);

  feed_range(0, traces[0], half0, traces[0].sample_count());
  feed_range(1, traces[1], half1, traces[1].sample_count());
  feed_range(2, traces[2], 0, traces[2].sample_count());
  host.finish();

  // Retire lane 0: the index stays valid, its final counters survive.
  const std::uint64_t frames_before = host.aggregate_health().frames;
  host.remove_session(0);
  EXPECT_TRUE(host.session_retired(0));
  EXPECT_FALSE(host.session_retired(1));
  host.remove_session(0);  // idempotent

  std::vector<double> frame(channels, 0.0);
  EXPECT_FALSE(host.feed(0, frame));  // retired lanes reject feeds
  EXPECT_EQ(host.rejected_frames(0), 1u);
  EXPECT_TRUE(host.feed(1, frame));  // live lanes are untouched

  // Aggregates still cover the retired lane via its captured snapshot.
  EXPECT_EQ(host.aggregate_health().frames, frames_before + 1);
  const obs::MetricsSnapshot metrics = host.aggregate_metrics();
  EXPECT_EQ(metrics.find("af_host_sessions")->value, 3.0);
  EXPECT_EQ(metrics.find("af_host_retired_sessions")->value, 1.0);
  EXPECT_EQ(metrics.find("af_host_rejected_frames_total")->count, 1u);
  EXPECT_EQ(metrics.find("af_host_frames_processed_total")->count,
            traces[0].sample_count() + traces[1].sample_count() +
                traces[2].sample_count() + 1);

  // The still-live lanes drain their full event streams.
  host.pump();
  const auto events = host.drain();
  std::vector<std::vector<core::GestureEvent>> per_session(3);
  for (const auto& e : events) per_session[e.session].push_back(e.event);
  core::Session standalone(trained_bundle());
  expect_events_identical(per_session[2],
                          standalone.process_trace(traces[2]));
}

// ------------------------------------------------- admission control

TEST(HostSharding, RejectAdmissionCountsOverflowExactly) {
  // A live worker races the feeder, so which feeds overflow is scheduling
  // dependent — but every counter must still reconcile exactly with what
  // the feeder saw, frame for frame.
  const std::size_t channels = trained_bundle()->config().channels;
  const std::vector<double> frame(channels, 0.05);
  const auto run = [&](std::size_t ring_frames, std::size_t fed_limit,
                       bool stop_at_refusal) {
    core::HostConfig config;
    config.shards = 1;
    config.ring_frames = ring_frames;
    config.admission = core::Admission::kReject;
    core::MultiSessionHost host(trained_bundle(), 1,
                                trained_bundle()->config().fault_policy,
                                config);
    std::size_t fed = 0, accepted = 0, refused = 0;
    while (fed < fed_limit) {
      ++fed;
      if (host.feed(0, frame)) {
        ++accepted;
      } else {
        ++refused;
        if (stop_at_refusal) break;
      }
      // The first ring_frames feeds land in an empty ring: never refused.
      if (fed == ring_frames) {
        EXPECT_EQ(refused, 0u);
      }
    }
    EXPECT_EQ(accepted + refused, fed);
    EXPECT_EQ(host.rejected_frames(0), refused);
    if (refused != 0) {
      EXPECT_EQ(host.ring_high_water(0), ring_frames);
    }

    host.pump();
    EXPECT_EQ(host.frames_processed(), accepted);
    EXPECT_EQ(host.dropped_frames(0), 0u);  // rejected != dropped

    // The overflow surfaces in the aggregate view.
    const obs::MetricsSnapshot metrics = host.aggregate_metrics(true);
    EXPECT_EQ(metrics.find("af_host_rejected_frames_total")->count, refused);
    EXPECT_EQ(metrics.find("af_host_frames_processed_total")->count,
              accepted);
    EXPECT_EQ(metrics.find("af_host_dropped_frames_total")->count, 0u);
    EXPECT_EQ(metrics.find("af_host_ring_capacity_frames")->value,
              static_cast<double>(ring_frames));
    EXPECT_EQ(metrics.find("af_host_ring_high_water_frames")->value,
              static_cast<double>(host.ring_high_water(0)));
    EXPECT_EQ(metrics.find("af_host_shards")->value, 1.0);
    return refused;
  };

  // An 8-frame ring fed 20 frames without pausing: refusals may or may
  // not happen, the ledger balances either way.
  run(8, 20, false);
  // A 1-frame ring under a tight feed loop must refuse eventually: the
  // worker cannot keep up with back-to-back feeds forever. Bounded, so a
  // host that never refuses fails instead of hanging.
  EXPECT_EQ(run(1, 1000000, true), 1u);
}

// ---------------------------------------------------- lost wakeups

TEST(HostSharding, FeedOneThenPumpNeverLosesAWakeup) {
  // Every epoch wakes one parked worker with a single frame and waits for
  // it to park again: a wakeup lost anywhere in that handshake hangs.
  const std::size_t channels = trained_bundle()->config().channels;
  const std::vector<double> frame(channels, 0.05);
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    core::HostConfig config;
    config.shards = shards;
    core::MultiSessionHost host(trained_bundle(), 8,
                                trained_bundle()->config().fault_policy,
                                config);
    for (std::uint64_t epoch = 0; epoch < 3000; ++epoch) {
      ASSERT_TRUE(host.feed(epoch % 8, frame));
      host.pump();
      ASSERT_EQ(host.frames_processed(), epoch + 1);
    }
  }
}

TEST(HostSharding, ConcurrentBlockedFeedersWithIdleGapsNeverHang) {
  // Two feeder threads on disjoint lanes (sharing shards at shards=1)
  // push bursts into 1-frame rings under kBlock, so nearly every feed
  // sleeps on its lane's drain sequence, and pause between bursts, so the
  // workers park and wake constantly. Nothing may be lost or reordered.
  const auto traces = gesture_streams(4);
  const std::size_t channels = trained_bundle()->config().channels;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    core::HostConfig config;
    config.shards = shards;
    config.ring_frames = 1;
    core::MultiSessionHost host(trained_bundle(), traces.size(),
                                trained_bundle()->config().fault_policy,
                                config);
    const auto feeder = [&](std::size_t first) {
      std::vector<double> frame(channels);
      constexpr std::size_t kBurst = 16;
      for (std::size_t offset = 0;; offset += kBurst) {
        bool pending = false;
        for (std::size_t lane = first; lane < traces.size(); lane += 2) {
          const auto& trace = traces[lane];
          const std::size_t end =
              std::min(offset + kBurst, trace.sample_count());
          for (std::size_t f = offset; f < end; ++f) {
            for (std::size_t c = 0; c < channels; ++c)
              frame[c] = trace.channel(c)[f];
            EXPECT_TRUE(host.feed(lane, frame));
          }
          if (end < trace.sample_count()) pending = true;
        }
        if (!pending) return;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    };
    std::thread other(feeder, 1);
    feeder(0);
    other.join();
    host.finish();

    std::uint64_t fed = 0;
    for (const auto& trace : traces) fed += trace.sample_count();
    EXPECT_EQ(host.frames_processed(), fed);
    for (std::size_t i = 0; i < traces.size(); ++i) {
      EXPECT_EQ(host.dropped_frames(i), 0u);
      EXPECT_EQ(host.rejected_frames(i), 0u);
    }
    std::vector<std::vector<core::GestureEvent>> per_session(traces.size());
    for (const auto& e : host.drain())
      per_session[e.session].push_back(e.event);
    for (std::size_t i = 0; i < traces.size(); ++i) {
      SCOPED_TRACE("stream " + std::to_string(i));
      core::Session standalone(trained_bundle());
      expect_events_identical(per_session[i],
                              standalone.process_trace(traces[i]));
    }
  }
}

TEST(HostSharding, BlockAdmissionIsLosslessUnderTinyRings) {
  // kBlock with a 2-frame ring: feed() constantly waits on the worker,
  // yet every frame must arrive — fed == processed, nothing dropped or
  // rejected, and the emissions match an unconstrained run exactly.
  const auto traces = gesture_streams(2);
  core::HostConfig config;
  config.shards = 2;
  config.ring_frames = 2;
  core::MultiSessionHost host(trained_bundle(), traces.size(),
                              trained_bundle()->config().fault_policy,
                              config);
  const auto hosted = host.run_round_robin(traces, 37);

  const std::uint64_t fed =
      traces[0].sample_count() + traces[1].sample_count();
  EXPECT_EQ(host.frames_processed(), fed);
  EXPECT_EQ(host.dropped_frames(0) + host.dropped_frames(1), 0u);
  EXPECT_EQ(host.rejected_frames(0) + host.rejected_frames(1), 0u);

  std::vector<std::vector<core::GestureEvent>> per_session(traces.size());
  for (const auto& e : hosted) per_session[e.session].push_back(e.event);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    SCOPED_TRACE("stream " + std::to_string(i));
    core::Session standalone(trained_bundle());
    expect_events_identical(per_session[i],
                            standalone.process_trace(traces[i]));
  }
}

}  // namespace
}  // namespace airfinger
