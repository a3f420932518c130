#include "core/multi_session_host.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"

namespace airfinger::core {

namespace {
/// Frames drained from one lane per worker sweep pass, so a deep backlog
/// on one lane cannot starve its shard siblings' latency.
constexpr std::size_t kSweepChunk = 256;

/// Wall clock for the shard telemetry and the ingest stamps. Deliberately
/// NOT the session's injectable clock: queue wait and busy fractions
/// describe real scheduling on this machine, are exposed only behind
/// include_load_series, and must never add reads to the per-session
/// clock sequence (which the determinism goldens pin).
std::uint64_t host_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

// ------------------------------------------------------- shard telemetry

/// Per-shard utilization registry (DESIGN.md §18). Written by exactly one
/// thread — the shard's worker — and read only at quiescence, so it
/// follows the same single-writer discipline as the per-session
/// registries. Series are shard-index-named (there are no labels) and
/// merged into aggregate_metrics() only under include_load_series,
/// keeping the default exposition shard-count-invariant.
struct MultiSessionHost::ShardStats {
  obs::Registry registry;
  obs::Registry::Handle parks, unparks, frames_drained, drain_batches,
      idle_passes, busy_ns, parked_ns;
  obs::Registry::Handle batch_hist, wait_hist;

  explicit ShardStats(std::size_t shard_index) {
    const std::string p = "af_shard" + std::to_string(shard_index) + "_";
    parks = registry.counter(p + "parks_total",
                             "Times this shard's worker parked idle.");
    unparks = registry.counter(p + "unparks_total",
                               "Times this shard's worker was woken.");
    frames_drained =
        registry.counter(p + "frames_drained_total",
                         "Frames this shard pulled off its lanes' rings.");
    drain_batches =
        registry.counter(p + "drain_batches_total",
                         "Per-lane drain sweeps that found queued frames.");
    idle_passes =
        registry.counter(p + "idle_passes_total",
                         "Full sweeps over the shard's lanes that found "
                         "nothing queued.");
    busy_ns = registry.counter(
        p + "busy_ns_total",
        "Wall nanoseconds spent inside draining sweeps.");
    parked_ns = registry.counter(
        p + "parked_ns_total",
        "Wall nanoseconds spent parked waiting for frames.");
    batch_hist = registry.histogram(
        p + "drain_batch_frames",
        "Frames consumed per non-empty per-lane drain sweep.",
        obs::HistogramSpec{1.0, 1024.0, 20});
    wait_hist = registry.histogram(
        p + "queue_wait_ns",
        "Ring residency of the oldest frame in each drained batch, from "
        "its feed()-time ingest stamp.",
        obs::HistogramSpec{});
  }
};

// --------------------------------------------------------------- shard

/// One worker shard: its thread, the lanes it owns (lane index % shard
/// count), and the one word the worker sleeps on.
///
/// Parking is a Dekker handshake over `state`: the worker stores kParking,
/// issues a seq_cst fence, and re-checks `stop` and its rings, while a
/// feeder pushes a frame, issues a seq_cst fence, and loads `state`
/// (wake()). The paired fences guarantee at least one side sees the
/// other, so a frame can never land unseen in a sleeping shard's ring
/// (no lost wakeup) and the worker never sleeps while work is visible. A
/// worker whose re-check finds nothing commits kParking -> kIdle by CAS
/// and sleeps in `state.wait`; a wake that lands during the re-check
/// makes the CAS fail instead of being lost. quiesce() waits for kIdle,
/// whose release publishes everything the worker wrote; the wake's
/// release store publishes back to the worker what the owner changed while
/// it slept (`owned`, retired lanes, `stop`). The steady-state feed costs
/// one fence plus one relaxed load, and no lock exists.
struct MultiSessionHost::Shard {
  enum : std::uint32_t { kAwake, kParking, kIdle };

  explicit Shard(std::size_t index, std::size_t channels)
      : frame(channels), stats(index) {}

  std::vector<Lane*> owned;   ///< Mutated only while the worker is idle.
  std::vector<double> frame;  ///< Worker-side pop scratch (channels).
  ShardStats stats;           ///< Worker-written telemetry block.
  std::atomic<bool> stop{false};
  std::thread worker;

  // Feeders load `state` on every feed while the worker reads `owned` /
  // `frame` headers every pop; its own line (and the alignas-rounded
  // sizeof) keeps that polling off the worker's hot fields and off the
  // neighbouring shard in the shard array.
  alignas(64) std::atomic<std::uint32_t> state{kAwake};

  bool rings_empty() const {
    for (const Lane* lane : owned)
      if (!lane->ring.empty()) return false;
    return true;
  }

  /// Feeder side of the handshake, once a pushed frame (or `stop`) is
  /// visible: wakes the worker only when it may be asleep.
  void wake() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (state.load(std::memory_order_relaxed) == kAwake) return;
    state.store(kAwake, std::memory_order_release);
    state.notify_one();
  }
};

// ---------------------------------------------------------------- lane

MultiSessionHost::Lane::Lane(std::size_t idx,
                             std::shared_ptr<const ModelBundle> bundle,
                             FaultPolicy policy, std::size_t ring_capacity,
                             std::size_t stamp_stride)
    : index(idx),
      ring(ring_capacity, stamp_stride),
      session(std::in_place, std::move(bundle), policy) {
  events.reserve(16);
  sink = [this](const GestureEvent& e) {
    events.push_back(SessionEvent{index, e});
  };
  // Stamp exported traces with the lane index, so a merged Perfetto view
  // groups spans per stream. Pure metadata: no clock reads, no series.
  session->observability().set_stream_id(idx);
}

// --------------------------------------------------------- construction

MultiSessionHost::MultiSessionHost(std::shared_ptr<const ModelBundle> bundle,
                                   std::size_t sessions)
    : MultiSessionHost(bundle, sessions,
                       bundle ? bundle->config().fault_policy
                              : FaultPolicy{},
                       HostConfig{}) {}

MultiSessionHost::MultiSessionHost(std::shared_ptr<const ModelBundle> bundle,
                                   std::size_t sessions, FaultPolicy policy)
    : MultiSessionHost(std::move(bundle), sessions, policy, HostConfig{}) {}

MultiSessionHost::MultiSessionHost(std::shared_ptr<const ModelBundle> bundle,
                                   std::size_t sessions, FaultPolicy policy,
                                   HostConfig config)
    : bundle_(std::move(bundle)), config_(config), policy_(policy) {
  AF_EXPECT(bundle_ != nullptr, "MultiSessionHost requires a model bundle");
  AF_EXPECT(sessions >= 1, "MultiSessionHost requires at least one session");
  AF_EXPECT(config_.ring_frames >= 1,
            "MultiSessionHost ring capacity must be >= 1 frame");
  const std::size_t channels = bundle_->config().channels;

  shard_count_ = config_.shards != 0 ? config_.shards
                                     : common::current_thread_count();
  shard_count_ = std::clamp<std::size_t>(shard_count_, 1, sessions);

  // Ingest stamps cost one uint64 per ring frame; only pay for them when
  // the tracing layer that reads them back is compiled in.
  const std::size_t stamp_stride = AF_OBS_TRACE_ENABLED ? channels : 0;
  lanes_.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i)
    lanes_.push_back(std::make_unique<Lane>(
        i, bundle_, policy_, config_.ring_frames * channels, stamp_stride));

  shards_.reserve(shard_count_);
  for (std::size_t s = 0; s < shard_count_; ++s)
    shards_.push_back(std::make_unique<Shard>(s, channels));
  for (std::size_t i = 0; i < sessions; ++i)
    shards_[i % shard_count_]->owned.push_back(lanes_[i].get());
  for (auto& shard : shards_)
    shard->worker = std::thread(worker_loop, std::ref(*shard));
}

MultiSessionHost::~MultiSessionHost() {
  for (auto& shard : shards_) {
    shard->stop.store(true, std::memory_order_relaxed);
    shard->wake();
  }
  for (auto& shard : shards_) shard->worker.join();
}

// ------------------------------------------------------- worker / drain

std::size_t MultiSessionHost::drain_lane(Lane& lane, std::span<double> frame,
                                         std::size_t max_frames,
                                         ShardStats& stats) {
  // Publishes ring progress once per non-empty drain, waking a feeder
  // blocked on this lane (including one whose lane just died: it wakes,
  // sees `faulted`, and drops its frame).
  const auto publish = [&lane](std::size_t frames) {
    if (frames != 0 &&
        (lane.drains.fetch_add(Lane::kDrainStep, std::memory_order_release) &
         Lane::kFeederWaiting))
      lane.drains.notify_one();
    return frames;
  };
  const std::size_t channels = frame.size();
  if (lane.faulted.load(std::memory_order_relaxed) || lane.retired) {
    // Quarantined or retired: the ring is a sink. Count what the lane can
    // no longer process so dropped totals stay exact.
    const std::size_t frames = lane.ring.discard_all() / channels;
    lane.dropped_consumer += frames;
    return publish(frames);
  }
  std::size_t consumed = 0;
  std::uint64_t oldest_stamp = 0;
  while (consumed < max_frames &&
         lane.ring.try_pop(frame, consumed == 0 ? &oldest_stamp : nullptr)) {
    ++consumed;
    try {
      lane.session->push_frame(frame, lane.sink);
      ++lane.processed;
    } catch (const std::exception& e) {
      // Quarantine this lane only; shard siblings never observe the fault.
      // Latch the session's flight recorder first: the last-N events and
      // traces around the throwing frame are the post-mortem artifact.
      lane.session->observability().capture_postmortem(
          obs::FlightReason::kLaneFault, lane.processed);
      lane.fault = e.what();
      lane.faulted.store(true, std::memory_order_relaxed);
      ++lane.dropped_consumer;  // the frame that threw
      lane.dropped_consumer += lane.ring.discard_all() / channels;
      break;
    } catch (...) {
      lane.session->observability().capture_postmortem(
          obs::FlightReason::kLaneFault, lane.processed);
      lane.fault = "unknown stream fault";
      lane.faulted.store(true, std::memory_order_relaxed);
      ++lane.dropped_consumer;
      lane.dropped_consumer += lane.ring.discard_all() / channels;
      break;
    }
  }
#if AF_OBS_TRACE_ENABLED
  if (consumed != 0) {
    // One queue-wait sample per non-empty batch: the first (oldest) frame
    // popped, which bounds the residency of everything behind it.
    if (oldest_stamp != 0) {
      const std::uint64_t now = host_now_ns();
      stats.registry.observe(
          stats.wait_hist,
          now > oldest_stamp ? static_cast<double>(now - oldest_stamp)
                             : 0.0);
    }
    stats.registry.inc(stats.frames_drained, consumed);
    stats.registry.inc(stats.drain_batches);
    stats.registry.observe(stats.batch_hist, static_cast<double>(consumed));
  }
#else
  (void)stats;
  (void)oldest_stamp;
#endif
  return publish(consumed);
}

void MultiSessionHost::worker_loop(Shard& shard) {
  ShardStats& stats = shard.stats;
  for (;;) {
#if AF_OBS_TRACE_ENABLED
    const std::uint64_t sweep_t0 = host_now_ns();
#endif
    std::size_t did = 0;
    for (Lane* lane : shard.owned)
      did += drain_lane(*lane, shard.frame, kSweepChunk, stats);
#if AF_OBS_TRACE_ENABLED
    if (did != 0)
      stats.registry.inc(stats.busy_ns, host_now_ns() - sweep_t0);
    else
      stats.registry.inc(stats.idle_passes);
#endif
    if (did != 0) continue;

    shard.state.store(Shard::kParking, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (shard.stop.load(std::memory_order_relaxed)) return;
    if (!shard.rings_empty()) {
      // A frame raced in between the sweep and the park: go get it (the
      // fence pairing with wake() makes this check reliable).
      shard.state.store(Shard::kAwake, std::memory_order_relaxed);
      continue;
    }
    // Counted before the commit publishes them to quiesce(). A wake that
    // beats the commit counts as a park of ~0 ns.
#if AF_OBS_TRACE_ENABLED
    stats.registry.inc(stats.parks);
    const std::uint64_t park_t0 = host_now_ns();
#endif
    std::uint32_t parking = Shard::kParking;
    if (shard.state.compare_exchange_strong(parking, Shard::kIdle,
                                            std::memory_order_release,
                                            std::memory_order_acquire)) {
      shard.state.notify_all();  // quiesce() waits for kIdle
      shard.state.wait(Shard::kIdle, std::memory_order_acquire);
    }
#if AF_OBS_TRACE_ENABLED
    stats.registry.inc(stats.parked_ns, host_now_ns() - park_t0);
    stats.registry.inc(stats.unparks);
#endif
    if (shard.stop.load(std::memory_order_relaxed)) return;
  }
}

void MultiSessionHost::quiesce() const {
  for (const auto& shard : shards_)
    for (std::uint32_t s;
         (s = shard->state.load(std::memory_order_acquire)) != Shard::kIdle;)
      shard->state.wait(s, std::memory_order_acquire);
}

// ------------------------------------------------------------ streaming

bool MultiSessionHost::feed(std::size_t session,
                            std::span<const double> frame) {
  AF_EXPECT(session < lanes_.size(), "session index out of range");
  AF_EXPECT(frame.size() == bundle_->config().channels,
            "frame carries " + std::to_string(frame.size()) +
                " samples but the host expects " +
                std::to_string(bundle_->config().channels) + " channels");
  Lane& lane = *lanes_[session];
  if (lane.retired) {
    ++lane.rejected;
    return false;
  }
  if (lane.faulted.load(std::memory_order_relaxed)) {
    // Isolation: the producer keeps streaming; the lane just counts what
    // it can no longer process.
    ++lane.dropped_producer;
    return false;
  }

#if AF_OBS_TRACE_ENABLED
  // Ingest stamp: rides the ring's side-channel so the consumer can turn
  // this frame's ring residency into the measured queue_wait stage.
  const std::uint64_t ingest_tick = host_now_ns();
#else
  const std::uint64_t ingest_tick = 0;  // stride 0: the ring ignores it
#endif

  if (!lane.ring.try_push(frame, ingest_tick)) {
    if (config_.admission == Admission::kReject) {
      ++lane.rejected;
      return false;
    }
    // Lossless backpressure: sleep until the worker drains this lane. The
    // worker cannot be asleep with this ring full — the push that filled
    // it woke the shard — so no wake is owed here. Announcing the wait
    // before the re-check makes any drain after the check see the bit and
    // notify; a drain before it is seen by the acquire instead.
    ++lane.blocked;
    bool pushed = false;
    for (;;) {
      const std::uint32_t seen =
          lane.drains.fetch_or(Lane::kFeederWaiting,
                               std::memory_order_acquire) |
          Lane::kFeederWaiting;
      // The lane died while we waited; its ring is being discarded.
      if (lane.faulted.load(std::memory_order_relaxed)) break;
      if ((pushed = lane.ring.try_push(frame, ingest_tick))) break;
      lane.drains.wait(seen, std::memory_order_acquire);
    }
    lane.drains.fetch_and(~Lane::kFeederWaiting, std::memory_order_relaxed);
    if (!pushed) {
      ++lane.dropped_producer;
      return false;
    }
  }
  lane.high_water =
      std::max(lane.high_water, lane.ring.size() / frame.size());
  shards_[session % shard_count_]->wake();
  return true;
}

void MultiSessionHost::pump() { quiesce(); }

void MultiSessionHost::finish() {
  quiesce();
  // All workers are asleep, so the caller owns every lane's consumer side
  // until the next feed().
  for (auto& lane_ptr : lanes_) {
    Lane& lane = *lane_ptr;
    if (lane.retired || lane.faulted.load(std::memory_order_relaxed))
      continue;
    try {
      lane.session->finish(lane.sink);
    } catch (const std::exception& e) {
      lane.fault = e.what();
      lane.faulted.store(true, std::memory_order_relaxed);
    } catch (...) {
      lane.fault = "unknown stream fault";
      lane.faulted.store(true, std::memory_order_relaxed);
    }
  }
}

std::vector<SessionEvent> MultiSessionHost::drain() {
  quiesce();
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane->events.size();
  std::vector<SessionEvent> out;
  out.reserve(total);
  for (auto& lane : lanes_) {
    out.insert(out.end(), std::make_move_iterator(lane->events.begin()),
               std::make_move_iterator(lane->events.end()));
    lane->events.clear();
  }
  return out;
}

std::uint64_t MultiSessionHost::frames_processed() const {
  quiesce();
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->processed;
  return total;
}

// --------------------------------------------------- session lifecycle

std::size_t MultiSessionHost::add_session() {
  quiesce();
  const std::size_t index = lanes_.size();
  const std::size_t channels = bundle_->config().channels;
  lanes_.push_back(std::make_unique<Lane>(
      index, bundle_, policy_, config_.ring_frames * channels,
      AF_OBS_TRACE_ENABLED ? channels : 0));
  // The worker is asleep (quiesce() above); the release store of the next
  // wake publishes the new lane to it.
  shards_[index % shard_count_]->owned.push_back(lanes_.back().get());
  return index;
}

void MultiSessionHost::remove_session(std::size_t i) {
  AF_EXPECT(i < lanes_.size(), "session index out of range");
  quiesce();
  Lane& lane = *lanes_[i];
  if (lane.retired) return;
  if (lane.session.has_value()) {
    lane.final_health = lane.session->health();
    lane.final_metrics =
        lane.session->observability().registry().snapshot();
  }
  lane.retired = true;
  lane.session.reset();  // frees the per-stream buffers
  std::erase(shards_[i % shard_count_]->owned, &lane);
}

bool MultiSessionHost::session_retired(std::size_t i) const {
  return lane_at(i).retired;
}

// ------------------------------------------------------- health / views

const MultiSessionHost::Lane& MultiSessionHost::lane_at(
    std::size_t i) const {
  AF_EXPECT(i < lanes_.size(), "session index out of range");
  return *lanes_[i];
}

const Session& MultiSessionHost::session(std::size_t i) const {
  const Lane& lane = lane_at(i);
  quiesce();
  AF_EXPECT(lane.session.has_value(),
            "session " + std::to_string(i) + " is retired");
  return *lane.session;
}

Session& MultiSessionHost::mutable_session(std::size_t i) {
  AF_EXPECT(i < lanes_.size(), "session index out of range");
  quiesce();
  Lane& lane = *lanes_[i];
  AF_EXPECT(lane.session.has_value(),
            "session " + std::to_string(i) + " is retired");
  return *lane.session;
}

bool MultiSessionHost::session_faulted(std::size_t i) const {
  const Lane& lane = lane_at(i);
  quiesce();
  return lane.faulted.load(std::memory_order_relaxed);
}

const std::string& MultiSessionHost::session_fault(std::size_t i) const {
  const Lane& lane = lane_at(i);
  quiesce();
  return lane.fault;
}

std::uint64_t MultiSessionHost::dropped_frames(std::size_t i) const {
  const Lane& lane = lane_at(i);
  quiesce();
  return lane.dropped_producer + lane.dropped_consumer;
}

std::uint64_t MultiSessionHost::rejected_frames(std::size_t i) const {
  return lane_at(i).rejected;
}

std::uint64_t MultiSessionHost::blocked_feeds(std::size_t i) const {
  return lane_at(i).blocked;
}

std::size_t MultiSessionHost::ring_high_water(std::size_t i) const {
  return lane_at(i).high_water;
}

std::size_t MultiSessionHost::faulted_count() const {
  quiesce();
  std::size_t n = 0;
  for (const auto& lane : lanes_)
    if (lane->faulted.load(std::memory_order_relaxed)) ++n;
  return n;
}

HealthStats MultiSessionHost::aggregate_health() const {
  quiesce();
  HealthStats total;
  for (const auto& lane : lanes_)
    total += lane->session.has_value() ? lane->session->health()
                                       : lane->final_health;
  return total;
}

ShardTelemetry MultiSessionHost::shard_telemetry(std::size_t shard) const {
  AF_EXPECT(shard < shard_count_, "shard index out of range");
  quiesce();
  const ShardStats& stats = shards_[shard]->stats;
  ShardTelemetry t;
  t.shard = shard;
  for (const auto& lane : lanes_) {
    if (lane->index % shard_count_ != shard || lane->retired) continue;
    ++t.lanes;
    t.occupancy_high_water =
        std::max(t.occupancy_high_water, lane->high_water);
  }
  const obs::Registry& r = stats.registry;
  t.parks = r.counter_value(stats.parks);
  t.unparks = r.counter_value(stats.unparks);
  t.frames_drained = r.counter_value(stats.frames_drained);
  t.drain_batches = r.counter_value(stats.drain_batches);
  t.idle_passes = r.counter_value(stats.idle_passes);
  t.busy_ns = r.counter_value(stats.busy_ns);
  t.parked_ns = r.counter_value(stats.parked_ns);
  // Quantiles come off a snapshot: histogram_quantile() works on entries,
  // and a telemetry read is far off the hot path.
  const obs::MetricsSnapshot snap = r.snapshot();
  for (const obs::MetricEntry& e : snap.entries) {
    if (e.type != obs::MetricEntry::Type::kHistogram) continue;
    if (e.name.ends_with("_drain_batch_frames"))
      t.drain_batch_p50 = obs::histogram_quantile(e, 0.5);
    else if (e.name.ends_with("_queue_wait_ns")) {
      t.queue_wait_p50_ns = obs::histogram_quantile(e, 0.5);
      t.queue_wait_p99_ns = obs::histogram_quantile(e, 0.99);
    }
  }
  return t;
}

obs::MetricsSnapshot MultiSessionHost::aggregate_metrics(
    bool include_load_series) const {
  quiesce();
  const auto lane_snapshot = [](const Lane& lane) {
    return lane.session.has_value()
               ? lane.session->observability().registry().snapshot()
               : lane.final_metrics;
  };
  obs::MetricsSnapshot total = lane_snapshot(*lanes_.front());
  for (std::size_t i = 1; i < lanes_.size(); ++i)
    total.add_from(lane_snapshot(*lanes_[i]));

  std::uint64_t processed = 0, dropped = 0, rejected = 0, blocked = 0;
  std::size_t retired = 0, high_water = 0;
  for (const auto& lane : lanes_) {
    processed += lane->processed;
    dropped += lane->dropped_producer + lane->dropped_consumer;
    rejected += lane->rejected;
    blocked += lane->blocked;
    if (lane->retired) ++retired;
    high_water = std::max(high_water, lane->high_water);
  }

  const auto gauge = [&total](std::string name, std::string help, double v) {
    obs::MetricEntry e;
    e.type = obs::MetricEntry::Type::kGauge;
    e.name = std::move(name);
    e.help = std::move(help);
    e.value = v;
    total.entries.push_back(std::move(e));
  };
  const auto counter = [&total](std::string name, std::string help,
                                std::uint64_t v) {
    obs::MetricEntry e;
    e.type = obs::MetricEntry::Type::kCounter;
    e.name = std::move(name);
    e.help = std::move(help);
    e.count = v;
    total.entries.push_back(std::move(e));
  };
  gauge("af_host_sessions", "Lanes configured on this host.",
        static_cast<double>(lanes_.size()));
  gauge("af_host_faulted_sessions",
        "Lanes currently quarantined by the host.",
        static_cast<double>(faulted_count()));
  gauge("af_host_retired_sessions",
        "Lanes retired by remove_session().",
        static_cast<double>(retired));
  counter("af_host_frames_processed_total",
          "Frames processed across all lanes.", processed);
  counter("af_host_dropped_frames_total",
          "Frames discarded because their lane was faulted or retired.",
          dropped);
  counter("af_host_rejected_frames_total",
          "Frames refused by admission control (full ring under kReject) "
          "or fed to a retired lane.",
          rejected);
  if (include_load_series) {
    // Scheduling-dependent series: real occupancy and contention, which
    // legitimately vary with shard count and machine load. Opt-in so the
    // default exposition keeps the thread-count-invariance contract
    // (DESIGN.md §13) that af_stats and the determinism suite rely on.
    gauge("af_host_shards", "Worker shards driving the lanes.",
          static_cast<double>(shard_count_));
    gauge("af_host_ring_capacity_frames",
          "Per-lane ingest ring capacity in frames.",
          static_cast<double>(config_.ring_frames));
    gauge("af_host_ring_high_water_frames",
          "Highest per-lane ring occupancy observed, in frames.",
          static_cast<double>(high_water));
    counter("af_host_blocked_feeds_total",
            "feed() calls that waited for ring space under kBlock.",
            blocked);
    // Per-shard utilization (DESIGN.md §18): each shard's telemetry
    // registry appended whole, in shard order, plus an occupancy gauge
    // over the shard's lanes. Series are shard-index-named, so the merged
    // snapshot stays uniquely keyed.
    for (std::size_t s = 0; s < shard_count_; ++s) {
      obs::MetricsSnapshot shard_snap = shards_[s]->stats.registry.snapshot();
      for (auto& entry : shard_snap.entries)
        total.entries.push_back(std::move(entry));
      std::size_t shard_high_water = 0;
      for (const auto& lane : lanes_)
        if (lane->index % shard_count_ == s)
          shard_high_water = std::max(shard_high_water, lane->high_water);
      gauge("af_shard" + std::to_string(s) + "_occupancy_high_water_frames",
            "Highest ring occupancy among this shard's lanes, in frames.",
            static_cast<double>(shard_high_water));
    }
  }
  gauge("af_bundle_load_seconds",
        "Wall-clock time load() spent verifying and parsing the bundle.",
        static_cast<double>(bundle_->load_ns()) * 1e-9);
  return total;
}

std::vector<SessionEvent> MultiSessionHost::run_round_robin(
    const std::vector<sensor::MultiChannelTrace>& traces,
    std::size_t frames_per_turn) {
  AF_EXPECT(traces.size() == lanes_.size(),
            "round-robin needs exactly one trace per session");
  feed_round_robin(traces, frames_per_turn);
  finish();
  return drain();
}

void MultiSessionHost::feed_round_robin(
    const std::vector<sensor::MultiChannelTrace>& traces,
    std::size_t frames_per_turn, std::size_t frames_per_lane) {
  AF_EXPECT(!traces.empty(), "round-robin needs at least one trace");
  AF_EXPECT(frames_per_turn >= 1, "frames_per_turn must be >= 1");
  const std::size_t channels = bundle_->config().channels;
  for (const auto& trace : traces)
    AF_EXPECT(trace.channel_count() == channels,
              "trace carries " + std::to_string(trace.channel_count()) +
                  " channels but the host expects " +
                  std::to_string(channels));

  // Feeder s owns exactly the lanes of shard s, so every lane keeps a
  // single feeder and the disjoint-lane concurrent-feed contract holds.
  const std::size_t lanes = lanes_.size();
  const auto feed_shard = [&](std::size_t s) {
    std::vector<double> frame(channels);
    bool pending_input = true;
    for (std::size_t offset = 0; pending_input; offset += frames_per_turn) {
      pending_input = false;
      for (std::size_t i = s; i < lanes; i += shard_count_) {
        const auto& trace = traces[i % traces.size()];
        const std::size_t end = std::min(trace.sample_count(), frames_per_lane);
        if (offset >= end) continue;
        const std::size_t take = std::min(frames_per_turn, end - offset);
        for (std::size_t f = offset; f < offset + take; ++f) {
          for (std::size_t c = 0; c < channels; ++c)
            frame[c] = trace.channel(c)[f];
          feed(i, frame);
        }
        if (offset + take < end) pending_input = true;
      }
    }
  };
  std::vector<std::thread> feeders;
  feeders.reserve(shard_count_ - 1);
  for (std::size_t s = 1; s < shard_count_; ++s)
    feeders.emplace_back(feed_shard, s);
  feed_shard(0);
  for (auto& t : feeders) t.join();  // happens-before the owner resuming
}

}  // namespace airfinger::core
