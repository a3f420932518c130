// Sharded multi-stream serving host: N Sessions over one shared
// ModelBundle, hashed across S lanes-per-shard worker threads.
//
// The host models the production shape the ROADMAP aims at — one resident
// copy of the trained forests serving thousands of concurrent wearable
// streams. Each session (lane) is hashed to a shard (`index % shards`);
// each shard owns one long-lived worker thread and drains its lanes'
// bounded SPSC ingest rings (common/spsc_ring.hpp) continuously, so the
// producer's `feed()` overlaps with parallel classification instead of
// alternating with it behind a fork/join barrier (the pre-shard design's
// scaling wall, ROADMAP item 1). Every shard count, 1 included, runs this
// one design: there is no caller-drained mode. `pump()` is an epoch
// barrier: it returns once every frame fed so far has been processed and
// all workers are parked, which is when the aggregate views
// (drain/metrics/health) are coherent.
//
// Determinism (DESIGN.md §9/§14): sessions are fully independent and each
// lane's frames are processed in feed order by exactly one thread, so a
// lane's emission stream is a pure function of its input — independent of
// shard count, thread count, ring capacity, and scheduling. drain()
// defines the total order as (session index, emission order), which no
// scheduling can perturb. The host is bit-identical across shard counts
// and to standalone Session replays of each lane.
//
// Backpressure & admission (DESIGN.md §14): rings are bounded. When a
// lane's ring is full, Admission::kBlock (default, lossless) makes feed()
// sleep until the shard worker drains the lane, while
// Admission::kReject makes feed() refuse the frame
// and count it — per-lane rejected/blocked/high-water counters surface
// through aggregate_metrics().
//
// Fault isolation (DESIGN.md §12): a lane whose session throws — a corrupt
// stream in strict mode, say — is marked faulted and quarantined by the
// host instead of poisoning its shard. Its remaining ring input is
// discarded (and counted), later feeds are dropped, and sibling lanes are
// untouched: their emissions stay bit-identical to a run without the
// faulting neighbour, at any shard count.
//
// Threading contract: pump(), finish(), drain(), the lifecycle calls, and
// every read accessor belong to ONE owner thread (the producer). Reads and
// lifecycle mutations quiesce the shards internally, so they are always
// coherent. feed() is normally called from that same owner thread; at any
// shard count it may additionally be called from several producer
// threads concurrently, provided each lane has at most one feeder at a
// time — feed() touches only that lane's ring/counters plus its shard's
// sleep word, so disjoint-lane feeders never share mutable state. The
// owner-thread calls may resume only after the extra feeders are joined
// (an external happens-before edge). feed_round_robin() packages this
// pattern.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/spsc_ring.hpp"
#include "core/session.hpp"

namespace airfinger::core {

/// One engine event attributed to the stream that produced it.
struct SessionEvent {
  std::size_t session = 0;  ///< Index of the emitting session.
  GestureEvent event;
};

/// Point-in-time utilization view of one worker shard (DESIGN.md §18).
/// All fields are scheduling-dependent — they describe how the load was
/// actually served, so they legitimately vary across machines, runs, and
/// shard counts (unlike the emission stream, which never does). Counters
/// are cumulative since construction.
struct ShardTelemetry {
  std::size_t shard = 0;             ///< Shard index.
  std::size_t lanes = 0;             ///< Lanes currently hashed to it.
  std::uint64_t parks = 0;           ///< Worker park events.
  std::uint64_t unparks = 0;         ///< Worker wake events.
  std::uint64_t frames_drained = 0;  ///< Frames this shard classified.
  std::uint64_t drain_batches = 0;   ///< Non-empty drain sweeps per lane.
  std::uint64_t idle_passes = 0;     ///< Sweeps that found nothing queued.
  std::uint64_t busy_ns = 0;         ///< Wall time inside draining sweeps.
  std::uint64_t parked_ns = 0;       ///< Wall time asleep, waiting for frames.
  double drain_batch_p50 = 0.0;      ///< Median frames per non-empty drain.
  double queue_wait_p50_ns = 0.0;    ///< Median ring residency (ns).
  double queue_wait_p99_ns = 0.0;    ///< Tail ring residency (ns).
  std::size_t occupancy_high_water = 0;  ///< Max frames queued on one lane.

  /// Fraction of accounted wall time spent draining (busy vs parked).
  /// 0 when nothing was accounted yet (or tracing is compiled out).
  double busy_fraction() const {
    const double accounted =
        static_cast<double>(busy_ns) + static_cast<double>(parked_ns);
    return accounted > 0.0 ? static_cast<double>(busy_ns) / accounted : 0.0;
  }
};

/// What feed() does when a lane's ingest ring is full.
enum class Admission : std::uint8_t {
  kBlock = 0,  ///< Lossless: sleep until the consumer makes room.
  kReject,     ///< Bounded-latency: refuse the frame and count it.
};

/// Host shape: shard/ring/admission configuration, fixed at construction.
struct HostConfig {
  /// Worker shards, one worker thread each. 0 resolves to
  /// common::current_thread_count() (so AF_THREADS / ScopedThreads govern
  /// the host like every other parallel component); the resolved count is
  /// capped at the session count.
  std::size_t shards = 0;
  /// Per-lane ingest ring capacity in frames (>= 1).
  std::size_t ring_frames = 1024;
  Admission admission = Admission::kBlock;
};

/// Drives many Sessions over one immutable bundle.
class MultiSessionHost {
 public:
  /// Creates `sessions` independent streams sharing `bundle` (no forest
  /// copies; per-stream state only). Each session uses the bundle's
  /// configured fault policy.
  MultiSessionHost(std::shared_ptr<const ModelBundle> bundle,
                   std::size_t sessions);

  /// Same, with an explicit fault policy applied to every session.
  MultiSessionHost(std::shared_ptr<const ModelBundle> bundle,
                   std::size_t sessions, FaultPolicy policy);

  /// Full control over policy and host shape.
  MultiSessionHost(std::shared_ptr<const ModelBundle> bundle,
                   std::size_t sessions, FaultPolicy policy,
                   HostConfig config);

  /// Joins the shard workers; any still-queued frames are discarded.
  ~MultiSessionHost();

  MultiSessionHost(const MultiSessionHost&) = delete;
  MultiSessionHost& operator=(const MultiSessionHost&) = delete;

  std::size_t session_count() const { return lanes_.size(); }
  /// Worker shards (and worker threads) actually running.
  std::size_t shard_count() const { return shard_count_; }
  const HostConfig& host_config() const { return config_; }
  const std::shared_ptr<const ModelBundle>& bundle() const {
    return bundle_;
  }

  /// Quiesces the shards, then returns the lane's session. The lane must
  /// not be retired.
  const Session& session(std::size_t i) const;

  /// Mutable lane access for observability configuration (clock injection,
  /// span toggling) before driving the host. Quiesces first. Must not be
  /// used to push frames directly — feed()/pump() own the streaming
  /// contract.
  Session& mutable_session(std::size_t i);

  /// Enqueues one frame (one sample per channel) for stream `session` on
  /// its shard's ingest ring; the shard worker classifies it
  /// concurrently. Returns true when the frame was accepted. False means
  /// the frame was refused and counted: the lane is faulted
  /// (dropped_frames), retired, or its ring was full under
  /// Admission::kReject (rejected_frames). Under kBlock a full ring blocks
  /// until the worker makes room instead (or the lane faults, which drops
  /// the frame).
  bool feed(std::size_t session, std::span<const double> frame);

  /// Epoch barrier: returns once every frame fed so far has been fully
  /// processed and all shard workers are parked. After pump() the host is
  /// quiescent: drain(), metrics, and health views are coherent and
  /// complete.
  void pump();

  /// Quiesces, then flushes any open segment on every healthy session.
  void finish();

  /// Quiesces, then moves out all queued events in the deterministic
  /// (session index, emission order) total order and clears the queues.
  std::vector<SessionEvent> drain();

  /// Frames fully processed so far, across all sessions (quiesces).
  std::uint64_t frames_processed() const;

  // --------------------------------------------------- session lifecycle

  /// Adds one lane (quiesces first), hashed to shard `index % shards`.
  /// Returns the new session index. O(1) against the shared bundle.
  std::size_t add_session();

  /// Retires a lane between epochs (quiesces first): discards and counts
  /// anything still queued, captures the session's final health/metrics
  /// for the aggregate views, and frees its per-stream state. The index
  /// stays valid (indices are stable); feeding a retired lane counts into
  /// rejected_frames(). Idempotent.
  void remove_session(std::size_t i);

  /// True when the lane was retired by remove_session().
  bool session_retired(std::size_t i) const;

  // ------------------------------------------------------- stream health

  /// True when the lane's session threw during processing and was
  /// quarantined by the host.
  bool session_faulted(std::size_t i) const;

  /// what() of the exception that quarantined the lane ("" while healthy).
  const std::string& session_fault(std::size_t i) const;

  /// Frames discarded because the lane could no longer process them:
  /// queued input at fault/retire time plus everything fed afterwards.
  std::uint64_t dropped_frames(std::size_t i) const;

  /// Frames refused by admission control (ring full under
  /// Admission::kReject) or fed to a retired lane.
  std::uint64_t rejected_frames(std::size_t i) const;

  /// feed() calls that had to wait for ring space under Admission::kBlock.
  std::uint64_t blocked_feeds(std::size_t i) const;

  /// Highest ring occupancy (in frames) this lane has seen.
  std::size_t ring_high_water(std::size_t i) const;

  /// Number of currently faulted lanes.
  std::size_t faulted_count() const;

  /// Sum of every session's HealthStats (faulted lanes contribute their
  /// counters up to the fault, retired lanes their final counters).
  HealthStats aggregate_health() const;

  /// Host-wide metrics view (DESIGN.md §13/§14): every session's registry
  /// snapshot merged in deterministic lane order (index-wise saturating
  /// adds over the shared schema; retired lanes contribute the snapshot
  /// captured at retirement), followed by host-level series — lane /
  /// fault / retire counts, frames processed, dropped, and rejected.
  /// Those are all deterministic, so the default exposition keeps the
  /// repo-wide invariance contract: byte-identical at any thread or shard
  /// count. `include_load_series` appends the scheduling-dependent load
  /// series too — shard count, ring capacity, ring high-water, blocked
  /// feeds, and the per-shard utilization series (af_shard<i>_*: parks,
  /// busy/parked time, drain batch sizes, queue wait) — which legitimately
  /// vary across machines and runs. Quiesces the shards first, so the
  /// view is coherent.
  obs::MetricsSnapshot aggregate_metrics(
      bool include_load_series = false) const;

  /// Per-shard utilization counters (quiesces first): park/unpark counts,
  /// busy vs parked wall time, drained frame/batch totals with a batch
  /// size median, queue-wait quantiles from the ingest-stamp side-channel,
  /// and the highest ring occupancy among the shard's lanes. Counters
  /// only move when tracing is compiled in (AF_OBS_TRACE, DESIGN.md §18); with it
  /// off, the shape is served with everything zero.
  ShardTelemetry shard_telemetry(std::size_t shard) const;

  /// Convenience driver: one trace per session fed by
  /// feed_round_robin(), then finishes all streams and returns the
  /// drained events.
  std::vector<SessionEvent> run_round_robin(
      const std::vector<sensor::MultiChannelTrace>& traces,
      std::size_t frames_per_turn = 64);

  /// The host's feeding loop, emulating interleaved arrival from N
  /// concurrent wearables: lane i streams the first `frames_per_lane`
  /// frames (capped at the trace length) of traces[i % traces.size()],
  /// up to `frames_per_turn` of them per turn. One producer per shard —
  /// the caller for shard 0, a thread for each other shard — streams
  /// exactly the lanes hashed to it (index % shard_count()), in ascending
  /// lane order each turn, while the shard workers classify concurrently
  /// under ring backpressure. Each lane's frames arrive in trace order at
  /// any shard count, so the emissions are bit-identical; only the
  /// cross-lane interleaving (which determinism never observes) differs.
  /// Returns once every feeder is joined; does not pump, finish or drain.
  void feed_round_robin(
      const std::vector<sensor::MultiChannelTrace>& traces,
      std::size_t frames_per_turn = 64,
      std::size_t frames_per_lane = std::numeric_limits<std::size_t>::max());

 private:
  // Lane field groups are cache-line-separated by ownership: the shard
  // worker bumps `processed` on every frame while the
  // producer bumps `high_water` on every feed *and* polls `faulted` /
  // `retired` — if those lived on one line, each side's writes would keep
  // evicting the other's hot line (false sharing; measured as the
  // inverted 1→4-shard throughput curve this layout fixed). alignas(64)
  // on each group start plus the ring's own 64-byte alignment (which
  // rounds sizeof(Lane) to whole lines) keeps every group private.
  struct Lane {
    /// `stamp_stride` is the ring's ingest-stamp stride: the channel count
    /// when gesture tracing is compiled in (feed() stamps every frame so
    /// queue_wait is measurable), 0 otherwise (no stamp storage at all).
    Lane(std::size_t index, std::shared_ptr<const ModelBundle> bundle,
         FaultPolicy policy, std::size_t ring_capacity,
         std::size_t stamp_stride);

    const std::size_t index;
    common::SpscRing<double> ring;  ///< Frame-aligned ingest queue.

    // ---- consumer-side state: owned by the lane's shard worker (or the
    // owner thread at quiescence).
    alignas(64) std::optional<Session> session;
    std::vector<SessionEvent> events;
    Session::EventCallback sink;    ///< Appends to `events`; built once.
    std::uint64_t processed = 0;    ///< Frames classified successfully.
    std::uint64_t dropped_consumer = 0;  ///< Ring discards after fault/retire.
    std::string fault;              ///< what() of the quarantining exception.
    /// Drain sequence: the worker adds kDrainStep after every drain that
    /// took frames off the ring (processed or discarded). A feeder blocked
    /// on the full ring under kBlock sets kFeederWaiting and sleeps on the
    /// word; only then does a drain pay for a notify.
    std::atomic<std::uint32_t> drains{0};
    static constexpr std::uint32_t kFeederWaiting = 1, kDrainStep = 2;

    // ---- flags written at fault/retire time, read by the producer on
    // *every* feed() to short-circuit: they get their own (rarely
    // invalidated) line so the polling stays a shared cache hit.
    // `faulted` flips inside the worker, hence atomic; `retired` flips
    // only at quiescence.
    alignas(64) std::atomic<bool> faulted{false};
    bool retired = false;

    // ---- producer-side counters: only the lane's feeder touches these.
    alignas(64) std::uint64_t dropped_producer = 0;  ///< Refused post-fault.
    std::uint64_t rejected = 0;      ///< Admission rejects + retired feeds.
    std::uint64_t blocked = 0;       ///< feed() waits under kBlock.
    std::size_t high_water = 0;      ///< Max ring occupancy in frames.

    // ---- captured by remove_session() before the session is freed.
    alignas(64) HealthStats final_health;
    obs::MetricsSnapshot final_metrics;
  };

  struct ShardStats;  // per-shard telemetry registry (in the .cpp)
  struct Shard;       // worker thread + its sleep word (in the .cpp)

  /// Drains up to `max_frames` frames from one lane's ring through its
  /// session (or discards them when the lane is faulted/retired). Returns
  /// the number of frames consumed, and wakes a feeder blocked on the
  /// lane when there was one. Caller must own the consumer side. `stats`
  /// collects drained-frame/batch counts and the queue wait of the
  /// batch's oldest frame; a lane fault additionally dumps the session's
  /// flight recorder before quarantine.
  static std::size_t drain_lane(Lane& lane, std::span<double> frame,
                                std::size_t max_frames, ShardStats& stats);

  static void worker_loop(Shard& shard);
  /// The epoch barrier behind pump() and every read accessor: blocks until
  /// each shard worker is asleep with empty rings, so on return every
  /// frame fed so far has been fully processed and published.
  void quiesce() const;
  const Lane& lane_at(std::size_t i) const;

  std::shared_ptr<const ModelBundle> bundle_;
  HostConfig config_;
  std::size_t shard_count_ = 1;
  FaultPolicy policy_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<Shard>> shards_;  ///< shard_count_ entries.
};

}  // namespace airfinger::core
