// perfbench — the airFinger benchmark driver.
//
//   perfbench --workload <single_dense|host_paced|host_flood> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--out <dir>]
//
// Each run builds the serving state (setup_s), generates the workload's
// inputs from the seed, measures for about --seconds, checks the outputs
// (host events byte-equal to a standalone Session replay, a balanced frame
// ledger, 0 allocations per frame, identical events on every pass), and
// prints one JSON object as its last line. --trace 0 reports the
// end-to-end metrics; --trace 1 re-runs the workload with spans around
// every call the benchmark makes into a layer and reports the per-layer
// table instead. perfbench/README.md defines every metric.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.hpp"
#include "core/ascending.hpp"
#include "core/multi_session_host.hpp"
#include "core/session.hpp"
#include "core/trainer.hpp"
#include "dsp/dynamic_threshold.hpp"
#include "dsp/sbc.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "sensor/artifact.hpp"
#include "spans.hpp"

// ------------------------------------------------------------ alloc hook
// Counts every global allocation so the measured Session window can be
// checked against the 0-allocations-per-frame invariant.
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {
namespace {

namespace core = airfinger::core;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// ------------------------------------------------------------- settings

/// Frame period of the paper's 100 Hz sensor, and the latency limit the
/// capacity ladder holds the host to (one frame period).
constexpr double kFramePeriodMs = 10.0;
constexpr double kSampleRateHz = 100.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".bench_build/perfbench/out";
  std::string git_rev = "unknown";
};

/// Everything a workload is sized by, fixed per workload (tiny runs shrink
/// it for the smoke test).
struct Shape {
  // single_dense and host_flood
  std::size_t users = 64;
  std::size_t cycles = 4;
  // host_paced: the distinct lane streams
  std::size_t pool = 512;
  std::size_t pool_gestures = 6;
  double pool_gap_s = 3.0;
  std::size_t storm_every = 4;  ///< Every 4th pool stream: a 25% lane share.
  /// Streams the standalone Session loop passes over: all of single_dense's;
  /// a quarter of host_paced's pool (storms keep their 25% share), so that
  /// every emission is timed over as many passes as single_dense's are.
  std::size_t loop_streams = 128;
  /// host_paced N (about half the capacity measured on a 4-vCPU Xeon) /
  /// host_flood lane count.
  std::size_t lanes = 1600;
  std::size_t ring_frames = 1024;
  std::size_t burst = 32;       ///< host_flood frames per lane per turn.
  double checkpoint_s = 0.5;    ///< host_flood pump+drain period.
  std::size_t sampled_lanes = 32;
  /// host_flood: replays of its sampled lanes, each emission timed by its
  /// fastest replay.
  int replay_repeats = 1;
  int setup_reps = 7;
  // host_paced: unmeasured leading ticks of every paced run, and the
  // measured ticks of the main run (a ladder rung runs a quarter of them).
  std::size_t warm_ticks = 30;
  std::size_t ticks = 1000;  ///< --seconds worth of 10 ms ticks.
};

Shape shape_for(const Args& a) {
  Shape s;
  s.ticks = static_cast<std::size_t>(a.seconds * 1000.0 / kFramePeriodMs);
  if (a.workload == "host_flood") {
    s.lanes = 5000;
    s.ring_frames = 64;
    s.sampled_lanes = 64;  // the emit metrics come from their replays
    s.replay_repeats = 24;
  }
  if (a.tiny) {
    s.users = 2;
    s.cycles = 1;
    s.pool = 4;
    s.pool_gestures = 2;
    s.pool_gap_s = 2.0;
    s.storm_every = 2;
    s.lanes = 8;
    s.sampled_lanes = 4;
    s.setup_reps = 1;
    s.warm_ticks = 16;
    s.ticks = 20;
    s.checkpoint_s = 0.1;
  }
  return s;
}

const char* workload_why(const std::string& w) {
  if (w == "single_dense")
    return "one Session on one thread, closed loop over 64 users' "
           "gesture-dense streams: the decide path (probe, router, features, "
           "forest, ZEBRA) dominates";
  if (w == "host_paced")
    return "1600 wearables at 100 Hz, open loop, 25% of lanes in artifact "
           "storms: decide is rare, so SBC, segmenter, detectors, ring "
           "handoff and parking carry it";
  return "one feeder floods 5000 gesture-dense lanes as fast as kBlock "
         "admits: full rings, blocked feeds and large drain batches dominate";
}

// --------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;        ///< Sample count behind a percentile (0: none).
  std::size_t beyond = 0;   ///< Samples above the percentile's rank.
  std::size_t windows = 0;  ///< Windows a windowed percentile spans.
};

struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> failures;
  /// Per-window values behind the windowed end-to-end metrics, kept in
  /// the report file so a run's spread can be inspected.
  std::vector<std::pair<std::string, std::vector<double>>> windows;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

void add(std::vector<Metric>& to, std::string name, double value,
         std::string unit) {
  to.push_back(Metric{std::move(name), value, std::move(unit), 0, 0});
}

void add_q(std::vector<Metric>& to, std::string name, const Quantile& q,
           double scale, std::string unit) {
  to.push_back(
      Metric{std::move(name), q.value * scale, std::move(unit), q.n, q.beyond});
}

/// A timing measured window by window (a pass over the streams, a second
/// of ticks, a flood checkpoint): each window's p50 and p99, reported as
/// the median across windows, so one window disturbed by the machine
/// cannot move the result. Allocation-free once reserved.
struct Windowed {
  std::vector<double> p50, p99;
  std::size_t samples = 0;

  Windowed() {
    p50.reserve(4096);
    p99.reserve(4096);
  }
  /// Closes a window: records its percentiles and clears it.
  void close(std::vector<double>& window) {
    if (window.empty()) return;
    samples += window.size();
    if (p50.size() < p50.capacity()) {
      p50.push_back(percentile(window, 50).value);
      p99.push_back(percentile(window, 99).value);
    }
    window.clear();
  }
  double median_p50() const { return median(p50); }
  double median_p99() const { return median(p99); }
};

void add_w(std::vector<Metric>& to, std::string name, double value,
           std::string unit, const Windowed& w) {
  to.push_back(Metric{std::move(name), value, std::move(unit), w.samples, 0,
                      w.p50.size()});
}

/// Fixed-capacity uniform sample of a long stream of timings (reservoir
/// sampling with a private LCG): allocation-free after construction, so
/// it can run inside the allocation-counted window.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity) : capacity_(capacity) {
    values_.reserve(capacity_);
  }
  void add(double x) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(x);
      return;
    }
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t j = (state_ >> 11) % seen_;
    if (j < capacity_) values_[j] = x;
  }
  std::vector<double>& values() { return values_; }
  std::uint64_t seen() const { return seen_; }

 private:
  std::size_t capacity_;
  std::vector<double> values_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x853C49E6748FEA9BULL;
};

// ---------------------------------------------------------------- spans

/// Span names, interned once per traced run.
struct Names {
  SpanRecorder::NameId build_bundle, load, construct, push_frame, tick, feed,
      pump, drain, decide, route, extract, predict, track, probe, sbc, dt,
      artifact;
  explicit Names(SpanRecorder& r)
      : build_bundle(r.intern("core.trainer.build_bundle")),
        load(r.intern("core.model_bundle.load")),
        construct(r.intern("core.construct")),
        push_frame(r.intern("core.session.push_frame")),
        tick(r.intern("bench.tick")),
        feed(r.intern("core.multi_session_host.feed")),
        pump(r.intern("core.multi_session_host.pump")),
        drain(r.intern("core.multi_session_host.drain")),
        decide(r.intern("core.model_bundle.decide")),
        route(r.intern("core.type_router.route")),
        extract(r.intern("features.bank.extract")),
        predict(r.intern("ml.compiled_forest.predict")),
        track(r.intern("core.zebra.track")),
        probe(r.intern("core.timing_cache.probe")),
        sbc(r.intern("dsp.sbc")),
        dt(r.intern("dsp.dynamic_threshold")),
        artifact(r.intern("sensor.artifact")) {}
};

struct Tracing {
  SpanRecorder* rec = nullptr;
  const Names* names = nullptr;
};

// ---------------------------------------------------------------- setup

struct SetupTimes {
  std::vector<double> total, build, load, construct;
};

/// Builds the serving state `reps` times — core::build_bundle, a
/// ModelBundle save/load round trip (the deploy path), then `construct`
/// over the loaded bundle — and keeps the last one.
template <typename T>
std::pair<std::shared_ptr<const core::ModelBundle>, std::unique_ptr<T>>
timed_setup(int reps, const std::function<std::unique_ptr<T>(
                          std::shared_ptr<const core::ModelBundle>)>& construct,
            SetupTimes& times, Tracing tr) {
  std::shared_ptr<const core::ModelBundle> bundle;
  std::unique_ptr<T> object;
  for (int r = 0; r < reps; ++r) {
    object.reset();
    bundle.reset();
    const auto t0 = Clock::now();
    core::TrainerConfig trainer;
    std::shared_ptr<const core::ModelBundle> built;
    {
      Scope s(tr.rec, tr.names ? tr.names->build_bundle : 0, r);
      built = core::build_bundle(trainer);
    }
    const auto t1 = Clock::now();
    std::stringstream artifact;
    built->save(artifact);
    const auto t2 = Clock::now();
    {
      Scope s(tr.rec, tr.names ? tr.names->load : 0, r);
      bundle = core::ModelBundle::load(artifact, trainer.engine);
    }
    const auto t3 = Clock::now();
    {
      Scope s(tr.rec, tr.names ? tr.names->construct : 0, r);
      object = construct(bundle);
    }
    const auto t4 = Clock::now();
    times.build.push_back(seconds_between(t0, t1));
    times.load.push_back(seconds_between(t2, t3));
    times.construct.push_back(seconds_between(t3, t4));
    times.total.push_back(seconds_between(t0, t4));
    std::cerr << "setup " << r << ": build " << times.build.back()
              << " s, load " << times.load.back() << " s, construct "
              << times.construct.back() << " s\n";
  }
  return {bundle, std::move(object)};
}

// --------------------------------------------------------- CPU rotation

/// Moves the calling thread onto each CPU it may run on in turn, so the
/// repeats of the same work (passes, replays) land on every CPU: a CPU
/// whose sibling a busy neighbour holds then slows only some repeats, and
/// the fastest-of estimators pass over them. Restores the thread's own
/// CPU set when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the thread to the k-th allowed CPU (wrapping). Allocation-free.
  void pin(std::size_t k) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  std::size_t cpus() const { return cpus_.size(); }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

// ------------------------------------------------------ session replays

/// One untimed pass of `session` over each stream: the reference events
/// the quality metrics are matched from and every replay is checked
/// against. It also grows the session's buffers to their high-water mark.
std::vector<std::vector<core::GestureEvent>> reference_events(
    core::Session& session, const std::vector<Stream>& streams) {
  std::vector<std::vector<core::GestureEvent>> reference;
  const core::Session::EventCallback sink = [&](const core::GestureEvent& e) {
    reference.back().push_back(e);
  };
  for (const Stream& s : streams) {
    session.reset();
    reference.emplace_back();
    for (std::size_t i = 0; i < s.frames(); ++i)
      session.push_frame(s.frame(i), sink);
    session.finish(sink);
  }
  return reference;
}

/// A closed loop of one Session on this thread over `streams`, repeated
/// until `seconds` have been measured, after reference_events() warmed it
/// up. Every measured pass must reproduce the reference events exactly and
/// allocate nothing. A pass repeats the same streams and the same emitting
/// frames, so each stream's and each emission's fastest pass is kept.
struct SessionLoop {
  /// Frames handed in per batch for the closed-loop latency: 100 ms of
  /// sensor data, as a wearable delivering batched frames would.
  static constexpr std::size_t kBatch = 10;

  std::uint64_t frames = 0;
  std::uint64_t pass_frames = 0;
  double busy_s = 0.0;  ///< Time inside push_frame/finish loops.
  std::uint64_t allocations = 0;
  std::size_t passes = 0;
  FastestOf stream_s;  ///< Each stream's fastest pass, s.
  /// push_frame calls that closed a segment with a gesture, in us, by
  /// their order in a pass. Early direction verdicts are left out: they
  /// cost a probe (~10 us) rather than a decide (~50 us), and a median
  /// over both kinds would jump between them as their mix changes.
  FastestOf emit_us;
  Windowed batch_us;  ///< kBatch consecutive push_frame calls.
  Reservoir quiet_ns{1u << 22};  ///< push_frame calls that emitted nothing.
  bool deterministic = true;
  bool ledger_ok = true;
  /// Mean rate over every measured pass.
  double fps() const { return busy_s > 0 ? frames / busy_s : 0.0; }
  /// A pass's frames over the sum of each stream's fastest pass.
  double fastest_fps() const {
    const double s = stream_s.sum();
    return s > 0 ? pass_frames / s : 0.0;
  }
};

void run_session_loop(
    core::Session& session, std::span<const Stream> streams,
    const std::vector<std::vector<core::GestureEvent>>& reference,
    double seconds, Tracing tr, SessionLoop& out) {
  std::vector<core::GestureEvent> events;
  events.reserve(4096);
  int emitted = 0;
  const core::Session::EventCallback sink = [&](const core::GestureEvent& e) {
    events.push_back(e);
    if (closes_gesture(e)) ++emitted;
  };
  std::size_t pass_frames = 0;
  for (const Stream& s : streams) pass_frames += s.frames();
  out.pass_frames = pass_frames;
  std::vector<double> batches;
  batches.reserve(pass_frames / SessionLoop::kBatch + streams.size());
  out.stream_s.reserve(streams.size());
  out.emit_us.reserve(pass_frames);  // at most one emitting call per frame

  CpuRotation rotation;
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  std::uint64_t trace_id = 0;
  do {
    rotation.pin(out.passes);
    std::size_t emission = 0;
    for (std::size_t si = 0; si < streams.size(); ++si) {
      const Stream& s = streams[si];
      session.reset();
      events.clear();
      // One clock read per frame: each call runs from the previous read
      // to the next.
      const auto stream_start = Clock::now();
      auto t = stream_start;
      auto batch_start = stream_start;
      for (std::size_t i = 0; i < s.frames(); ++i) {
        emitted = 0;
        {
          Scope span(tr.rec, tr.names ? tr.names->push_frame : 0, trace_id);
          session.push_frame(s.frame(i), sink);
        }
        const auto next = Clock::now();
        const double ns = ns_between(t, next);
        t = next;
        if (emitted) {
          out.emit_us.add(emission++, ns / 1000.0);
          ++trace_id;  // frames up to an emission share one gesture trace
        } else {
          out.quiet_ns.add(ns);
        }
        if ((i + 1) % SessionLoop::kBatch == 0) {
          batches.push_back(ns_between(batch_start, next) / 1000.0);
          batch_start = next;
        }
      }
      session.finish(sink);
      const double stream_s = seconds_between(stream_start, Clock::now());
      out.stream_s.add(si, stream_s);
      out.busy_s += stream_s;
      if (!same_events(events, reference[si])) out.deterministic = false;
      if (session.health().frames != s.frames()) out.ledger_ok = false;
      ++trace_id;
    }
    out.frames += pass_frames;
    ++out.passes;
    out.batch_us.close(batches);
  } while (Clock::now() < deadline);
  out.allocations =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;
}

/// Share of frames that fall inside a segment the engine decided.
double segment_frame_share(
    const std::vector<Stream>& streams,
    const std::vector<std::vector<core::GestureEvent>>& events) {
  std::uint64_t inside = 0, total = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    total += streams[s].frames();
    for (const auto& e : events[s])
      if (e.type != core::GestureEvent::Type::kScrollDirection)
        inside += e.segment_end - e.segment_begin;
  }
  return total ? static_cast<double>(inside) / total : 0.0;
}

MatchResult quality(
    const std::vector<Stream>& streams,
    const std::vector<std::vector<core::GestureEvent>>& events) {
  MatchResult total;
  for (std::size_t s = 0; s < streams.size(); ++s)
    total += match_events(streams[s].truths, events[s], kSampleRateHz);
  return total;
}

// ------------------------------------------------- per-layer replays

struct LayerSamples {
  std::vector<double> decide, route, extract, predict, track, probe;
  std::uint64_t frames = 0;
  double sbc_ns = 0, dt_ns = 0, artifact_ns = 0;
  double decide_total_ns = 0, probe_total_ns = 0;
};

/// Replays each stream's frames through the front-end layers (SBC,
/// dynamic-threshold segmenter, artifact detectors) and each decided
/// segment through the decision layers, timing every call. Repeats until
/// `seconds` are spent (at least one pass).
void replay_layers(const core::ModelBundle& bundle,
                   const core::FaultPolicy& policy,
                   const std::vector<Stream>& streams,
                   const std::vector<std::vector<core::GestureEvent>>& events,
                   double seconds, Tracing tr, LayerSamples& out) {
  const core::AirFingerConfig& cfg = bundle.config();
  const std::size_t channels = cfg.channels;
  const core::DataProcessor processor(cfg.processing);
  const std::size_t w = processor.window_samples(cfg.sample_rate_hz);
  airfinger::dsp::SegmenterConfig seg_cfg = cfg.processing.segmenter;
  seg_cfg.sample_rate_hz = cfg.sample_rate_hz;
  const bool artifacts = policy.enabled && policy.artifact.detect;
  const auto ig = static_cast<std::size_t>(cfg.router.ig_threshold_s *
                                           cfg.sample_rate_hz);
  airfinger::features::Workspace ws;
  core::OpenSegmentTiming cache;
  cache.configure(channels, cfg.sample_rate_hz, bundle.probe_timing_config());
  const auto& rec = bundle.recognizer();
  std::vector<double> row(rec.bank().feature_count());
  std::vector<double> projected(rec.selected_features().size());
  std::vector<double> proba(rec.compiled_forest().num_classes());

  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  std::uint64_t trace_id = 0;
  do {
    for (std::size_t si = 0; si < streams.size(); ++si) {
      const Stream& s = streams[si];
      const std::size_t n = s.frames();
      core::ProcessedTrace full;
      full.sample_rate_hz = cfg.sample_rate_hz;
      full.delta_rss2.assign(channels, std::vector<double>(n));
      full.energy.assign(n, 0.0);
      {
        std::vector<airfinger::dsp::SquareBasedCalculator> sbc(
            channels, airfinger::dsp::SquareBasedCalculator(w));
        Scope span(tr.rec, tr.names ? tr.names->sbc : 0, trace_id);
        const auto a = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t c = 0; c < channels; ++c) {
            const double d = sbc[c].push(s.samples[i * channels + c]);
            full.delta_rss2[c][i] = d;
            full.energy[i] += d;
          }
        out.sbc_ns += ns_between(a, Clock::now());
      }
      {
        airfinger::dsp::DynamicThresholdSegmenter segmenter(seg_cfg);
        Scope span(tr.rec, tr.names ? tr.names->dt : 0, trace_id);
        const auto a = Clock::now();
        for (std::size_t i = 0; i < n; ++i) segmenter.push(full.energy[i]);
        out.dt_ns += ns_between(a, Clock::now());
      }
      if (artifacts) {
        const airfinger::sensor::ChannelArtifactDetector fresh(
            policy.artifact.detector);
        std::vector<airfinger::sensor::ChannelArtifactDetector> det(channels,
                                                                    fresh);
        Scope span(tr.rec, tr.names ? tr.names->artifact : 0, trace_id);
        const auto a = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t c = 0; c < channels; ++c)
            det[c].accept(s.samples[i * channels + c]);
        out.artifact_ns += ns_between(a, Clock::now());
      }
      out.frames += n;

      for (const core::GestureEvent& e : events[si]) {
        if (e.type == core::GestureEvent::Type::kScrollDirection) continue;
        const std::size_t b = e.segment_begin;
        const std::size_t len = std::min(e.segment_end, n) - std::min(b, n);
        if (len < 4) continue;
        ++trace_id;
        core::ProcessedTrace view;
        view.sample_rate_hz = cfg.sample_rate_hz;
        for (std::size_t c = 0; c < channels; ++c)
          view.delta_rss2.emplace_back(full.delta_rss2[c].begin() + b,
                                       full.delta_rss2[c].begin() + b + len);
        view.energy.assign(full.energy.begin() + b,
                           full.energy.begin() + b + len);
        const airfinger::dsp::Segment local{0, len};

        const auto time_call = [&](SpanRecorder::NameId name,
                                   std::vector<double>& into, auto&& call) {
          Scope span(tr.rec, name, trace_id);
          const auto a = Clock::now();
          call();
          const double t = ns_between(a, Clock::now());
          into.push_back(t);
          return t;
        };
        const Names* nm = tr.names;
        out.decide_total_ns += time_call(nm ? nm->decide : 0, out.decide, [&] {
          (void)bundle.decide(view, local, ws);
        });
        time_call(nm ? nm->route : 0, out.route,
                  [&] { (void)bundle.router().route(view, local); });
        const airfinger::dsp::Segment padded = core::pad_segment(
            local, len, cfg.processing.feature_pad_s, cfg.sample_rate_hz);
        std::vector<std::span<const double>> windows;
        for (std::size_t c = 0; c < channels; ++c)
          windows.emplace_back(view.delta_rss2[c].data() + padded.begin,
                               padded.length());
        time_call(nm ? nm->extract : 0, out.extract,
                  [&] { rec.extract_into(windows, ws, row); });
        for (std::size_t k = 0; k < projected.size(); ++k)
          projected[k] = row[rec.selected_features()[k]];
        time_call(nm ? nm->predict : 0, out.predict, [&] {
          rec.compiled_forest().predict_proba_into(projected, proba);
        });
        time_call(nm ? nm->track : 0, out.track,
                  [&] { (void)bundle.zebra().track(view, local); });

        // The streaming early-direction probe over the growing window,
        // stopping at the first verdict as the Session does.
        core::ProcessedTrace open;
        open.sample_rate_hz = cfg.sample_rate_hz;
        open.delta_rss2.assign(channels, {});
        for (auto& ch : open.delta_rss2) ch.reserve(len);
        open.energy.reserve(len);
        cache.begin_segment();
        double deltas[8];
        for (std::size_t k = 0; k < len; ++k) {
          for (std::size_t c = 0; c < channels; ++c) {
            deltas[c] = view.delta_rss2[c][k];
            open.delta_rss2[c].push_back(deltas[c]);
          }
          open.energy.push_back(view.energy[k]);
          cache.append({deltas, channels});
          if (k + 1 <= 2 * ig + 2) continue;
          std::optional<core::ScrollEstimate> est;
          out.probe_total_ns +=
              time_call(nm ? nm->probe : 0, out.probe, [&] {
                est = bundle.probe_direction(
                    open, airfinger::dsp::Segment{0, k + 1}, ws, cache);
              });
          if (est) break;
        }
      }
    }
  } while (Clock::now() < deadline);
}

// ---------------------------------------------------------- host phases

/// Lane i plays stream `stream` of the pool from frame `offset` on,
/// wrapping at its end.
struct Lane {
  std::size_t stream = 0;
  std::size_t offset = 0;
};

std::span<const double> lane_frame(const std::vector<Stream>& pool,
                                   const Lane& lane, std::size_t k) {
  const Stream& s = pool[lane.stream];
  return s.frame((lane.offset + k) % s.frames());
}

std::vector<Lane> make_lanes(const std::vector<Stream>& pool,
                             std::size_t count, std::uint64_t seed) {
  airfinger::common::Rng rng(seed ^ 0x1A7E5ULL);
  std::vector<Lane> lanes(count);
  for (std::size_t i = 0; i < count; ++i) {
    lanes[i].stream = i % pool.size();
    lanes[i].offset = rng.below(pool[lanes[i].stream].frames());
  }
  return lanes;
}

/// What a host phase saw, from the generator's side and the host's
/// public telemetry.
struct HostRun {
  std::uint64_t offered = 0;
  std::uint64_t ticks = 0;
  double wall_s = 0.0;
  std::vector<double> latency_ms, lag_ms, pump_us, drain_us;
  Reservoir feed_ns{1u << 22};
  Windowed latency;  ///< host_paced: tick latency (ms) per second of ticks.
  Windowed feed;     ///< host_flood: feed() time (ns) per checkpoint.
  /// Frames per second, window by window: host_flood, frames processed per
  /// wall second of each checkpoint; host_paced, frames processed per
  /// second of the process's CPU time in each second of ticks.
  std::vector<double> window_fps;
  double final_lag_ms = 0.0;
  std::vector<std::uint64_t> lane_frames;  ///< Frames fed per lane.
  std::map<std::size_t, std::vector<core::GestureEvent>> sampled_events;
  bool ledger_ok = false;
  std::uint64_t processed = 0;
  // telemetry
  std::uint64_t blocked = 0, parks = 0, drain_batches = 0, idle_passes = 0;
  std::size_t high_water = 0;
  double busy_min = 0, busy_max = 0, batch_p50 = 0, queue_wait_p99_ns = 0;
  core::HealthStats health;
  std::uint64_t repairs = 0;
  double fps() const { return wall_s > 0 ? processed / wall_s : 0.0; }
};

void keep_sampled(HostRun& run, std::vector<core::SessionEvent>&& events) {
  for (auto& e : events) {
    auto it = run.sampled_events.find(e.session);
    if (it != run.sampled_events.end()) it->second.push_back(e.event);
  }
}

void read_telemetry(core::MultiSessionHost& host, HostRun& run) {
  run.processed = host.frames_processed();
  std::uint64_t dropped = 0, rejected = 0;
  for (std::size_t i = 0; i < host.session_count(); ++i) {
    dropped += host.dropped_frames(i);
    rejected += host.rejected_frames(i);
    run.blocked += host.blocked_feeds(i);
  }
  run.ledger_ok = run.processed + dropped + rejected == run.offered;
  std::vector<double> batch_p50;
  run.busy_min = 1.0;
  run.busy_max = 0.0;
  for (std::size_t s = 0; s < host.shard_count(); ++s) {
    const core::ShardTelemetry t = host.shard_telemetry(s);
    run.parks += t.parks;
    run.drain_batches += t.drain_batches;
    run.idle_passes += t.idle_passes;
    run.high_water = std::max(run.high_water, t.occupancy_high_water);
    run.busy_min = std::min(run.busy_min, t.busy_fraction());
    run.busy_max = std::max(run.busy_max, t.busy_fraction());
    run.queue_wait_p99_ns =
        std::max(run.queue_wait_p99_ns, t.queue_wait_p99_ns);
    batch_p50.push_back(t.drain_batch_p50);
  }
  run.batch_p50 = median(batch_p50);
  run.health = host.aggregate_health();
  const auto metrics = host.aggregate_metrics();
  if (const auto* e = metrics.find("af_artifact_impulse_repaired_total"))
    run.repairs = e->count;
}

/// Frames the host has processed and CPU time the process has used so far
/// (every thread, user and system), read between ticks while the host is
/// quiescent.
struct CpuMark {
  std::uint64_t frames = 0;
  double cpu_s = 0.0;
};

CpuMark cpu_mark(const core::MultiSessionHost& host) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto s = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return {host.frames_processed(), s(usage.ru_utime) + s(usage.ru_stime)};
}

void close_cpu_window(HostRun& run, CpuMark& mark, const CpuMark& now) {
  if (now.cpu_s > mark.cpu_s)
    run.window_fps.push_back(static_cast<double>(now.frames - mark.frames) /
                             (now.cpu_s - mark.cpu_s));
  mark = now;
}

void init_sampled(HostRun& run, std::size_t lanes, std::size_t sampled,
                  std::uint64_t seed) {
  airfinger::common::Rng rng(seed ^ 0x5A3F1EULL);
  while (run.sampled_events.size() < std::min(sampled, lanes))
    run.sampled_events[rng.below(lanes)];
  run.lane_frames.assign(lanes, 0);
}

/// Wearables join over the first kJoinTicks ticks (lane i at tick
/// i % kJoinTicks), as devices connect at different times; a synchronized
/// start would line up every lane's periodic work (artifact-detector
/// refreshes every 16 frames, segmenter threshold updates every 32) in the
/// same tick.
constexpr std::size_t kJoinTicks = 32;
/// Ticks per window of the windowed latency statistics: one second.
constexpr std::size_t kWindowTicks = 100;

/// Open loop: one frame per lane per 10 ms tick. Each tick the generator
/// waits for the tick's due time, feeds every lane, pumps, and drains;
/// the tick's latency runs from its due time to the drain's return, so a
/// stall is charged to every tick queued behind it. `warm` leading ticks
/// are served but not measured. The offered rate is fixed (lanes x 100
/// frames/s), so the host's own rate is read from the CPU it spends:
/// frames processed per CPU second of the whole process, one window per
/// second of ticks. CPU time leaves out the time a thread waits for a CPU,
/// which on a shared machine comes and goes with the neighbours' load.
void run_paced(core::MultiSessionHost& host, const std::vector<Stream>& pool,
               const std::vector<Lane>& lanes, std::size_t warm,
               std::size_t ticks, Tracing tr, HostRun& run) {
  const auto period = std::chrono::microseconds(10000);
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  run.latency_ms.reserve(ticks);
  run.lag_ms.reserve(ticks);
  const Names* nm = tr.names;
  std::vector<double> window;
  window.reserve(kWindowTicks);
  Clock::time_point measure_start = t0;
  CpuMark mark;
  for (std::size_t k = 0; k < warm + ticks; ++k) {
    const auto due = t0 + k * period;
    if (k == warm) {
      measure_start = due;
      mark = cpu_mark(host);
    } else if (k > warm && (k - warm) % kWindowTicks == 0) {
      close_cpu_window(run, mark, cpu_mark(host));
    }
    std::this_thread::sleep_until(due);
    Scope tick(tr.rec, nm ? nm->tick : 0, k);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (k < i % kJoinTicks) continue;  // this wearable has not joined yet
      const auto a = Clock::now();
      {
        Scope span(tr.rec, nm ? nm->feed : 0, k);
        host.feed(i, lane_frame(pool, lanes[i], run.lane_frames[i]));
      }
      run.feed_ns.add(ns_between(a, Clock::now()));
      ++run.lane_frames[i];
      ++run.offered;
    }
    const auto p0 = Clock::now();
    {
      Scope span(tr.rec, nm ? nm->pump : 0, k);
      host.pump();
    }
    const auto p1 = Clock::now();
    std::vector<core::SessionEvent> events;
    {
      Scope span(tr.rec, nm ? nm->drain : 0, k);
      events = host.drain();
    }
    const auto end = Clock::now();
    keep_sampled(run, std::move(events));
    if (k >= warm) {
      run.latency_ms.push_back(ns_between(due, end) / 1e6);
      window.push_back(run.latency_ms.back());
      if (window.size() == kWindowTicks) run.latency.close(window);
      run.lag_ms.push_back(ns_between(due, start) / 1e6);
      run.pump_us.push_back(ns_between(p0, p1) / 1e3);
      run.drain_us.push_back(ns_between(p1, end) / 1e3);
      ++run.ticks;
    }
    run.final_lag_ms = ns_between(due, start) / 1e6;
  }
  run.latency.close(window);
  run.wall_s = seconds_between(measure_start, Clock::now());
  close_cpu_window(run, mark, cpu_mark(host));
  host.finish();
  keep_sampled(run, host.drain());
  read_telemetry(host, run);
  // Frames are measured over the paced window only.
  run.processed = run.ticks * lanes.size();
}

/// Closed loop: one feeder streams `burst` frames into each lane in turn,
/// as fast as kBlock admission lets it, for `seconds`; every
/// `checkpoint_s` it pumps and drains. Ends with finish/pump/drain, and
/// the rate counts everything up to that final drain.
void run_flood(core::MultiSessionHost& host, const std::vector<Stream>& pool,
               const std::vector<Lane>& lanes, double seconds,
               std::size_t burst, double checkpoint_s, Tracing tr,
               HostRun& run) {
  const Names* nm = tr.names;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  const auto checkpoint = std::chrono::duration<double>(checkpoint_s);
  auto next_checkpoint = start + checkpoint;
  std::uint64_t turn = 0;
  bool done = false;
  std::vector<double> window;
  window.reserve(1u << 22);
  run.window_fps.reserve(4096);
  auto window_start = start;
  std::uint64_t window_processed = 0;
  const auto checkpoint_now = [&] {
    const auto p0 = Clock::now();
    {
      Scope span(tr.rec, nm ? nm->pump : 0, turn);
      host.pump();
    }
    const auto p1 = Clock::now();
    std::vector<core::SessionEvent> events;
    {
      Scope span(tr.rec, nm ? nm->drain : 0, turn);
      events = host.drain();
    }
    const auto p2 = Clock::now();
    keep_sampled(run, std::move(events));
    run.pump_us.push_back(ns_between(p0, p1) / 1e3);
    run.drain_us.push_back(ns_between(p1, p2) / 1e3);
    ++run.ticks;
    const std::uint64_t processed = host.frames_processed();
    // A window cut short by the deadline is not a whole checkpoint.
    const double window_s = seconds_between(window_start, p1);
    if (window_s >= 0.5 * checkpoint_s)
      run.window_fps.push_back((processed - window_processed) / window_s);
    window_processed = processed;
    window_start = p1;
    run.feed.close(window);
  };
  while (!done) {
    Scope tick(tr.rec, nm ? nm->tick : 0, turn);
    for (std::size_t i = 0; i < lanes.size() && !done; ++i) {
      for (std::size_t b = 0; b < burst; ++b) {
        const auto a = Clock::now();
        {
          Scope span(tr.rec, nm ? nm->feed : 0, turn);
          host.feed(i, lane_frame(pool, lanes[i], run.lane_frames[i]));
        }
        const double ns = ns_between(a, Clock::now());
        run.feed_ns.add(ns);
        if (window.size() < window.capacity()) window.push_back(ns);
        ++run.lane_frames[i];
      }
      run.offered += burst;
      if ((i & 63) == 63 || i + 1 == lanes.size()) {
        const auto now = Clock::now();
        if (now >= next_checkpoint) {
          checkpoint_now();
          next_checkpoint += checkpoint;
        }
        done = now >= deadline;
      }
    }
    ++turn;
  }
  host.finish();
  checkpoint_now();
  run.wall_s = seconds_between(start, Clock::now());
  read_telemetry(host, run);
}

/// Replays each sampled lane's exact input through a standalone Session,
/// `repeats` times over all sampled lanes (each repeat on the next CPU),
/// and compares the events byte for
/// byte with what the host delivered, every time. Times every push_frame
/// call; those that close a segment with a gesture go to `emit_us` when
/// given, indexed by their order over all sampled lanes, so each emission
/// keeps its fastest repeat. Returns the single-thread frame rate of the
/// replays.
double check_sampled_lanes(
    const std::shared_ptr<const core::ModelBundle>& bundle,
    const core::FaultPolicy& policy, const std::vector<Stream>& pool,
    const std::vector<Lane>& lanes, const HostRun& run, Report& report,
    const std::string& phase, int repeats = 1, FastestOf* emit_us = nullptr) {
  std::uint64_t frames = 0;
  double seconds = 0.0;
  CpuRotation rotation;
  core::Session warm(bundle, policy);
  for (int r = 0; r < repeats; ++r) {
    if (repeats > 1) rotation.pin(static_cast<std::size_t>(r));
    std::size_t emission = 0;
    for (const auto& [lane, host_events] : run.sampled_events) {
      // The first replay of a lane runs on a new Session, as the host's
      // lane did; later ones reuse a reset one, whose buffers are already
      // grown, so the emissions' fastest repeats exclude first-touch costs.
      std::optional<core::Session> fresh;
      if (r == 0) fresh.emplace(bundle, policy);
      core::Session& session = r == 0 ? *fresh : warm;
      session.reset();
      std::vector<core::GestureEvent> events;
      int emitted = 0;
      const core::Session::EventCallback sink =
          [&](const core::GestureEvent& e) {
            events.push_back(e);
            if (closes_gesture(e)) ++emitted;
          };
      const auto a = Clock::now();
      auto t = a;
      for (std::uint64_t k = 0; k < run.lane_frames[lane]; ++k) {
        emitted = 0;
        session.push_frame(lane_frame(pool, lanes[lane], k), sink);
        const auto next = Clock::now();
        if (emitted && emit_us)
          emit_us->add(emission++, ns_between(t, next) / 1000.0);
        t = next;
      }
      session.finish(sink);
      seconds += seconds_between(a, Clock::now());
      frames += run.lane_frames[lane];
      report.check(same_events(events, host_events),
                   phase + ": lane " + std::to_string(lane) +
                       " host events differ from standalone replay");
    }
  }
  report.check(run.ledger_ok,
               phase + ": ledger processed + dropped + rejected != offered");
  return seconds > 0 ? frames / seconds : 0.0;
}

void host_layer_metrics(std::vector<Metric>& m, HostRun& run,
                        double single_fps, std::size_t shards) {
  add_q(m, "core.multi_session_host.feed_p50_ns",
        percentile(run.feed_ns.values(), 50), 1.0, "ns");
  add_q(m, "core.multi_session_host.feed_p99_ns",
        percentile(run.feed_ns.values(), 99), 1.0, "ns");
  add(m, "core.multi_session_host.blocked_feed_ratio",
      run.offered ? static_cast<double>(run.blocked) / run.offered : 0.0,
      "ratio");
  add(m, "core.multi_session_host.drain_batch_p50", run.batch_p50, "frames");
  add(m, "core.multi_session_host.occupancy_high_water",
      static_cast<double>(run.high_water), "frames");
  add(m, "core.multi_session_host.shard_busy_fraction_min", run.busy_min,
      "ratio");
  add(m, "core.multi_session_host.shard_busy_fraction_max", run.busy_max,
      "ratio");
  add(m, "core.multi_session_host.scaling_efficiency",
      single_fps > 0 ? run.fps() / (static_cast<double>(shards) * single_fps)
                     : 0.0,
      "ratio");
  add_q(m, "core.multi_session_host.pump_p50_us", percentile(run.pump_us, 50),
        1.0, "us");
  add_q(m, "core.multi_session_host.pump_p99_us", percentile(run.pump_us, 99),
        1.0, "us");
  add_q(m, "core.multi_session_host.drain_p99_us",
        percentile(run.drain_us, 99), 1.0, "us");
  add(m, "core.multi_session_host.parks_per_tick",
      run.ticks ? static_cast<double>(run.parks) / run.ticks : 0.0, "count");
  const double sweeps =
      static_cast<double>(run.drain_batches + run.idle_passes);
  add(m, "core.multi_session_host.useful_sweep_ratio",
      sweeps > 0 ? run.drain_batches / sweeps : 0.0, "ratio");
  add(m, "common.spsc_ring.queue_wait_p99_ns", run.queue_wait_p99_ns, "ns");
  add(m, "core.health.repairs", static_cast<double>(run.repairs), "count");
  add(m, "core.health.quarantines",
      static_cast<double>(run.health.quarantines), "count");
  add(m, "core.health.quarantined_frames",
      static_cast<double>(run.health.quarantined_frames), "count");
}

// --------------------------------------------------------- fingerprint

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> fingerprint(const Args& a) {
  return {
      {"cpu", cpu_model()},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"AF_SIMD", PERFBENCH_AF_SIMD},
      {"AF_SIMD_FAST_MATH", PERFBENCH_AF_SIMD_FAST_MATH},
      {"AF_OBS_SPANS", PERFBENCH_AF_OBS_SPANS},
      {"AF_OBS_TRACE", PERFBENCH_AF_OBS_TRACE},
      {"simd_tier",
       airfinger::simd::tier_name(airfinger::simd::active_tier())},
      {"git_rev", a.git_rev},
      {"seed", std::to_string(a.seed)},
  };
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------ workloads

struct Inputs {
  std::vector<Stream> streams;
  core::FaultPolicy policy;  ///< Serving policy (enabled: host_paced).
  double build_s = 0.0;
  std::size_t frames = 0;
};

Inputs build_inputs(const Args& a, const Shape& sh) {
  Inputs in;
  const auto t0 = Clock::now();
  if (a.workload == "single_dense") {
    in.streams = dense_streams(a.seed, sh.users, sh.cycles);
  } else if (a.workload == "host_flood") {
    in.streams = dense_streams(a.seed, sh.users, sh.cycles);
  } else {
    in.streams = sparse_streams(a.seed, sh.pool, sh.pool_gestures,
                                sh.pool_gap_s);
    in.policy = derive_policy(in.streams);
    apply_storms(in.streams, sh.storm_every, in.policy, a.seed);
  }
  in.build_s = seconds_between(t0, Clock::now());
  for (const auto& s : in.streams) in.frames += s.frames();
  return in;
}

std::size_t shard_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 2 ? hw - 1 : 2;
}

std::unique_ptr<core::MultiSessionHost> make_host(
    std::shared_ptr<const core::ModelBundle> bundle, std::size_t lanes,
    const core::FaultPolicy& policy, std::size_t ring_frames) {
  core::HostConfig config;
  config.shards = std::min(shard_count(), lanes);
  config.ring_frames = ring_frames;
  config.admission = core::Admission::kBlock;
  return std::make_unique<core::MultiSessionHost>(std::move(bundle), lanes,
                                                  policy, config);
}

/// Runs one paced rung of the capacity ladder on a fresh host and returns
/// its windowed latency p99, or the generator's final lag when that is
/// worse (a backlog that grew past one frame period fails the rung either
/// way).
double rung_latency(const std::shared_ptr<const core::ModelBundle>& bundle,
                    const Inputs& in, const Shape& sh, std::size_t rung,
                    std::uint64_t seed, Report& report) {
  auto host = make_host(bundle, rung, in.policy, sh.ring_frames);
  const auto lanes = make_lanes(in.streams, rung, seed + rung);
  HostRun run;
  run.lane_frames.assign(rung, 0);
  run_paced(*host, in.streams, lanes, sh.warm_ticks, sh.ticks / 4, {}, run);
  report.check(run.ledger_ok, "ladder rung " + std::to_string(rung) +
                                  ": ledger does not balance");
  const double p99 = run.latency.median_p99();
  std::cerr << "  rung " << rung << " streams: latency p99 " << p99
            << " ms (median of " << run.latency.p99.size()
            << " windows), final lag " << run.final_lag_ms << " ms\n";
  return std::max(p99, run.final_lag_ms);
}

/// Latency: what the caller waits for per unit it hands in — a tick from
/// its due time (host_paced, ms), a feed() under kBlock (host_flood, ns),
/// a batch of SessionLoop::kBatch frames (single_dense, us) — with the
/// factor that converts it to ms.
std::pair<const Windowed&, double> caller_latency(const std::string& workload,
                                                  const HostRun& run,
                                                  const SessionLoop& loop) {
  if (workload == "host_paced") return {run.latency, 1.0};
  if (workload == "host_flood") return {run.feed, 1e-6};
  return {loop.batch_us, 1e-3};
}

int run(const Args& a) {
  const Shape sh = shape_for(a);
  const std::size_t shards = shard_count();
  const bool host_workload = a.workload != "single_dense";
  Report report;
  std::unique_ptr<SpanRecorder> recorder;
  std::unique_ptr<Names> names;
  if (a.trace) {
    recorder = std::make_unique<SpanRecorder>(200000);
    names = std::make_unique<Names>(*recorder);
  }
  const Tracing traced{recorder.get(), names.get()};
  // The S-second budget: single_dense measures its Session loop for all
  // of it; host_paced spends S on the standalone Session loop, then
  // serves for S; host_flood floods for S, then replays its sampled lanes
  // replay_repeats times (its emit metrics come from those replays, its
  // quality metrics from the reference pass). The traced
  // run spends S/3 each on an untraced and a traced Session loop, 0.2 S
  // serving untraced and 0.1 S traced, S/6 on the layer replays, and
  // host_paced adds the capacity ladder.
  const double S = a.seconds;

  std::cerr << "perfbench: workload " << a.workload << ", seed " << a.seed
            << ", " << S << " s, trace " << a.trace << "\n";
  const Inputs in = build_inputs(a, sh);
  std::cerr << "inputs: " << in.streams.size() << " streams, " << in.frames
            << " frames in " << in.build_s << " s\n";

  // ---- setup: build, deploy round trip, construct the serving object.
  SetupTimes setup;
  std::shared_ptr<const core::ModelBundle> bundle;
  std::unique_ptr<core::MultiSessionHost> host;
  std::unique_ptr<core::Session> session;
  if (host_workload) {
    std::tie(bundle, host) = timed_setup<core::MultiSessionHost>(
        sh.setup_reps,
        [&](std::shared_ptr<const core::ModelBundle> b) {
          return make_host(std::move(b), sh.lanes, in.policy, sh.ring_frames);
        },
        setup, traced);
    // The standalone Session the reference events come from.
    session = std::make_unique<core::Session>(bundle, in.policy);
  } else {
    std::tie(bundle, session) = timed_setup<core::Session>(
        sh.setup_reps,
        [&](std::shared_ptr<const core::ModelBundle> b) {
          return std::make_unique<core::Session>(std::move(b), in.policy);
        },
        setup, traced);
  }
  std::cerr << "setup: " << median(setup.total) << " s (median of "
            << setup.total.size() << ")\n";

  // ---- standalone Session: the reference events, then the closed loop
  // over the distinct streams (not in host_flood's end-to-end run).
  const auto reference = reference_events(*session, in.streams);
  const MatchResult q = quality(in.streams, reference);
  const double share = segment_frame_share(in.streams, reference);
  std::cerr << "reference: recall " << q.recall() << ", precision "
            << q.precision() << "\n";
  const double loop_s = a.trace ? S / 3 : S;
  const std::span<const Stream> loop_streams =
      std::span<const Stream>(in.streams)
          .first(std::min(sh.loop_streams, in.streams.size()));
  SessionLoop loop;
  if (a.trace || a.workload != "host_flood") {
    run_session_loop(*session, loop_streams, reference, loop_s, {}, loop);
    report.check(loop.deterministic,
                 "session loop: a pass's events differ from the reference");
    report.check(loop.ledger_ok,
                 "session loop: frames accepted != frames pushed");
    report.check(loop.allocations == 0,
                 "session loop: " + std::to_string(loop.allocations) +
                     " allocations in the measured window");
    std::cerr << "session loop: " << loop.fps() << " frames/s over "
              << loop.passes << " passes, " << loop.fastest_fps()
              << " frames/s over each stream's fastest pass\n";
  }

  // Serves the host workload's lanes (one lane per stream for
  // single_dense's traced host rows) for `seconds`.
  const auto serve = [&](core::MultiSessionHost& h,
                         const std::vector<Lane>& lanes, double seconds,
                         Tracing tr, HostRun& run) {
    init_sampled(run, lanes.size(), sh.sampled_lanes, a.seed);
    if (a.workload == "host_paced")
      run_paced(h, in.streams, lanes, sh.warm_ticks,
                static_cast<std::size_t>(seconds * 1000.0 / kFramePeriodMs),
                tr, run);
    else
      run_flood(h, in.streams, lanes, seconds, sh.burst, sh.checkpoint_s, tr,
                run);
  };

  if (!a.trace) {
    // ---- end-to-end run (untraced): the paced run or the flood, then the
    // end-to-end metrics.
    HostRun run;
    FastestOf replay_emit_us;
    const bool flood = a.workload == "host_flood";
    if (host_workload) {
      const auto lanes = make_lanes(in.streams, sh.lanes, a.seed);
      serve(*host, lanes, S, {}, run);
      host.reset();
      check_sampled_lanes(bundle, in.policy, in.streams, lanes, run, report,
                          a.workload, flood ? sh.replay_repeats : 1,
                          flood ? &replay_emit_us : nullptr);
      report.check(!run.window_fps.empty(),
                   a.workload + ": no frames/s window was measured");
      std::cerr << "host: " << run.fps() << " frames/s, " << run.offered
                << " frames offered\n";
    }
    const double fps =
        host_workload ? median(run.window_fps) : loop.fastest_fps();
    const FastestOf& emit_us = flood ? replay_emit_us : loop.emit_us;
    std::vector<double> delays = q.delays_ms;
    std::vector<Metric>& e = report.e2e;
    add(e, "setup_s", median(setup.total), "s");
    add(e, "frames_per_s", fps, "frames/s");
    add_q(e, "emit_p50_us", emit_us.percentile(50), 1.0, "us");
    add_q(e, "emit_p99_us", emit_us.percentile(99), 1.0, "us");
    add(e, "gesture_recall", q.recall(), "ratio");
    add(e, "gesture_precision", q.precision(), "ratio");
    add_q(e, "gesture_delay_p50_ms", percentile(delays, 50), 1.0, "ms");
    add(e, "peak_rss_mb", peak_rss_mb(), "MB");
    report.windows = {
        {"frames_per_s", run.window_fps},
        {"setup_s", setup.total}};
  } else {
    // ---- traced run: the per-layer table.
    std::vector<Metric>& m = report.layer;
    add(m, "core.trainer.build_bundle_s", median(setup.build), "s");
    add(m, "core.model_bundle.load_s", median(setup.load), "s");

    // The host rows: single_dense serves its own streams through a host
    // here (one lane per stream), so every workload measures them on its
    // own input.
    const std::size_t host_lanes = host_workload ? sh.lanes : in.streams.size();
    double construct_s = median(setup.construct);
    if (!host_workload) {
      const auto t0 = Clock::now();
      Scope span(traced.rec, names->construct, 0);
      host = make_host(bundle, host_lanes, in.policy, sh.ring_frames);
      construct_s = seconds_between(t0, Clock::now());
    }
    add(m, "core.multi_session_host.construct_s", construct_s, "s");
    // Every host row and latency_* come from an untraced serving phase; a
    // shorter traced phase on a fresh host records the host's spans.
    const auto lanes = make_lanes(in.streams, host_lanes, a.seed);
    HostRun run;
    serve(*host, lanes, 0.2 * S, {}, run);
    host.reset();
    const double single_fps = check_sampled_lanes(
        bundle, in.policy, in.streams, lanes, run, report, a.workload + " host");
    {
      HostRun spans_run;
      host = make_host(bundle, host_lanes, in.policy, sh.ring_frames);
      serve(*host, lanes, 0.1 * S, traced, spans_run);
      host.reset();
      check_sampled_lanes(bundle, in.policy, in.streams, lanes, spans_run,
                          report, a.workload + " traced host");
    }

    // Capacity: host_paced bisects a ladder from N/4 to 4N with paced runs
    // on fresh hosts; the closed loops report the rung their throughput
    // implies.
    std::size_t capacity = 0;
    if (a.workload == "host_paced")
      capacity = search_capacity(
          make_ladder(sh.lanes / 4, 4 * sh.lanes, 1.05), kFramePeriodMs,
          [&](std::size_t r) {
            return rung_latency(bundle, in, sh, r, a.seed, report);
          });
    else
      capacity = highest_rung_at_most(
          make_ladder(50, 200000, 1.05),
          (host_workload ? run.fps() : loop.fps()) /
              kSampleRateHz);
    add(m, "core.multi_session_host.capacity_streams",
        static_cast<double>(capacity), "streams");
    // The caller's latency: reported, not bounded (see README: on a
    // shared VM its run-to-run spread exceeds any allowed bound).
    const auto [latency, latency_scale] =
        caller_latency(a.workload, run, loop);
    add_w(m, "latency_p50_ms", latency.median_p50() * latency_scale, "ms",
          latency);
    add_w(m, "latency_p99_ms", latency.median_p99() * latency_scale, "ms",
          latency);
    std::vector<double> delays = q.delays_ms;
    add_q(m, "gesture_delay_p99_ms", percentile(delays, 99), 1.0, "ms");

    // Session rows: timings from the untraced loop; a traced pass over the
    // same streams gives the tracing overhead.
    add_q(m, "core.session.push_frame_p50_ns",
          percentile(loop.quiet_ns.values(), 50), 1.0, "ns");
    add_q(m, "core.session.push_frame_p99_ns",
          percentile(loop.quiet_ns.values(), 99), 1.0, "ns");
    add(m, "core.session.segment_frame_share", share, "ratio");
    add(m, "core.session.allocs_per_frame",
        loop.frames ? static_cast<double>(loop.allocations) / loop.frames
                    : 0.0,
        "count");
    SessionLoop traced_loop;
    run_session_loop(*session, loop_streams, reference, loop_s, traced,
                     traced_loop);

    LayerSamples ls;
    replay_layers(*bundle, in.policy, in.streams, reference, S / 6,
                  traced, ls);
    add_q(m, "core.model_bundle.decide_p50_ns", percentile(ls.decide, 50), 1.0,
          "ns");
    add_q(m, "core.model_bundle.decide_p99_ns", percentile(ls.decide, 99), 1.0,
          "ns");
    add(m, "core.model_bundle.decide_calls",
        static_cast<double>(ls.decide.size()), "count");
    add_q(m, "core.type_router.route_p50_ns", percentile(ls.route, 50), 1.0,
          "ns");
    add_q(m, "features.bank.extract_p50_ns", percentile(ls.extract, 50), 1.0,
          "ns");
    add_q(m, "features.bank.extract_p99_ns", percentile(ls.extract, 99), 1.0,
          "ns");
    add_q(m, "ml.compiled_forest.predict_p50_ns", percentile(ls.predict, 50),
          1.0, "ns");
    add_q(m, "ml.compiled_forest.predict_p99_ns", percentile(ls.predict, 99),
          1.0, "ns");
    add_q(m, "core.zebra.track_p50_ns", percentile(ls.track, 50), 1.0, "ns");
    add_q(m, "core.timing_cache.probe_p50_ns", percentile(ls.probe, 50), 1.0,
          "ns");
    add_q(m, "core.timing_cache.probe_p99_ns", percentile(ls.probe, 99), 1.0,
          "ns");
    add(m, "core.timing_cache.probe_calls",
        static_cast<double>(ls.probe.size()), "count");
    const double frames =
        static_cast<double>(std::max<std::uint64_t>(ls.frames, 1));
    add(m, "dsp.sbc.ns_per_frame", ls.sbc_ns / frames, "ns");
    add(m, "dsp.dynamic_threshold.ns_per_frame", ls.dt_ns / frames, "ns");
    add(m, "sensor.artifact.ns_per_frame", ls.artifact_ns / frames, "ns");

    host_layer_metrics(m, run, single_fps, shards);
    add(m, "synth.build_inputs_s", in.build_s, "s");
    add(m, "synth.frames_offered", static_cast<double>(run.offered), "frames");
    // Open loop: how late each tick started. Closed loop: the generator
    // offers as soon as it may, so its lag is its wait inside feed().
    std::vector<double> lag = run.lag_ms;
    if (lag.empty())
      for (double ns : run.feed_ns.values()) lag.push_back(ns / 1e6);
    add_q(m, "synth.gen_lag_p99_ms", percentile(lag, 99), 1.0, "ms");
    add(m, "trace.overhead_ratio",
        loop.fps() > 0 ? traced_loop.fps() / loop.fps() : 0.0, "ratio");
    // Reconciliation: the replayed layers' cost per frame against the
    // traced push_frame cost per frame over the same streams.
    const auto& pf = recorder->stats_of(names->push_frame);
    const double push_ns_per_frame =
        pf.count ? static_cast<double>(pf.total_ns) / pf.count : 0.0;
    const double replay_ns_per_frame =
        (ls.sbc_ns + ls.dt_ns + ls.artifact_ns + ls.decide_total_ns +
         ls.probe_total_ns) /
        frames;
    add(m, "trace.reconcile_ratio",
        push_ns_per_frame > 0 ? replay_ns_per_frame / push_ns_per_frame : 0.0,
        "ratio");

    std::cerr << "\nlayer self time (traced run):\n";
    for (const auto& st : recorder->stats()) {
      if (!st.count) continue;
      std::cerr << "  " << std::left << std::setw(36) << st.name << std::right
                << " count " << std::setw(10) << st.count << "  self "
                << std::setw(12) << st.self_ns / 1e6 << " ms  total "
                << std::setw(12) << st.total_ns / 1e6 << " ms\n";
    }
  }

  // ---- outputs: human-readable table, report file, trace file, result.
  std::filesystem::create_directories(a.out_dir);
  const std::string stem =
      a.out_dir + "/" + a.workload + "_seed" + std::to_string(a.seed) +
      (a.trace ? "_trace" : "");
  const auto fp = fingerprint(a);
  for (const auto& [k, v] : fp) std::cout << "# " << k << ": " << v << "\n";
  std::cout << "# workload: " << a.workload << " — "
            << workload_why(a.workload)
            << "\n# core.session.segment_frame_share: " << share << "\n";
  const auto print = [](const std::vector<Metric>& ms) {
    for (const auto& mt : ms) {
      std::cout << std::left << std::setw(46) << mt.name << std::right
                << std::setw(16) << std::setprecision(6) << mt.value << " "
                << mt.unit;
      if (mt.windows)
        std::cout << "  (n=" << mt.n << ", median of " << mt.windows
                  << " windows)";
      else if (mt.n)
        std::cout << "  (n=" << mt.n << ", beyond=" << mt.beyond << ")";
      std::cout << "\n";
    }
  };
  const std::vector<Metric>& shown = a.trace ? report.layer : report.e2e;
  print(shown);
  for (const auto& f : report.failures) std::cout << "FAILED: " << f << "\n";
  const bool correct = report.failed == 0;

  const auto metrics_json = [](const std::vector<Metric>& ms, bool counts) {
    std::ostringstream os;
    os << std::setprecision(17) << "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      os << (i ? ", " : "") << "\"" << ms[i].name
         << "\": {\"value\": " << ms[i].value << ", \"unit\": \""
         << ms[i].unit << "\"";
      if (counts && ms[i].windows)
        os << ", \"n\": " << ms[i].n << ", \"windows\": " << ms[i].windows;
      else if (counts && ms[i].n)
        os << ", \"n\": " << ms[i].n << ", \"beyond\": " << ms[i].beyond;
      os << "}";
    }
    os << "}";
    return os.str();
  };
  {
    std::ofstream out(stem + ".json");
    out << "{\n  \"fingerprint\": {";
    for (std::size_t i = 0; i < fp.size(); ++i)
      out << (i ? ", " : "") << "\"" << fp[i].first << "\": \""
          << json_escape(fp[i].second) << "\"";
    out << "},\n  \"workload\": \"" << a.workload << "\",\n  \"why\": \""
        << json_escape(workload_why(a.workload))
        << "\",\n  \"segment_frame_share\": " << share
        << ",\n  \"correct\": " << (correct ? "true" : "false")
        << ",\n  \"end_to_end\": " << metrics_json(report.e2e, true)
        << ",\n  \"per_layer\": " << metrics_json(report.layer, true)
        << ",\n  \"windows\": {";
    out << std::setprecision(9);
    for (std::size_t i = 0; i < report.windows.size(); ++i) {
      out << (i ? ", " : "") << "\"" << report.windows[i].first << "\": [";
      const auto& w = report.windows[i].second;
      for (std::size_t j = 0; j < w.size(); ++j) out << (j ? ", " : "") << w[j];
      out << "]";
    }
    out << "}\n}\n";
  }
  if (recorder) {
    std::ofstream out(stem + ".chrome.json");
    recorder->write_chrome(out);
    std::cout << "# chrome trace: " << stem << ".chrome.json ("
              << recorder->kept() << " spans kept, " << recorder->dropped()
              << " aggregated only)\n";
  }
  std::cout << "# report: " << stem << ".json\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed
            << ", \"metrics\": " << metrics_json(shown, false) << "}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "perfbench: " << k << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() != "0";
    else if (k == "--tiny") a.tiny = true;
    else if (k == "--out") a.out_dir = value();
    else if (k == "--git-rev") a.git_rev = value();
    else {
      std::cerr << "perfbench: unknown argument " << k << "\n";
      return 2;
    }
  }
  if (a.workload != "single_dense" && a.workload != "host_paced" &&
      a.workload != "host_flood") {
    std::cerr << "perfbench: --workload must be single_dense, host_paced or "
                 "host_flood\n";
    return 2;
  }
  if (!(a.seconds > 0)) {
    std::cerr << "perfbench: --seconds must be positive\n";
    return 2;
  }
  try {
    return perfbench::run(a);
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: " << ex.what() << "\n";
    return 1;
  }
}
