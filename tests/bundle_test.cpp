// Tests for the ModelBundle / Session split: single-file artifact
// round-trips (bit-identical predictions), legacy two-file loading,
// malformed-input rejection, the feature plan decide() extracts with,
// zero-copy shared ownership of the models, and MultiSessionHost event
// equivalence with standalone sessions.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/airfinger.hpp"
#include "core/multi_session_host.hpp"
#include "core/trainer.hpp"
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

/// Probe recordings the loaded models must agree on, byte for byte.
const synth::Dataset& probe_corpus() {
  static const synth::Dataset probes = [] {
    synth::CollectionConfig config;
    config.users = 1;
    config.sessions = 1;
    config.repetitions = 1;
    config.kinds = {synth::MotionKind::kCircle, synth::MotionKind::kClick,
                    synth::MotionKind::kScrollUp,
                    synth::MotionKind::kScrollDown};
    config.seed = 404;
    return synth::DatasetBuilder(config).collect();
  }();
  return probes;
}

void expect_events_identical(const std::vector<core::GestureEvent>& a,
                             const std::vector<core::GestureEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    SCOPED_TRACE("event " + std::to_string(e));
    EXPECT_EQ(a[e].type, b[e].type);
    // Bit-exact double comparisons: the contract is bit identity.
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

TEST(Bundle, RoundTripIsBitIdentical) {
  const auto& original = trained_bundle();

  std::stringstream artifact;
  original->save(artifact);
  const auto loaded = core::ModelBundle::load(artifact);

  // The trained calibration travels with the artifact, exactly.
  EXPECT_EQ(loaded->config().zebra.velocity_gain,
            original->config().zebra.velocity_gain);
  EXPECT_EQ(loaded->config().sample_rate_hz,
            original->config().sample_rate_hz);
  EXPECT_EQ(loaded->config().channels, original->config().channels);
  EXPECT_EQ(loaded->config().interference_filtering,
            original->config().interference_filtering);
  EXPECT_EQ(loaded->recognizer().selected_features(),
            original->recognizer().selected_features());
  ASSERT_TRUE(loaded->filter().has_value());
  EXPECT_EQ(loaded->filter()->feature_indices(),
            original->filter()->feature_indices());

  // Bit-identical predictions over the pinned probe corpus.
  for (const auto& probe : probe_corpus().samples)
    expect_events_identical(original->classify_recording(probe.trace),
                            loaded->classify_recording(probe.trace));

  // Save → load → save is byte-stable (hex-float exactness end to end).
  std::stringstream resaved;
  loaded->save(resaved);
  std::stringstream first;
  original->save(first);
  EXPECT_EQ(first.str(), resaved.str());
}

TEST(Bundle, LegacyTwoFileLoadMatchesBundle) {
  const auto& original = trained_bundle();
  ASSERT_TRUE(original->filter().has_value());

  std::stringstream rec_file, filter_file;
  original->recognizer().save(rec_file);
  original->filter()->save(filter_file);

  // The legacy pair carries no engine config; supply the trained scalars
  // through `base` the way pre-bundle deployments configured the engine.
  const auto loaded =
      core::ModelBundle::load_legacy(rec_file, &filter_file,
                                     original->config());
  for (const auto& probe : probe_corpus().samples)
    expect_events_identical(original->classify_recording(probe.trace),
                            loaded->classify_recording(probe.trace));
}

TEST(Bundle, LegacyLoadWithoutFilterDisablesFiltering) {
  const auto& original = trained_bundle();
  std::stringstream rec_file;
  original->recognizer().save(rec_file);
  const auto loaded = core::ModelBundle::load_legacy(rec_file, nullptr);
  EXPECT_FALSE(loaded->config().interference_filtering);
  EXPECT_FALSE(loaded->filter().has_value());
  // Still a functional engine.
  const auto events =
      loaded->classify_recording(probe_corpus().samples.front().trace);
  for (const auto& e : events)
    EXPECT_NE(e.type, core::GestureEvent::Type::kNonGesture);
}

TEST(Bundle, MalformedHeaderRejected) {
  std::stringstream wrong_tag("not_a_bundle 1\n");
  EXPECT_THROW(core::ModelBundle::load(wrong_tag), PreconditionError);
  std::stringstream bad_version("afbundle 99\n");
  EXPECT_THROW(core::ModelBundle::load(bad_version), PreconditionError);
  std::stringstream empty;
  EXPECT_THROW(core::ModelBundle::load(empty), PreconditionError);
}

TEST(Bundle, TruncatedArtifactRejected) {
  std::stringstream artifact;
  trained_bundle()->save(artifact);
  const std::string full = artifact.str();
  // Cut at several depths: inside the config block, inside the forest,
  // and just before the trailing end tag. Every cut must throw, never
  // yield a silently half-loaded model.
  for (const double fraction : {0.01, 0.1, 0.5, 0.9, 0.999}) {
    SCOPED_TRACE("fraction " + std::to_string(fraction));
    std::stringstream cut(full.substr(
        0, static_cast<std::size_t>(fraction *
                                    static_cast<double>(full.size()))));
    EXPECT_THROW(core::ModelBundle::load(cut), PreconditionError);
  }
}

// Fuzz-style robustness: every corrupted artifact — truncated anywhere or
// bit-flipped anywhere — must be rejected with PreconditionError. Never a
// crash, a hang, a runaway allocation, or a silently half-loaded bundle.
// The integrity footer makes this airtight: load() verifies the payload
// checksum before any model parsing. Seeded and deterministic (~1k cases);
// also exercised under ASan via tools/run_checks.sh.
TEST(Bundle, FuzzedArtifactsAlwaysRejectedNeverCrash) {
  std::stringstream artifact;
  trained_bundle()->save(artifact);
  const std::string full = artifact.str();
  ASSERT_GT(full.size(), 1000u);
  common::Rng rng(0xF00DFACE);

  const auto expect_rejected = [](const std::string& bytes,
                                  const std::string& what) {
    std::stringstream mangled(bytes);
    try {
      const auto bundle = core::ModelBundle::load(mangled);
      ADD_FAILURE() << what << ": corrupted artifact loaded successfully";
    } catch (const PreconditionError&) {
      // The one acceptable outcome.
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": wrong exception type: " << e.what();
    }
  };

  // Random truncations, including length 0 and cuts inside the footer.
  for (int c = 0; c < 512; ++c) {
    const auto cut = static_cast<std::size_t>(rng.below(full.size()));
    expect_rejected(full.substr(0, cut),
                    "truncation at " + std::to_string(cut));
  }

  // Random bit flips (1–8 per case) anywhere in the artifact.
  for (int c = 0; c < 512; ++c) {
    std::string mangled = full;
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(rng.below(mangled.size()));
      mangled[at] = static_cast<char>(
          static_cast<unsigned char>(mangled[at]) ^
          (1u << static_cast<unsigned>(rng.below(8))));
    }
    if (mangled == full) continue;  // flips cancelled each other out
    expect_rejected(mangled, "bit flips, case " + std::to_string(c));
  }
}

TEST(Bundle, SniffDistinguishesFormatsAndRestoresStream) {
  std::stringstream artifact;
  trained_bundle()->save(artifact);
  EXPECT_TRUE(core::ModelBundle::sniff_bundle(artifact));
  // The sniff must not consume the stream: a full load still works.
  EXPECT_NO_THROW(core::ModelBundle::load(artifact));

  std::stringstream legacy;
  trained_bundle()->recognizer().save(legacy);
  EXPECT_FALSE(core::ModelBundle::sniff_bundle(legacy));
  EXPECT_NO_THROW(core::DetectRecognizer::load(legacy));
}

// ----------------------------------------------------------- feature plan

/// The plan a bundle should derive: its recognizer's columns, plus its
/// filter's when interference filtering is on.
std::vector<std::uint8_t> expected_plan(const core::ModelBundle& bundle) {
  std::vector<std::uint8_t> plan(
      bundle.recognizer().bank().feature_count(), 0);
  for (const std::size_t c : bundle.recognizer().selected_features())
    plan[c] = 1;
  if (bundle.config().interference_filtering)
    for (const std::size_t c : bundle.filter()->feature_indices())
      plan[c] = 1;
  return plan;
}

TEST(BundlePlan, IsRecognizerPlusFilterColumns) {
  const auto& bundle = trained_bundle();
  ASSERT_TRUE(bundle->config().interference_filtering);
  const auto& plan = bundle->recognizer().feature_plan();
  EXPECT_EQ(plan, expected_plan(*bundle));
  // The filter reads at least one column the recognizer does not, and the
  // plan is a strict subset of the bank.
  const auto& selected = bundle->recognizer().selected_features();
  EXPECT_GT(std::count(plan.begin(), plan.end(), 1),
            static_cast<std::ptrdiff_t>(selected.size()));
  EXPECT_LT(std::count(plan.begin(), plan.end(), 1),
            static_cast<std::ptrdiff_t>(plan.size()));
}

TEST(BundlePlan, DropsFilterColumnsWhenFilteringIsOff) {
  const auto& bundle = trained_bundle();
  core::AirFingerConfig config = bundle->config();
  config.interference_filtering = false;
  const auto unfiltered =
      core::ModelBundle::create(config, bundle->recognizer(),
                                bundle->filter());
  const auto& plan = unfiltered->recognizer().feature_plan();
  EXPECT_EQ(plan, expected_plan(*unfiltered));
  EXPECT_EQ(static_cast<std::size_t>(std::count(plan.begin(), plan.end(), 1)),
            bundle->recognizer().selected_features().size());
}

TEST(BundlePlan, SurvivesSaveLoadRoundTrip) {
  const auto& bundle = trained_bundle();
  std::stringstream artifact;
  bundle->save(artifact);
  const auto loaded = core::ModelBundle::load(artifact);
  EXPECT_EQ(loaded->recognizer().feature_plan(),
            bundle->recognizer().feature_plan());
}

/// Which decide() branches the reference took over a corpus.
struct BranchCounts {
  int detect = 0;
  int track = 0;
  int rejected = 0;
  int hybrid_override = 0;
};

/// decide() rebuilt from the full feature row: full-bank extract() →
/// predict_proba_into → filter, with the router and ZEBRA called directly.
core::GestureEvent reference_decide(const core::ModelBundle& bundle,
                                    const core::ProcessedTrace& view,
                                    const dsp::Segment& local,
                                    BranchCounts& seen) {
  const core::AirFingerConfig& config = bundle.config();
  common::ScratchArena arena;
  core::GestureEvent event;
  core::GestureCategory category = bundle.router().route(view, local);

  const dsp::Segment padded =
      core::pad_segment(local, view.energy.size(),
                        config.processing.feature_pad_s, view.sample_rate_hz);
  std::vector<std::span<const double>> windows;
  for (const auto& ch : view.delta_rss2)
    windows.emplace_back(ch.data() + padded.begin, padded.length());
  const std::vector<double> row = bundle.recognizer().extract(windows);
  std::vector<double> proba(bundle.recognizer().num_classes());
  bundle.recognizer().predict_proba_into(row, arena, proba);
  const auto argmax = [&] {
    return static_cast<int>(std::max_element(proba.begin(), proba.end()) -
                            proba.begin());
  };

  if (config.hybrid_routing &&
      proba[static_cast<std::size_t>(argmax())] >=
          config.hybrid_override_margin) {
    const core::GestureCategory classified =
        synth::is_track_aimed(static_cast<synth::MotionKind>(argmax()))
            ? core::GestureCategory::kTrackAimed
            : core::GestureCategory::kDetectAimed;
    if (classified != category) ++seen.hybrid_override;
    category = classified;
  }
  if (category == core::GestureCategory::kTrackAimed) {
    if (const auto estimate = bundle.zebra().track(view, local)) {
      ++seen.track;
      event.type = core::GestureEvent::Type::kScrollDetected;
      event.scroll = *estimate;
      return event;
    }
  }
  if (config.interference_filtering &&
      bundle.filter()->gesture_probability_with(row, arena) <
          config.rejection_threshold) {
    ++seen.rejected;
    event.type = core::GestureEvent::Type::kNonGesture;
    return event;
  }
  int label = argmax();
  if (synth::is_track_aimed(static_cast<synth::MotionKind>(label))) {
    double best_p = -1.0;
    for (std::size_t c = 0; c < proba.size(); ++c) {
      if (synth::is_track_aimed(static_cast<synth::MotionKind>(c))) continue;
      if (proba[c] > best_p) {
        best_p = proba[c];
        label = static_cast<int>(c);
      }
    }
  }
  ++seen.detect;
  event.type = core::GestureEvent::Type::kDetectGesture;
  event.gesture = static_cast<synth::MotionKind>(label);
  return event;
}

TEST(BundlePlan, DecideMatchesFullRowReference) {
  const auto& bundle = trained_bundle();
  // Every motion kind, interference included, from users the bundle was
  // not trained on.
  synth::CollectionConfig corpus;
  corpus.users = 6;
  corpus.sessions = 1;
  corpus.repetitions = 2;
  corpus.kinds.assign(synth::all_gestures().begin(),
                      synth::all_gestures().end());
  corpus.kinds.insert(corpus.kinds.end(), synth::non_gestures().begin(),
                      synth::non_gestures().end());
  corpus.seed = 505;
  const synth::Dataset data = synth::DatasetBuilder(corpus).collect();

  BranchCounts seen;
  std::size_t segments = 0;
  features::Workspace workspace;  // reused, as a Session reuses it
  for (const auto& sample : data.samples) {
    core::DataProcessorConfig processing = bundle->config().processing;
    processing.segmenter.sample_rate_hz = sample.trace.sample_rate_hz();
    const core::ProcessedTrace view =
        core::DataProcessor(processing).process(sample.trace);
    for (const dsp::Segment& segment : view.segments) {
      SCOPED_TRACE("segment " + std::to_string(segments));
      ++segments;
      const core::GestureEvent got = bundle->decide(view, segment, workspace);
      const core::GestureEvent want =
          reference_decide(*bundle, view, segment, seen);
      expect_events_identical({got}, {want});
    }
  }
  EXPECT_GT(segments, 0u);
  EXPECT_GT(seen.detect, 0);
  EXPECT_GT(seen.track, 0);
  EXPECT_GT(seen.rejected, 0);
  EXPECT_GT(seen.hybrid_override, 0);
}

TEST(Session, ConstructionSharesModelsWithoutCopying) {
  const auto& bundle = trained_bundle();
  const long count_before = bundle.use_count();

  core::Session a(bundle);
  core::Session b(bundle);

  // Shared ownership, not copies: both sessions reference the same bundle
  // object, and the forests live at the same addresses.
  EXPECT_EQ(bundle.use_count(), count_before + 2);
  EXPECT_EQ(&a.bundle(), bundle.get());
  EXPECT_EQ(&b.bundle(), bundle.get());
  EXPECT_EQ(&a.bundle().recognizer(), &bundle->recognizer());
  EXPECT_EQ(&b.bundle().recognizer(), &a.bundle().recognizer());
  ASSERT_TRUE(a.bundle().filter().has_value());
  EXPECT_EQ(&*a.bundle().filter(), &*bundle->filter());

  // The AirFinger façade shares the same way.
  core::AirFinger engine(bundle);
  EXPECT_EQ(engine.bundle().get(), bundle.get());
  EXPECT_EQ(bundle.use_count(), count_before + 3);
}

TEST(Session, IndependentSessionsMatchSerialReplay) {
  const auto& bundle = trained_bundle();
  const auto& probes = probe_corpus();

  // Replaying through one reused engine (reset between traces) and through
  // fresh per-trace sessions must agree event for event.
  core::AirFinger engine(bundle);
  for (const auto& probe : probes.samples) {
    engine.reset();
    std::vector<core::GestureEvent> via_engine =
        engine.process_trace(probe.trace);
    core::Session fresh(bundle);
    expect_events_identical(via_engine, fresh.process_trace(probe.trace));
  }
}

TEST(MultiSessionHost, MatchesStandaloneSessions) {
  const auto& bundle = trained_bundle();
  const auto& probes = probe_corpus();

  std::vector<sensor::MultiChannelTrace> traces;
  for (const auto& probe : probes.samples) traces.push_back(probe.trace);

  core::MultiSessionHost host(bundle, traces.size());
  const auto hosted = host.run_round_robin(traces, 37);

  // Split the host's event stream back per session and compare with a
  // standalone Session replay of the same trace.
  std::vector<std::vector<core::GestureEvent>> per_session(traces.size());
  std::size_t last_session = 0;
  for (const auto& e : hosted) {
    ASSERT_LT(e.session, traces.size());
    // drain() order: session-major.
    ASSERT_GE(e.session, last_session);
    last_session = e.session;
    per_session[e.session].push_back(e.event);
  }
  for (std::size_t i = 0; i < traces.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    core::Session standalone(bundle);
    expect_events_identical(per_session[i],
                            standalone.process_trace(traces[i]));
  }
  EXPECT_EQ(host.frames_processed(),
            [&] {
              std::uint64_t total = 0;
              for (const auto& t : traces) total += t.sample_count();
              return total;
            }());
}

TEST(MultiSessionHost, ValidatesInput) {
  const auto& bundle = trained_bundle();
  EXPECT_THROW(core::MultiSessionHost(nullptr, 2), PreconditionError);
  EXPECT_THROW(core::MultiSessionHost(bundle, 0), PreconditionError);
  core::MultiSessionHost host(bundle, 2);
  const std::vector<double> bad_frame(bundle->config().channels + 1, 0.0);
  EXPECT_THROW(host.feed(0, bad_frame), PreconditionError);
  EXPECT_THROW(host.feed(5, std::vector<double>(3, 0.0)),
               PreconditionError);
  EXPECT_THROW(host.run_round_robin({}), PreconditionError);
}

}  // namespace
}  // namespace airfinger
