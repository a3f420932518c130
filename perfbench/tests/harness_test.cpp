// Unit tests for the benchmark's own harness: the ground-truth matcher on
// hand-built cases, the percentile helper's values and sample counts, the
// fastest-of estimator and the capacity ladder.
// Build and run with `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using airfinger::core::GestureEvent;
using airfinger::core::ScrollEstimate;
using airfinger::synth::MotionKind;
using perfbench::Truth;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

GestureEvent detect(MotionKind kind, std::size_t begin, std::size_t end,
                    double time_s) {
  GestureEvent e;
  e.type = GestureEvent::Type::kDetectGesture;
  e.gesture = kind;
  e.segment_begin = begin;
  e.segment_end = end;
  e.time_s = time_s;
  return e;
}

GestureEvent scroll(GestureEvent::Type type, double direction,
                    std::size_t begin, std::size_t end, double time_s) {
  GestureEvent e;
  e.type = type;
  e.scroll = ScrollEstimate{};
  e.scroll->direction = direction;
  e.segment_begin = begin;
  e.segment_end = end;
  e.time_s = time_s;
  return e;
}

void merged_segment() {
  // One streaming segment spanning three ground-truth gestures can match
  // only one of them.
  const std::vector<Truth> truths{{212, 320, MotionKind::kCircle},
                                  {440, 493, MotionKind::kClick},
                                  {593, 684, MotionKind::kRub}};
  const auto r = perfbench::match_events(
      truths, {detect(MotionKind::kClick, 181, 700, 7.3)}, 100.0);
  expect(r.truths == 3 && r.detections == 1 && r.matched == 1,
         "merged segment: one match out of three truths");
  expect(near(r.recall(), 1.0 / 3.0), "merged segment: recall 1/3");
  expect(near(r.precision(), 1.0), "merged segment: precision 1");
  expect(r.delays_ms.size() == 1 && near(r.delays_ms[0], 7300.0 - 4930.0),
         "merged segment: delay from the matched truth's end");
}

void early_scroll_direction() {
  // The early direction verdict and the final event of the same segment
  // are one detection; the early verdict's direction matches.
  const std::vector<Truth> truths{{100, 200, MotionKind::kScrollUp}};
  const std::vector<GestureEvent> events{
      scroll(GestureEvent::Type::kScrollDirection, +1.0, 95, 150, 1.5),
      scroll(GestureEvent::Type::kScrollDetected, -1.0, 95, 230, 2.3)};
  const auto r = perfbench::match_events(truths, events, 100.0);
  expect(r.detections == 1 && r.matched == 1,
         "early direction: both events form one matched detection");
  expect(r.delays_ms.size() == 1 && near(r.delays_ms[0], 300.0),
         "early direction: the delay runs to the segment-closing event");

  // A scroll the final event alone gets right still matches.
  const std::vector<Truth> down{{100, 200, MotionKind::kScrollDown}};
  const auto d = perfbench::match_events(down, events, 100.0);
  expect(d.matched == 1 && d.delays_ms.size() == 1 &&
             near(d.delays_ms[0], 300.0),
         "early direction: the final scroll event's direction also counts");
}

void wrong_class() {
  const std::vector<Truth> truths{{100, 200, MotionKind::kCircle}};
  const auto r = perfbench::match_events(
      truths, {detect(MotionKind::kRub, 90, 210, 2.4)}, 100.0);
  expect(r.matched == 0 && near(r.recall(), 0.0) && near(r.precision(), 0.0),
         "wrong class: an overlapping detection of another class misses");
}

void unmatched_event() {
  const std::vector<Truth> truths{{100, 200, MotionKind::kCircle}};
  GestureEvent rejected;
  rejected.type = GestureEvent::Type::kNonGesture;
  rejected.segment_begin = 300;
  rejected.segment_end = 350;
  const auto r = perfbench::match_events(
      truths,
      {detect(MotionKind::kCircle, 100, 210, 2.4), rejected,
       detect(MotionKind::kClick, 500, 600, 6.2)},
      100.0);
  expect(r.detections == 2, "unmatched event: rejections claim nothing");
  expect(near(r.recall(), 1.0) && near(r.precision(), 0.5),
         "unmatched event: halves precision, recall intact");
}

void event_comparison() {
  const GestureEvent a = detect(MotionKind::kCircle, 100, 210, 2.4);
  GestureEvent b = a;
  expect(perfbench::same_events({a}, {b}), "events: a copy compares equal");
  b.time_s = std::nextafter(b.time_s, 3.0);
  expect(!perfbench::same_events({a}, {b}),
         "events: a one-ulp time difference is a mismatch");
  expect(!perfbench::same_events({a}, {a, a}),
         "events: a missing event is a mismatch");
  GestureEvent s1 = scroll(GestureEvent::Type::kScrollDetected, 1.0, 1, 9, 0.1);
  GestureEvent s2 = s1;
  s2.scroll->velocity_mps = -0.0;
  s1.scroll->velocity_mps = 0.0;
  expect(!perfbench::same_events({s1}, {s2}),
         "events: scroll fields compare by bit pattern (0.0 vs -0.0)");
}

void percentile_helper() {
  std::vector<double> x;
  for (int i = 100; i >= 1; --i) x.push_back(i);
  const auto p50 = perfbench::percentile(x, 50);
  expect(near(p50.value, 50) && p50.n == 100 && p50.beyond == 50,
         "percentile: p50 of 1..100 is 50 with 50 beyond");
  const auto p99 = perfbench::percentile(x, 99);
  expect(near(p99.value, 99) && p99.n == 100 && p99.beyond == 1,
         "percentile: p99 of 1..100 is 99 with one sample beyond");
  std::vector<double> small{3.0, 1.0, 2.0};
  const auto top = perfbench::percentile(small, 99);
  expect(near(top.value, 3.0) && top.n == 3 && top.beyond == 0,
         "percentile: p99 of three samples is their maximum");
  std::vector<double> none;
  const auto empty = perfbench::percentile(none, 50);
  expect(empty.n == 0 && empty.value == 0.0,
         "percentile: an empty sample reports n = 0");
  expect(near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5),
         "median: even count averages the middle pair");
}

void fastest_of() {
  perfbench::FastestOf f;
  f.reserve(3);
  // Three items over three repeats; noise only ever adds time.
  const double runs[3][3] = {{5, 9, 2}, {4, 12, 3}, {6, 8, 7}};
  for (const auto& run : runs)
    for (std::size_t item = 0; item < 3; ++item) f.add(item, run[item]);
  expect(f.items() == 3 && f.samples() == 9,
         "fastest-of: counts items and samples");
  expect(near(f.sum(), 4 + 8 + 2), "fastest-of: sums each item's minimum");
  const auto p50 = f.percentile(50);
  expect(near(p50.value, 4) && p50.n == 3 && p50.beyond == 1,
         "fastest-of: percentiles over the minima count items");
  f.add(5, 1.0);  // items first seen late; the gap holds no time
  expect(f.items() == 6 && near(f.sum(), 15) && f.percentile(50).n == 4,
         "fastest-of: unseen items count neither in sums nor percentiles");
}

void ladder() {
  const auto rungs = perfbench::make_ladder(100, 200, 1.05);
  bool increasing = true;
  for (std::size_t i = 1; i < rungs.size(); ++i) {
    increasing = increasing && rungs[i] > rungs[i - 1];
    increasing = increasing &&
                 static_cast<double>(rungs[i]) / rungs[i - 1] <= 1.06;
  }
  expect(rungs.front() == 100 && rungs.back() >= 200 && increasing,
         "ladder: rungs rise from lo past hi, at most ~5% apart");
  expect(perfbench::highest_rung_at_most(rungs, 111.0) == 110,
         "ladder: highest rung at most x");

  // Capacity search on a synthetic host whose latency is affine in the
  // stream count: 0.5 ms + 3 us per stream crosses 10 ms at 3167 streams.
  const auto ladder = perfbench::make_ladder(1600, 6400, 1.05);
  int probes = 0;
  const auto affine = [&](std::size_t n) {
    ++probes;
    return 0.5 + 0.003 * static_cast<double>(n);
  };
  const std::size_t want = perfbench::highest_rung_at_most(ladder, 9.5 / 0.003);
  const std::size_t got = perfbench::search_capacity(ladder, 10.0, affine);
  expect(got == want && got < 9.5 / 0.003 && got * 1.05 > 9.5 / 0.003,
         "capacity search: finds the last passing rung");
  expect(probes <= 5, "capacity search: bisects in log2(rungs) probes");
  expect(perfbench::search_capacity(ladder, 10.0,
                                    [](std::size_t) { return 50.0; }) == 0,
         "capacity search: 0 when even the lowest rung fails");
  expect(perfbench::search_capacity(ladder, 10.0,
                                    [](std::size_t) { return 1.0; }) ==
             ladder.back(),
         "capacity search: the top rung when every rung passes");
}

}  // namespace

int main() {
  merged_segment();
  early_scroll_direction();
  wrong_class();
  unmatched_event();
  event_comparison();
  percentile_helper();
  fastest_of();
  ladder();
  if (g_failures) {
    std::cerr << g_failures << " harness check(s) failed\n";
    return 1;
  }
  std::cout << "harness tests passed\n";
  return 0;
}
