// Locks the bit-identity invariants of the inference hot path (DESIGN.md
// §11): the compiled SoA forest must predict exactly what the reference
// tree walk predicts, and a reused extraction workspace must change
// nothing.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>

#include <gtest/gtest.h>

#include "features/bank.hpp"
#include "ml/compiled_forest.hpp"
#include "ml/random_forest.hpp"

namespace {

using namespace airfinger;

// Exact bit equality: the invariant is "same bits", not "close".
void expect_bits(double a, double b, const char* what) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  EXPECT_EQ(ba, bb) << what << ": " << a << " vs " << b;
}

ml::SampleSet make_training_set(std::size_t rows, std::size_t cols,
                                int classes, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  ml::SampleSet set;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> row(cols);
    for (auto& v : row) v = value(rng);
    // Label correlates with a feature sum so the trees learn real splits.
    double s = 0.0;
    for (std::size_t c = 0; c < cols; c += 2) s += row[c];
    const int label =
        std::min(classes - 1,
                 std::max(0, static_cast<int>(s + classes / 2.0)));
    set.features.push_back(std::move(row));
    set.labels.push_back(label);
  }
  // Make sure every class appears at least once.
  for (int k = 0; k < classes; ++k) set.labels[static_cast<std::size_t>(k)] = k;
  return set;
}

TEST(CompiledForest, BitIdenticalToReferenceForest) {
  constexpr std::size_t kCols = 12;
  ml::RandomForestConfig config;
  config.num_trees = 20;
  config.seed = 99;
  ml::RandomForest forest(config);
  forest.fit(make_training_set(160, kCols, 4, 7));
  const ml::CompiledForest compiled(forest);
  ASSERT_TRUE(compiled.compiled());
  ASSERT_EQ(compiled.tree_count(), config.num_trees);

  std::mt19937_64 rng(123);
  std::uniform_real_distribution<double> value(-3.0, 3.0);
  std::vector<double> x(kCols);
  std::vector<double> proba_into(compiled.num_classes());
  for (int trial = 0; trial < 500; ++trial) {
    for (auto& v : x) v = value(rng);
    const std::vector<double> ref = forest.predict_proba(x);
    ASSERT_EQ(ref.size(), compiled.num_classes());
    const std::vector<double> got = compiled.predict_proba(x);
    compiled.predict_proba_into(x, proba_into);
    for (std::size_t c = 0; c < ref.size(); ++c) {
      expect_bits(ref[c], got[c], "predict_proba");
      expect_bits(ref[c], proba_into[c], "predict_proba_into");
    }
    EXPECT_EQ(forest.predict(x), compiled.predict(x));
  }
}

TEST(CompiledForest, ForestIntoOverloadMatchesAllocatingPath) {
  constexpr std::size_t kCols = 6;
  ml::RandomForestConfig config;
  config.num_trees = 8;
  config.seed = 4242;
  ml::RandomForest forest(config);
  forest.fit(make_training_set(80, kCols, 3, 21));

  std::mt19937_64 rng(55);
  std::uniform_real_distribution<double> value(-3.0, 3.0);
  std::vector<double> x(kCols);
  std::vector<double> out(forest.num_classes());
  for (int trial = 0; trial < 200; ++trial) {
    for (auto& v : x) v = value(rng);
    const std::vector<double> ref = forest.predict_proba(x);
    forest.predict_proba_into(x, out);
    ASSERT_EQ(ref.size(), out.size());
    for (std::size_t c = 0; c < ref.size(); ++c)
      expect_bits(ref[c], out[c], "forest predict_proba_into");
  }
}

// A reused workspace arena (the per-session steady state) must leave no
// trace: repeated extract_into over different windows matches a fresh
// allocating extract() exactly, bit for bit.
TEST(WorkspaceReuse, RepeatedExtractIntoMatchesFreshExtract) {
  const features::FeatureBank bank;
  features::Workspace workspace;
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> value(0.0, 5.0);

  std::vector<double> out(bank.feature_count());
  for (int trial = 0; trial < 8; ++trial) {
    // Varying window lengths exercise arena frames of different sizes, so
    // later (smaller) extractions reuse blocks sized by earlier ones.
    const std::size_t n = 24 + static_cast<std::size_t>(trial) * 17;
    std::vector<std::vector<double>> channels(3, std::vector<double>(n));
    for (auto& ch : channels)
      for (auto& v : ch) v = value(rng);
    std::vector<std::span<const double>> windows(channels.begin(),
                                                 channels.end());
    const std::span<const std::span<const double>> span_windows(windows);

    const std::vector<double> fresh = bank.extract(span_windows);
    bank.extract_into(span_windows, workspace, out);
    ASSERT_EQ(fresh.size(), out.size());
    for (std::size_t i = 0; i < fresh.size(); ++i)
      expect_bits(fresh[i], out[i], bank.names()[i].c_str());

    // Second pass over the same window with the warm workspace.
    bank.extract_into(span_windows, workspace, out);
    for (std::size_t i = 0; i < fresh.size(); ++i)
      expect_bits(fresh[i], out[i], bank.names()[i].c_str());
  }
}

}  // namespace
