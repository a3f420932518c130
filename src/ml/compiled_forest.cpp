#include "ml/compiled_forest.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace airfinger::ml {

CompiledForest::CompiledForest(const RandomForest& forest)
    : num_classes_(static_cast<std::size_t>(forest.num_classes())) {
  AF_EXPECT(forest.tree_count() >= 1,
            "CompiledForest requires a fitted forest");
  AF_EXPECT(num_classes_ >= 1, "CompiledForest requires at least one class");
  std::size_t total_nodes = 0;
  for (const auto& tree : forest.trees()) total_nodes += tree.node_count();
  feature_.reserve(total_nodes);
  threshold_.reserve(total_nodes);
  child_.reserve(total_nodes);
  leaf_offset_.reserve(total_nodes);
  roots_.reserve(forest.tree_count());
  for (const auto& tree : forest.trees())
    roots_.push_back(static_cast<std::int32_t>(flatten(tree)));
}

std::size_t CompiledForest::flatten(const DecisionTree& tree) {
  const std::vector<DecisionTree::Node>& nodes = tree.nodes();
  AF_EXPECT(!nodes.empty(), "CompiledForest requires fitted trees");
  const std::size_t base = feature_.size();

  // Breadth-first re-numbering placing each internal node's two children
  // adjacently, so traversal computes child_[i] + (went_right ? 1 : 0).
  // DecisionTree stores its root at index 0.
  std::vector<std::size_t> order{0};
  std::vector<std::int32_t> renumbered(nodes.size(), -1);
  renumbered[0] = static_cast<std::int32_t>(base);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const DecisionTree::Node& node = nodes[order[head]];
    if (node.is_leaf()) continue;
    const auto left = static_cast<std::size_t>(node.left);
    const auto right = static_cast<std::size_t>(node.right);
    renumbered[left] =
        static_cast<std::int32_t>(base + order.size());
    renumbered[right] =
        static_cast<std::int32_t>(base + order.size() + 1);
    order.push_back(left);
    order.push_back(right);
  }

  for (std::size_t old_idx : order) {
    const DecisionTree::Node& node = nodes[old_idx];
    if (node.is_leaf()) {
      AF_EXPECT(node.distribution.size() <= num_classes_,
                "tree class count exceeds the forest's");
      feature_.push_back(-1);
      threshold_.push_back(0.0);
      child_.push_back(-1);
      leaf_offset_.push_back(static_cast<std::int32_t>(leaf_dist_.size()));
      leaf_dist_.insert(leaf_dist_.end(), node.distribution.begin(),
                        node.distribution.end());
      leaf_dist_.resize(leaf_dist_.size() +
                            (num_classes_ - node.distribution.size()),
                        0.0);
    } else {
      feature_.push_back(node.feature);
      threshold_.push_back(node.threshold);
      child_.push_back(renumbered[static_cast<std::size_t>(node.left)]);
      leaf_offset_.push_back(-1);
    }
  }
  return base;
}

void CompiledForest::predict_proba_into(std::span<const double> x,
                                        std::span<double> out) const {
  AF_EXPECT(compiled(), "predict requires a compiled forest");
  AF_EXPECT(out.size() == num_classes_,
            "predict_proba output size must match the class count");
  const std::int32_t* feature = feature_.data();
  const double* threshold = threshold_.data();
  const std::int32_t* child = child_.data();
  const double* leaves = leaf_dist_.data();
  for (double& v : out) v = 0.0;
  // Batch-wise traversal: the forest_leaves kernel descends a chunk of
  // trees breadth-wise (a SIMD lane-group of trees per step), then the
  // leaf distributions accumulate in tree order — the same order the old
  // one-tree-at-a-time loop used, so the probabilities stay bit-identical.
  constexpr std::size_t kChunk = 64;
  std::int32_t leaf[kChunk];
  const auto& k = simd::kernels();
  for (std::size_t t0 = 0; t0 < roots_.size(); t0 += kChunk) {
    const std::size_t count = std::min(kChunk, roots_.size() - t0);
    std::copy(roots_.begin() + static_cast<std::ptrdiff_t>(t0),
              roots_.begin() + static_cast<std::ptrdiff_t>(t0 + count), leaf);
    k.forest_leaves(feature, threshold, child, x.data(), leaf, count);
    for (std::size_t t = 0; t < count; ++t) {
      const auto idx = static_cast<std::size_t>(leaf[t]);
      const double* dist =
          leaves + static_cast<std::size_t>(leaf_offset_[idx]);
      k.accumulate(out.data(), dist, out.size());
    }
  }
  const auto total = static_cast<double>(roots_.size());
  for (double& v : out) v /= total;
}

std::vector<double> CompiledForest::predict_proba(
    std::span<const double> x) const {
  std::vector<double> out(num_classes_, 0.0);
  predict_proba_into(x, out);
  return out;
}

int CompiledForest::predict(std::span<const double> x) const {
  const auto proba = predict_proba(x);
  return static_cast<int>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
}

}  // namespace airfinger::ml
