// Interference removal (Sec. IV-F): a binary RF distinguishing designed
// gestures from unintentional motions (scratching, extending, repositioning)
// using 9 columns of the same feature row the recognizer reads. The filter
// ranks its own columns by RF importance, so some of them are not among
// the recognizer's: the bundle's feature plan extracts those too, at extra
// cost (see `af_inspect --model` for a bundle's overlap).
#pragma once

#include <iosfwd>

#include "features/bank.hpp"
#include "ml/compiled_forest.hpp"
#include "ml/random_forest.hpp"

namespace airfinger::core {

/// Filter hyper-parameters.
struct InterferenceFilterConfig {
  ml::RandomForestConfig forest{};
  /// Number of features kept (the paper selects 9 kinds by RF importance).
  std::size_t selected_features = 9;
  /// Select by importance feedback from a ranking forest (the paper's
  /// procedure); false = use the bank's fixed Table-I bold subset.
  bool importance_selection = true;
};

/// Binary gesture / non-gesture classifier over the 9-feature subset.
class InterferenceFilter {
 public:
  /// The bank defines the candidate columns of a full feature row.
  InterferenceFilter(const features::FeatureBank& bank,
                     InterferenceFilterConfig config = {});

  /// Trains on full-bank rows; labels: 1 = designed gesture, 0 = non-gesture.
  void fit(const ml::SampleSet& full_features);

  /// True when the full-bank feature row looks like a designed gesture.
  bool is_gesture(std::span<const double> full_feature_row) const;

  /// P(gesture) for one full-bank row.
  double gesture_probability(std::span<const double> full_feature_row) const;

  /// gesture_probability() with the projected row and probabilities drawn
  /// from `arena` scratch and the compiled forest doing the prediction:
  /// allocation-free at the arena's high-water mark, bit-identical result.
  double gesture_probability_with(std::span<const double> full_feature_row,
                                  common::ScratchArena& arena) const;

  bool is_fitted() const { return fitted_; }

  const std::vector<std::size_t>& feature_indices() const {
    return indices_;
  }

  /// Serializes the fitted filter (feature indices + forest).
  void save(std::ostream& os) const;

  /// Reconstructs a filter written by save(); `bank` must match the
  /// training-time bank configuration (validated via the width).
  static InterferenceFilter load(std::istream& is,
                                 const features::FeatureBank& bank,
                                 InterferenceFilterConfig config = {});

 private:
  std::vector<double> project(std::span<const double> row) const;

  InterferenceFilterConfig config_;
  std::vector<std::size_t> indices_;
  std::size_t bank_width_;
  ml::RandomForest forest_;
  ml::CompiledForest compiled_;
  bool fitted_ = false;
};

}  // namespace airfinger::core
