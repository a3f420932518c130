// Detect-aimed gesture recognition (Sec. IV-C): tsfresh-style feature bank,
// RF-importance feedback feature selection (top 25), and an RF classifier.
//
// Training is two-stage, mirroring the paper: a first forest is fitted on
// the full candidate bank, its importance feedback ranks the features, the
// top-k are kept, and the final forest is retrained on the selected columns.
#pragma once

#include <iosfwd>
#include <memory>

#include "features/bank.hpp"
#include "ml/compiled_forest.hpp"
#include "ml/random_forest.hpp"

namespace airfinger::core {

/// Recognizer hyper-parameters.
struct DetectRecognizerConfig {
  features::FeatureBankOptions bank{};
  ml::RandomForestConfig forest{};
  std::size_t selected_features = 25;  ///< The paper keeps 25 kinds.
  bool two_stage_selection = true;     ///< false = train on the full bank.
};

/// Trained detect-aimed gesture classifier.
class DetectRecognizer {
 public:
  explicit DetectRecognizer(DetectRecognizerConfig config = {});

  const DetectRecognizerConfig& config() const { return config_; }
  const features::FeatureBank& bank() const { return bank_; }

  /// Extracts the full candidate feature vector for one multi-channel
  /// ΔRSS² window.
  std::vector<double> extract(
      std::span<const std::span<const double>> channels) const;

  /// Single-channel convenience (cross-channel features become zeros).
  std::vector<double> extract(std::span<const double> segment) const;

  /// extract() into caller storage of size bank().feature_count(), drawing
  /// scratch from `workspace` (allocation-free at the arena's high-water
  /// mark). Computes the columns of feature_plan(): those are bit-identical
  /// to extract(), the skipped ones read 0.0.
  void extract_into(std::span<const std::span<const double>> channels,
                    features::Workspace& workspace,
                    std::span<double> out) const;

  /// Demand mask over the bank (FeatureBank::demand_mask) that
  /// extract_into() honours. Empty — every column — until a ModelBundle
  /// narrows it to the columns its models read.
  const std::vector<std::uint8_t>& feature_plan() const { return plan_; }

  /// Restricts extract_into() to `plan` (empty restores the full bank).
  void set_feature_plan(std::vector<std::uint8_t> plan);

  /// Trains on full-bank feature rows (as produced by extract()).
  void fit(const ml::SampleSet& full_features);

  /// Predicts the gesture label of one full-bank feature row.
  int predict(std::span<const double> full_feature_row) const;

  /// Class probabilities for one full-bank feature row.
  std::vector<double> predict_proba(
      std::span<const double> full_feature_row) const;

  /// predict_proba() into caller storage of size num_classes(), using the
  /// compiled forest and projecting the row through `arena` scratch.
  /// Bit-identical to predict_proba().
  void predict_proba_into(std::span<const double> full_feature_row,
                          common::ScratchArena& arena,
                          std::span<double> out) const;

  /// Number of gesture classes of the fitted forest.
  std::size_t num_classes() const;

  /// The flattened (SoA) forest the hot path predicts with; compiled from
  /// the reference forest after fit() and load().
  const ml::CompiledForest& compiled_forest() const { return compiled_; }

  /// Indices (into the full bank) of the selected features. Valid after
  /// fit(); equals the identity when two-stage selection is disabled.
  const std::vector<std::size_t>& selected_features() const {
    return selected_;
  }

  /// Importance of each selected feature in the final forest.
  const std::vector<double>& final_importances() const;

  bool is_fitted() const { return fitted_; }

  /// Serializes the fitted recognizer (selected features + final forest).
  /// The feature-bank structure is not stored: load() must be given the
  /// same bank configuration the recognizer was trained with (validated
  /// via the bank width).
  void save(std::ostream& os) const;

  /// Reconstructs a recognizer written by save().
  static DetectRecognizer load(std::istream& is,
                               DetectRecognizerConfig config = {});

 private:
  std::vector<double> project(std::span<const double> row) const;

  DetectRecognizerConfig config_;
  features::FeatureBank bank_;
  ml::RandomForest forest_;
  ml::CompiledForest compiled_;
  std::vector<std::size_t> selected_;
  std::vector<std::uint8_t> plan_;
  bool fitted_ = false;
};

}  // namespace airfinger::core
