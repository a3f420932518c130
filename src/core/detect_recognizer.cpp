#include "core/detect_recognizer.hpp"

#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "ml/serialize.hpp"

namespace airfinger::core {

DetectRecognizer::DetectRecognizer(DetectRecognizerConfig config)
    : config_(config), bank_(config.bank), forest_(config.forest) {
  AF_EXPECT(config.selected_features >= 1,
            "must select at least one feature");
}

std::vector<double> DetectRecognizer::extract(
    std::span<const std::span<const double>> channels) const {
  return bank_.extract(channels);
}

std::vector<double> DetectRecognizer::extract(
    std::span<const double> segment) const {
  return bank_.extract(segment);
}

void DetectRecognizer::extract_into(
    std::span<const std::span<const double>> channels,
    features::Workspace& workspace, std::span<double> out) const {
  bank_.extract_into(channels, workspace, out, plan_);
}

void DetectRecognizer::set_feature_plan(std::vector<std::uint8_t> plan) {
  AF_EXPECT(plan.empty() || plan.size() == bank_.feature_count(),
            "feature plan must cover the full bank");
  plan_ = std::move(plan);
}

void DetectRecognizer::fit(const ml::SampleSet& full_features) {
  full_features.validate();
  AF_EXPECT(full_features.feature_count() == bank_.feature_count(),
            "training rows must carry the full candidate bank");

  if (config_.two_stage_selection &&
      config_.selected_features < bank_.feature_count()) {
    // Stage 1: rank the candidate features by forest importance feedback.
    ml::RandomForestConfig ranking_config = config_.forest;
    ranking_config.seed ^= 0x5EED;
    ml::RandomForest ranking_forest(ranking_config);
    ranking_forest.fit(full_features);
    selected_ = ml::top_k_features(ranking_forest,
                                   config_.selected_features);
  } else {
    selected_.resize(bank_.feature_count());
    for (std::size_t i = 0; i < selected_.size(); ++i) selected_[i] = i;
  }

  // Stage 2: final forest on the selected columns only.
  forest_ = ml::RandomForest(config_.forest);
  forest_.fit(full_features.project(selected_));
  compiled_ = ml::CompiledForest(forest_);
  plan_.clear();
  fitted_ = true;
}

std::vector<double> DetectRecognizer::project(
    std::span<const double> row) const {
  AF_EXPECT(row.size() == bank_.feature_count(),
            "prediction rows must carry the full candidate bank");
  std::vector<double> projected;
  projected.reserve(selected_.size());
  for (std::size_t i : selected_) projected.push_back(row[i]);
  return projected;
}

int DetectRecognizer::predict(std::span<const double> row) const {
  AF_EXPECT(fitted_, "predict requires a fitted recognizer");
  return forest_.predict(project(row));
}

std::vector<double> DetectRecognizer::predict_proba(
    std::span<const double> row) const {
  AF_EXPECT(fitted_, "predict requires a fitted recognizer");
  return forest_.predict_proba(project(row));
}

void DetectRecognizer::predict_proba_into(std::span<const double> row,
                                          common::ScratchArena& arena,
                                          std::span<double> out) const {
  AF_EXPECT(fitted_, "predict requires a fitted recognizer");
  AF_EXPECT(row.size() == bank_.feature_count(),
            "prediction rows must carry the full candidate bank");
  const auto project_frame = arena.frame();
  const std::span<double> projected = arena.alloc<double>(selected_.size());
  for (std::size_t i = 0; i < selected_.size(); ++i)
    projected[i] = row[selected_[i]];
  compiled_.predict_proba_into(projected, out);
}

std::size_t DetectRecognizer::num_classes() const {
  AF_EXPECT(fitted_, "class count requires a fitted recognizer");
  return compiled_.num_classes();
}

void DetectRecognizer::save(std::ostream& os) const {
  AF_EXPECT(fitted_, "cannot save an unfitted recognizer");
  os << "af_recognizer 1\n";
  os << "bank_width " << bank_.feature_count() << "\n";
  os << "selected " << selected_.size();
  for (std::size_t idx : selected_) os << ' ' << idx;
  os << "\n";
  forest_.save(os);
}

DetectRecognizer DetectRecognizer::load(std::istream& is,
                                        DetectRecognizerConfig config) {
  ml::detail::expect_tag(is, "af_recognizer");
  int version = 0;
  is >> version;
  AF_EXPECT(version == 1, "unsupported recognizer format version");

  DetectRecognizer rec(config);
  ml::detail::expect_tag(is, "bank_width");
  std::size_t width = 0;
  is >> width;
  AF_EXPECT(width == rec.bank_.feature_count(),
            "serialized recognizer was trained with a different feature "
            "bank configuration");
  ml::detail::expect_tag(is, "selected");
  std::size_t count = 0;
  is >> count;
  AF_EXPECT(count >= 1 && is.good(), "malformed selection in recognizer");
  AF_EXPECT(count <= width,
            "serialized recognizer selects more features than the bank "
            "provides (corrupt input?)");
  rec.selected_.resize(count);
  for (auto& idx : rec.selected_) {
    is >> idx;
    AF_EXPECT(idx < width, "selected feature index out of range");
  }
  rec.forest_ = ml::RandomForest::load(is);
  rec.compiled_ = ml::CompiledForest(rec.forest_);
  rec.fitted_ = true;
  return rec;
}

const std::vector<double>& DetectRecognizer::final_importances() const {
  AF_EXPECT(fitted_, "importances require a fitted recognizer");
  return forest_.feature_importances();
}

}  // namespace airfinger::core
