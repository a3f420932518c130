// The feature bank: every Table I feature family, evaluated on a segmented
// multi-channel ΔRSS² window.
//
// Views (this is what makes the features robust to individual diversity and
// gesture inconsistency, Sec. IV-C-1):
//   - *shape features* are computed on a canonical form of the summed
//     energy — log1p-compressed (ΔRSS² is heavy-tailed), linearly resampled
//     to a fixed length, and z-normalized — so finger speed, standoff
//     distance, and amplitude do not leak absolute values;
//   - *envelope features* describe the burst structure of the smoothed
//     energy (stroke counts, nulls, periodicity) that separates cyclic
//     gestures from single sweeps and single from double gestures;
//   - *cross-channel features* capture the spatial structure across the
//     photodiodes (energy shares, asymmetry sweep, inter-channel
//     correlations) — the information ZEBRA uses for direction;
//   - *scale features* (length, absolute energy, peak level) are kept but
//     log-compressed: duration separates double gestures from single ones,
//     which is genuinely discriminative, while log compression bounds the
//     influence of between-user amplitude differences.
//
// The 9 bold Table I features are exposed through interference_indices().
// The interference filter (Sec. IV-F) reads that fixed subset only when
// trained with importance_selection=false; by default it ranks the bank by
// RF importance and keeps its own 9 columns (InterferenceFilter::
// feature_indices()). The paper's PDF bolding did not survive text
// extraction, so the subset is chosen from the named families; the
// substitution is documented in DESIGN.md.
//
// Feature plans (DESIGN.md §11): a deployed model reads a few dozen of the
// bank's columns. extract_into() takes an optional demand mask and skips
// every computation none of whose columns is demanded; families() names
// those shared computations so a plan can be explained.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "features/workspace.hpp"

namespace airfinger::features {

/// Tunable structure of the bank (defaults mirror tsfresh's defaults where
/// the paper does not specify).
struct FeatureBankOptions {
  std::size_t canonical_length = 96;  ///< Resampled segment length.
  std::size_t fft_coefficients = 8;   ///< |FFT| coefficients kept.
  std::vector<double> cwt_widths{2.0, 5.0, 10.0, 20.0};
  std::size_t acf_lags = 5;
  std::size_t pacf_lags = 5;
  std::size_t ar_order = 4;
  std::vector<double> quantiles{0.1, 0.25, 0.75, 0.9};
  std::vector<std::size_t> peak_supports{1, 3, 5};
  std::size_t energy_chunks = 5;
  std::vector<std::size_t> c3_lags{1, 2, 3};
  std::vector<std::size_t> tra_lags{1, 2};  ///< time-reversal asymmetry
  std::size_t envelope_smooth = 7;  ///< MA window (canonical samples).
  /// Cross-channel block (requires >= 2 channels at extraction; zeros for
  /// single-channel input).
  bool cross_channel = true;
  /// Cost bound for the cross-channel block, whose smoothing window grows
  /// with the segment (making it O(n²/16)): segments longer than this are
  /// decimated to exactly this many samples (deterministic linear
  /// resampling, every channel) before the block runs, turning an
  /// unbounded quadratic into a constant. Segments at or under the cap —
  /// every training/evaluation gesture — are bit-identical to the uncapped
  /// path; only multi-second segments (long scrolls) trade spatial
  /// resolution the block's scale-free ratios don't need. 0 disables the
  /// cap.
  std::size_t cross_channel_cap = 384;
};

/// One shared computation of the bank and the columns it fills (e.g. the
/// FFT block feeds every fft_mag_* column plus the spectral centroid and
/// low-band ratio). A masked extract_into() skips a family's work when
/// none of its columns is demanded.
struct FeatureFamily {
  std::string name;
  std::vector<std::size_t> columns;
};

/// Stateless (after construction) feature evaluator.
class FeatureBank {
 public:
  explicit FeatureBank(FeatureBankOptions options = {});

  std::size_t feature_count() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }
  const FeatureBankOptions& options() const { return options_; }

  /// Indices of the Table I bold subset: the interference filter's
  /// columns when it is trained without importance selection.
  const std::vector<std::size_t>& interference_indices() const {
    return interference_indices_;
  }

  /// The costly shared computations extract_into() can skip as units.
  const std::vector<FeatureFamily>& families() const { return families_; }

  /// Demand mask (one entry per column, 1 = compute) for `columns`.
  std::vector<std::uint8_t> demand_mask(
      std::span<const std::size_t> columns) const;

  /// Evaluates all features on a multi-channel ΔRSS² window (channels must
  /// be equal length >= 4; typically the segment slice of each photodiode).
  std::vector<double> extract(
      std::span<const std::span<const double>> channels) const;

  /// Single-channel convenience (cross-channel block evaluates to zeros).
  std::vector<double> extract(std::span<const double> segment) const;

  /// extract() writing into caller storage of size feature_count(), with
  /// all working arrays drawn from `workspace`. Once the workspace arena
  /// reaches its high-water mark no heap allocation happens.
  ///
  /// `demand` is empty (every column) or a demand_mask(): a computation
  /// none of whose columns is demanded is skipped and its columns read
  /// 0.0. Every demanded column is bit-identical to extract().
  void extract_into(std::span<const std::span<const double>> channels,
                    Workspace& workspace, std::span<double> out,
                    std::span<const std::uint8_t> demand = {}) const;

 private:
  FeatureBankOptions options_;
  std::vector<std::string> names_;
  std::vector<std::size_t> interference_indices_;
  std::vector<FeatureFamily> families_;
  /// Ricker wavelets sampled once per configured CWT width at
  /// construction — extract_into() convolves with these instead of
  /// re-evaluating the transcendental-heavy wavelet every frame.
  std::vector<std::vector<double>> cwt_wavelets_;
};

}  // namespace airfinger::features
