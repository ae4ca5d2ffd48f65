// Feature quantization: per-feature quantile cut points (at most max_bins
// bins, the paper uses 256) and the binned column-major matrix the histogram
// kernels consume.
//
// Bin semantics: value v falls into bin b(v) = #cuts(f) strictly below v is
// wrong for splits; we use the standard "upper bound" rule —
// bin = index of first cut >= v, so bin b covers (cut[b-1], cut[b]].
// Splitting "bin <= t goes left" therefore corresponds to "value <= cut[t]".
//
// When the dataset is sparse (CSC), bin 0 is reserved for the implicit zero
// value so zero entries never have to be materialized.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/matrix.h"

namespace gbmo::data {

class BinCuts {
 public:
  BinCuts() = default;

  // Builds quantile cuts from the training matrix.
  static BinCuts build(const DenseMatrix& x, int max_bins);

  // Rebuilds from explicit per-feature cut arrays (model deserialization).
  // Each array must be strictly increasing with fewer than max_bins entries.
  static BinCuts from_cut_arrays(const std::vector<std::vector<float>>& cuts,
                                 int max_bins);

  std::size_t n_features() const { return cut_ptr_.empty() ? 0 : cut_ptr_.size() - 1; }
  int max_bins() const { return max_bins_; }

  // Number of distinct bins of feature f (== #cuts(f) + 1; bin n_cuts is the
  // overflow bin for values above the last cut).
  int n_bins(std::size_t f) const {
    return static_cast<int>(cut_ptr_[f + 1] - cut_ptr_[f]) + 1;
  }

  std::span<const float> cuts(std::size_t f) const {
    return {cuts_.data() + cut_ptr_[f], cut_ptr_[f + 1] - cut_ptr_[f]};
  }

  // Maps a raw feature value to its bin id.
  std::uint8_t bin_for(std::size_t f, float value) const;

  // The raw threshold corresponding to "bin <= b goes left" for feature f.
  float threshold_for(std::size_t f, int b) const;

 private:
  int max_bins_ = 256;
  std::vector<float> cuts_;
  std::vector<std::uint32_t> cut_ptr_;
};

// Column-major uint8 bin matrix with an optional packed (4 bins per u32)
// representation used by the warp-level optimization (§3.4.1).
class BinnedMatrix {
 public:
  BinnedMatrix() = default;
  BinnedMatrix(const DenseMatrix& x, const BinCuts& cuts);

  // Wraps pre-computed column-major bin ids (size n_rows * n_cols) — used
  // for derived representations such as EFB's bundled columns.
  static BinnedMatrix from_bins(std::size_t n_rows, std::size_t n_cols,
                                std::vector<std::uint8_t> colmajor_bins);

  std::size_t n_rows() const { return n_rows_; }
  std::size_t n_cols() const { return n_cols_; }

  std::uint8_t bin(std::size_t r, std::size_t c) const {
    GBMO_DCHECK(r < n_rows_ && c < n_cols_);
    return bins_[c * n_rows_ + r];
  }

  // Raw column of bin ids (n_rows entries).
  std::span<const std::uint8_t> col(std::size_t c) const {
    GBMO_DCHECK(c < n_cols_);
    return {bins_.data() + c * n_rows_, n_rows_};
  }

  // Packed representation: each column padded to a multiple of 4 rows and
  // stored as u32 words. Built lazily via pack().
  void pack();
  bool packed() const { return !packed_.empty(); }
  std::span<const std::uint32_t> packed_col(std::size_t c) const {
    GBMO_DCHECK(packed() && c < n_cols_);
    return {packed_.data() + c * words_per_col_, words_per_col_};
  }

  std::size_t byte_size() const {
    return bins_.size() + packed_.size() * sizeof(std::uint32_t);
  }

 private:
  std::size_t n_rows_ = 0;
  std::size_t n_cols_ = 0;
  std::size_t words_per_col_ = 0;
  std::vector<std::uint8_t> bins_;
  std::vector<std::uint32_t> packed_;
};

}  // namespace gbmo::data
