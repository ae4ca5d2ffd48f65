#include "data/quantize.h"

#include <algorithm>
#include <cmath>

#include "data/bin_pack.h"

namespace gbmo::data {

namespace {

// Cut points for one feature from its sorted distinct non-NaN value set. At
// most max_bins-1 cuts; with few distinct values one cut per consecutive pair
// (exact split search), otherwise quantile cuts over the distinct values with
// duplicate midpoints dropped.
std::vector<float> cuts_from_distinct(std::span<const float> sorted_distinct,
                                      int max_bins) {
  std::vector<float> cuts;
  // At most max_bins-1 cuts -> max_bins bins. With few distinct values,
  // one cut per distinct value (exact split search, like LightGBM).
  const std::size_t distinct = sorted_distinct.size();
  const std::size_t n_cuts =
      std::min<std::size_t>(distinct >= 1 ? distinct - 1 : 0,
                            static_cast<std::size_t>(max_bins - 1));
  if (n_cuts == distinct - 1 && distinct >= 2) {
    // Exact: cut between every pair of consecutive distinct values.
    for (std::size_t i = 0; i + 1 < distinct; ++i) {
      cuts.push_back(0.5f * (sorted_distinct[i] + sorted_distinct[i + 1]));
    }
  } else if (n_cuts > 0) {
    // Quantile cuts over the distinct values.
    for (std::size_t i = 1; i <= n_cuts; ++i) {
      const double q = static_cast<double>(i) / static_cast<double>(n_cuts + 1);
      const auto idx = static_cast<std::size_t>(q * static_cast<double>(distinct - 1));
      const float lo = sorted_distinct[idx];
      const float hi = sorted_distinct[std::min(idx + 1, distinct - 1)];
      const float cut = 0.5f * (lo + hi);
      if (cuts.empty() || cuts.back() < cut) {
        cuts.push_back(cut);
      }
    }
  }
  return cuts;
}

}  // namespace

BinCuts BinCuts::build(const DenseMatrix& x, int max_bins) {
  GBMO_CHECK(max_bins >= 2 && max_bins <= 256)
      << "bin ids are stored as uint8_t";
  BinCuts out;
  out.max_bins_ = max_bins;
  out.cut_ptr_.reserve(x.n_cols() + 1);
  out.cut_ptr_.push_back(0);

  std::vector<float> sorted;
  for (std::size_t f = 0; f < x.n_cols(); ++f) {
    sorted = x.col(f);
    // Missing values carry no split information and would poison the cut
    // midpoints (and break sort's ordering); they quantize to bin 0 via
    // bin_for's lower_bound regardless of the cuts chosen here.
    sorted.erase(std::remove_if(sorted.begin(), sorted.end(),
                                [](float v) { return std::isnan(v); }),
                 sorted.end());
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

    const std::vector<float> fc = cuts_from_distinct(sorted, max_bins);
    out.cuts_.insert(out.cuts_.end(), fc.begin(), fc.end());
    out.cut_ptr_.push_back(static_cast<std::uint32_t>(out.cuts_.size()));
  }
  return out;
}

BinCuts BinCuts::from_cut_arrays(const std::vector<std::vector<float>>& cuts,
                                 int max_bins) {
  GBMO_CHECK(max_bins >= 2 && max_bins <= 256);
  BinCuts out;
  out.max_bins_ = max_bins;
  out.cut_ptr_.reserve(cuts.size() + 1);
  out.cut_ptr_.push_back(0);
  for (const auto& fc : cuts) {
    GBMO_CHECK(fc.size() < static_cast<std::size_t>(max_bins));
    for (std::size_t i = 0; i + 1 < fc.size(); ++i) {
      GBMO_CHECK(fc[i] < fc[i + 1]) << "cut arrays must be strictly increasing";
    }
    out.cuts_.insert(out.cuts_.end(), fc.begin(), fc.end());
    out.cut_ptr_.push_back(static_cast<std::uint32_t>(out.cuts_.size()));
  }
  return out;
}

std::uint8_t BinCuts::bin_for(std::size_t f, float value) const {
  const auto c = cuts(f);
  const auto it = std::lower_bound(c.begin(), c.end(), value);
  return static_cast<std::uint8_t>(it - c.begin());
}

float BinCuts::threshold_for(std::size_t f, int b) const {
  const auto c = cuts(f);
  GBMO_CHECK(b >= 0 && static_cast<std::size_t>(b) <= c.size());
  if (c.empty()) return 0.0f;
  if (static_cast<std::size_t>(b) >= c.size()) {
    // Split after the last bin sends everything left; use +inf threshold.
    return std::numeric_limits<float>::infinity();
  }
  return c[static_cast<std::size_t>(b)];
}

BinnedMatrix::BinnedMatrix(const DenseMatrix& x, const BinCuts& cuts)
    : n_rows_(x.n_rows()), n_cols_(x.n_cols()) {
  GBMO_CHECK(cuts.n_features() == n_cols_);
  bins_.resize(n_rows_ * n_cols_);
  for (std::size_t c = 0; c < n_cols_; ++c) {
    std::uint8_t* dst = bins_.data() + c * n_rows_;
    for (std::size_t r = 0; r < n_rows_; ++r) {
      dst[r] = cuts.bin_for(c, x.at(r, c));
    }
  }
}

BinnedMatrix BinnedMatrix::from_bins(std::size_t n_rows, std::size_t n_cols,
                                     std::vector<std::uint8_t> colmajor_bins) {
  GBMO_CHECK(colmajor_bins.size() == n_rows * n_cols);
  BinnedMatrix out;
  out.n_rows_ = n_rows;
  out.n_cols_ = n_cols;
  out.bins_ = std::move(colmajor_bins);
  return out;
}

void BinnedMatrix::pack() {
  if (packed()) return;
  words_per_col_ = (n_rows_ + 3) / 4;
  packed_.resize(words_per_col_ * n_cols_);
  for (std::size_t c = 0; c < n_cols_; ++c) {
    pack_bins(col(c), {packed_.data() + c * words_per_col_, words_per_col_});
  }
}

}  // namespace gbmo::data
