// Property tests for feature quantization (data/quantize.h) and bin packing
// (data/bin_pack.h) edge cases: constant features, NaN/missing values,
// single-row tables, the max_bins extremes, and the monotonicity/inverse-map
// invariants the split search depends on (bin b covers (cut[b-1], cut[b]],
// "bin <= t goes left" == "value <= cut[t]").
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "data/bin_pack.h"
#include "data/matrix.h"
#include "data/quantize.h"

namespace gbmo {
namespace {

data::DenseMatrix matrix_from_column(const std::vector<float>& col) {
  data::DenseMatrix x(col.size(), 1);
  for (std::size_t r = 0; r < col.size(); ++r) x.at(r, 0) = col[r];
  return x;
}

TEST(QuantizeProperties, ConstantFeatureGetsSingleBin) {
  const auto x = matrix_from_column(std::vector<float>(64, 3.5f));
  for (int max_bins : {2, 16, 256}) {
    const auto cuts = data::BinCuts::build(x, max_bins);
    EXPECT_EQ(cuts.n_bins(0), 1) << "max_bins=" << max_bins;
    EXPECT_TRUE(cuts.cuts(0).empty());
    EXPECT_EQ(cuts.bin_for(0, 3.5f), 0);
    EXPECT_EQ(cuts.bin_for(0, -100.0f), 0);
    EXPECT_EQ(cuts.bin_for(0, 100.0f), 0);
  }
}

// NaN (the missing-value representation) compares false against every cut,
// so lower_bound places it in bin 0 — the same bucket sparse zeros reserve.
// That must hold for every feature shape, not crash or scatter.
TEST(QuantizeProperties, NanMapsToBinZero) {
  const auto x =
      matrix_from_column({-2.0f, -1.0f, 0.0f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f});
  const auto cuts = data::BinCuts::build(x, 16);
  ASSERT_GT(cuts.n_bins(0), 1);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(cuts.bin_for(0, nan), 0);
  // Binning a matrix containing NaN goes through the same path.
  data::DenseMatrix with_nan(2, 1);
  with_nan.at(0, 0) = nan;
  with_nan.at(1, 0) = 1.5f;
  const data::BinnedMatrix binned(with_nan, cuts);
  EXPECT_EQ(binned.bin(0, 0), 0);
  EXPECT_EQ(binned.bin(1, 0), cuts.bin_for(0, 1.5f));
}

TEST(QuantizeProperties, SingleRowTable) {
  data::DenseMatrix x(1, 3);
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = -4.0f;
  x.at(0, 2) = 0.0f;
  const auto cuts = data::BinCuts::build(x, 256);
  for (std::size_t f = 0; f < 3; ++f) {
    EXPECT_EQ(cuts.n_bins(f), 1) << "feature " << f;
    EXPECT_EQ(cuts.bin_for(f, x.at(0, f)), 0);
  }
  const data::BinnedMatrix binned(x, cuts);
  EXPECT_EQ(binned.n_rows(), 1u);
  for (std::size_t f = 0; f < 3; ++f) EXPECT_EQ(binned.bin(0, f), 0);
}

// max_bins extremes: 2 (the minimum — one cut, a stump split) and 256 (the
// paper's setting and the uint8 ceiling). Bin ids must stay within
// [0, n_bins) in both, with many more distinct values than bins.
TEST(QuantizeProperties, MaxBinsExtremes) {
  std::vector<float> col(1000);
  std::mt19937 rng(7);
  std::normal_distribution<float> dist(0.0f, 3.0f);
  for (auto& v : col) v = dist(rng);
  const auto x = matrix_from_column(col);
  for (int max_bins : {2, 256}) {
    const auto cuts = data::BinCuts::build(x, max_bins);
    EXPECT_LE(cuts.n_bins(0), max_bins) << "max_bins=" << max_bins;
    EXPECT_GE(cuts.n_bins(0), 2) << "max_bins=" << max_bins;
    for (float v : col) {
      const int b = cuts.bin_for(0, v);
      ASSERT_LT(b, cuts.n_bins(0)) << "max_bins=" << max_bins;
    }
  }
}

// bin_for is monotone non-decreasing in the value — the property that makes
// "bin <= t" a threshold test on the raw value.
TEST(QuantizeProperties, BinForIsMonotone) {
  std::vector<float> col(257);
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> dist(-50.0f, 50.0f);
  for (auto& v : col) v = dist(rng);
  const auto x = matrix_from_column(col);
  for (int max_bins : {2, 7, 64, 256}) {
    const auto cuts = data::BinCuts::build(x, max_bins);
    std::vector<float> probe = col;
    probe.push_back(-1e9f);
    probe.push_back(1e9f);
    std::sort(probe.begin(), probe.end());
    int prev = cuts.bin_for(0, probe.front());
    for (float v : probe) {
      const int b = cuts.bin_for(0, v);
      EXPECT_GE(b, prev) << "max_bins=" << max_bins << " value " << v;
      prev = b;
    }
  }
}

// Inverse-map invariants between bin_for and threshold_for:
//  (a) threshold_for(f, b) maps back into bin b (cut b is the last value of
//      bin b under the upper-bound rule);
//  (b) every value v satisfies v <= threshold_for(f, bin_for(f, v)) — the
//      split "bin <= t goes left" never sends v the wrong way;
//  (c) the bin past the last cut has threshold +inf (send-all-left split).
TEST(QuantizeProperties, ThresholdInverseMap) {
  std::vector<float> col(300);
  std::mt19937 rng(13);
  std::uniform_real_distribution<float> dist(-10.0f, 10.0f);
  for (auto& v : col) v = dist(rng);
  const auto x = matrix_from_column(col);
  for (int max_bins : {2, 16, 256}) {
    const auto cuts = data::BinCuts::build(x, max_bins);
    const auto c = cuts.cuts(0);
    for (std::size_t b = 0; b < c.size(); ++b) {
      EXPECT_EQ(cuts.bin_for(0, cuts.threshold_for(0, static_cast<int>(b))),
                static_cast<int>(b))
          << "max_bins=" << max_bins;
    }
    EXPECT_EQ(cuts.threshold_for(0, static_cast<int>(c.size())),
              std::numeric_limits<float>::infinity());
    for (float v : col) {
      EXPECT_LE(v, cuts.threshold_for(0, cuts.bin_for(0, v)))
          << "max_bins=" << max_bins;
    }
    // Cuts are strictly increasing (valid for from_cut_arrays round-trip).
    for (std::size_t i = 0; i + 1 < c.size(); ++i) {
      EXPECT_LT(c[i], c[i + 1]) << "max_bins=" << max_bins;
    }
  }
}

TEST(QuantizeProperties, CutArrayRoundTripPreservesBinning) {
  std::vector<float> col(100);
  std::mt19937 rng(17);
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  for (auto& v : col) v = dist(rng);
  const auto x = matrix_from_column(col);
  const auto cuts = data::BinCuts::build(x, 32);
  std::vector<std::vector<float>> arrays = {
      std::vector<float>(cuts.cuts(0).begin(), cuts.cuts(0).end())};
  const auto rebuilt = data::BinCuts::from_cut_arrays(arrays, 32);
  ASSERT_EQ(rebuilt.n_bins(0), cuts.n_bins(0));
  for (float v : col) {
    EXPECT_EQ(rebuilt.bin_for(0, v), cuts.bin_for(0, v));
  }
}

// --- bin packing ------------------------------------------------------------

// Pack/unpack round-trips at every tail length 0..3, and the zero-padding of
// the last word is actually zero (kernels may read whole words).
TEST(BinPackProperties, RoundTripWithTailPadding) {
  std::mt19937 rng(19);
  std::uniform_int_distribution<int> dist(0, 255);
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 63u, 64u, 65u}) {
    std::vector<std::uint8_t> bins(n);
    for (auto& b : bins) b = static_cast<std::uint8_t>(dist(rng));
    std::vector<std::uint32_t> words((n + 3) / 4, 0xFFFFFFFFu);  // dirty
    data::pack_bins(bins, words);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(data::unpack_bin(words[i / 4], i % 4), bins[i]) << "n=" << n;
    }
    // Tail lanes past n must be zero-padded, not leftovers.
    for (std::size_t i = n; i < words.size() * 4; ++i) {
      EXPECT_EQ(data::unpack_bin(words[i / 4], i % 4), 0) << "n=" << n;
    }
    // unpack_word agrees lane-by-lane with unpack_bin.
    std::uint8_t lanes[4];
    data::unpack_word(words[0], lanes);
    for (unsigned l = 0; l < 4; ++l) {
      EXPECT_EQ(lanes[l], data::unpack_bin(words[0], l));
    }
  }
}

// BinnedMatrix::pack on a matrix whose row count is not a multiple of 4:
// packed columns agree with the byte columns and pad with zeros.
TEST(BinPackProperties, BinnedMatrixPackedTail) {
  std::vector<float> col(10);  // 10 rows -> 3 words, 2 pad lanes
  std::mt19937 rng(23);
  std::uniform_real_distribution<float> dist(-5.0f, 5.0f);
  for (auto& v : col) v = dist(rng);
  const auto x = matrix_from_column(col);
  const auto cuts = data::BinCuts::build(x, 8);
  data::BinnedMatrix binned(x, cuts);
  binned.pack();
  ASSERT_TRUE(binned.packed());
  const auto packed = binned.packed_col(0);
  ASSERT_EQ(packed.size(), 3u);
  for (std::size_t r = 0; r < binned.n_rows(); ++r) {
    EXPECT_EQ(data::unpack_bin(packed[r / 4], r % 4), binned.bin(r, 0));
  }
  for (std::size_t r = binned.n_rows(); r < 12; ++r) {
    EXPECT_EQ(data::unpack_bin(packed[r / 4], r % 4), 0);
  }
}

}  // namespace
}  // namespace gbmo
