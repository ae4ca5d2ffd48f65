#include "data/categorical.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/rng.h"
#include "sim/launch.h"

namespace gbmo::data {

std::uint64_t category_hash(float value) {
  GBMO_DCHECK(!std::isnan(value));
  if (value == 0.0f) value = 0.0f;  // normalize -0.0 to +0.0
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  std::uint64_t state = bits;
  return splitmix64(state);
}

float CategoryTable::value_for(float raw) const {
  if (std::isnan(raw)) return raw;  // missing stays missing (bin 0 + default_left)
  const std::uint64_t h = category_hash(raw);
  const auto it = std::lower_bound(hashes.begin(), hashes.end(), h);
  if (it == hashes.end() || *it != h) return prior;
  return values[static_cast<std::size_t>(it - hashes.begin())];
}

CategoricalEncoder::CategoricalEncoder(std::vector<std::int32_t> cat_cols,
                                       float prior, float prior_weight)
    : cat_cols_(std::move(cat_cols)),
      prior_(prior),
      prior_weight_(prior_weight),
      stats_(cat_cols_.size()) {
  GBMO_CHECK(prior_weight_ > 0.0f) << "prior_weight must be > 0";
}

float CategoricalEncoder::proxy_target(const Labels& y, std::size_t i) {
  if (y.task() == TaskKind::kMulticlass) {
    return static_cast<float>(y.class_id(i));
  }
  float sum = 0.0f;
  for (int k = 0; k < y.n_outputs(); ++k) sum += y.target(i, k);
  return sum / static_cast<float>(std::max(1, y.n_outputs()));
}

float CategoricalEncoder::target_prior(const Labels& y) {
  if (y.size() == 0) return 0.0f;
  double total = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    total += static_cast<double>(proxy_target(y, i));
  }
  return static_cast<float>(total / static_cast<double>(y.size()));
}

void CategoricalEncoder::encode_ordered(const DenseMatrix& x, const Labels& y,
                                        std::size_t row_begin,
                                        std::size_t row_end, DenseMatrix& out) {
  GBMO_CHECK(row_end <= x.n_rows() && row_begin <= row_end);
  GBMO_CHECK(out.n_rows() == x.n_rows() && out.n_cols() == x.n_cols());
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const float proxy = proxy_target(y, i);
    for (std::size_t c = 0; c < cat_cols_.size(); ++c) {
      const auto col = static_cast<std::size_t>(cat_cols_[c]);
      const float raw = x.at(i, col);
      if (std::isnan(raw)) {
        out.at(i, col) = raw;
        continue;
      }
      Stat& s = stats_[c][category_hash(raw)];
      out.at(i, col) = static_cast<float>(
          (s.sum + static_cast<double>(prior_weight_) * prior_) /
          (static_cast<double>(s.count) + prior_weight_));
      s.sum += static_cast<double>(proxy);
      s.count += 1;
    }
  }
}

std::vector<CategoryTable> CategoricalEncoder::finalize() const {
  std::vector<CategoryTable> tables;
  tables.reserve(cat_cols_.size());
  for (std::size_t c = 0; c < cat_cols_.size(); ++c) {
    CategoryTable t;
    t.col = cat_cols_[c];
    // The prior is what zero observations encode to:
    // (0 + w * prior) / (0 + w) = prior.
    t.prior = prior_;
    t.hashes.reserve(stats_[c].size());
    for (const auto& [h, s] : stats_[c]) t.hashes.push_back(h);
    std::sort(t.hashes.begin(), t.hashes.end());
    t.values.reserve(t.hashes.size());
    for (const std::uint64_t h : t.hashes) {
      const Stat& s = stats_[c].at(h);
      t.values.push_back(static_cast<float>(
          (s.sum + static_cast<double>(prior_weight_) * prior_) /
          (static_cast<double>(s.count) + prior_weight_)));
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

CategoricalTrainEncoding encode_training_matrix(
    const DenseMatrix& x, const Labels& y,
    std::span<const std::int32_t> cat_cols, std::span<sim::Device* const> devs,
    float prior_weight) {
  const std::size_t n = x.n_rows();
  GBMO_CHECK(y.size() == n) << "labels/matrix row mismatch";
  for (const std::int32_t c : cat_cols) {
    GBMO_CHECK(c >= 0 && static_cast<std::size_t>(c) < x.n_cols())
        << "categorical column " << c << " out of range for " << x.n_cols()
        << " features";
  }

  CategoricalTrainEncoding result;
  result.x = x;
  CategoricalEncoder encoder(
      std::vector<std::int32_t>(cat_cols.begin(), cat_cols.end()),
      CategoricalEncoder::target_prior(y), prior_weight);
  encoder.encode_ordered(x, y, 0, n, result.x);
  result.tables = encoder.finalize();

  // Substrate charging: the canonical values above are what the modeled
  // `cat_encode` kernel produces — one thread per row hashes its cell, probes
  // the category map and writes the encoded float. Each (row, column) write
  // is owned by exactly one thread and rewrites the same value; the host fold
  // above fixes the statistics regardless of block schedule, so the result
  // is bitwise identical at any --sim-threads.
  constexpr int kBlock = 256;
  const int grid = sim::blocks_for(std::max<std::size_t>(n, 1), kBlock);
  for (std::size_t c = 0; c < cat_cols.size(); ++c) {
    const auto col = static_cast<std::size_t>(cat_cols[c]);
    const std::vector<float> enc_col = result.x.col(col);
    for (sim::Device* dev : devs) {
      sim::launch(*dev, "cat_encode", grid, kBlock, [&](sim::BlockCtx& blk) {
        blk.threads([&](int tid) {
          const std::size_t i = static_cast<std::size_t>(blk.block_id()) * kBlock +
                                static_cast<std::size_t>(tid);
          if (i >= n) return;
          result.x.at(i, col) = enc_col[i];
          // Read the raw cell + proxy target, one hashed map probe, write
          // the encoded float.
          blk.stats().gmem_coalesced_bytes += 3 * sizeof(float);
          blk.stats().gmem_random_accesses += 1;
          blk.stats().flops += 24;  // splitmix64 mix + smoothing divide
        });
      });
    }
  }
  return result;
}

}  // namespace gbmo::data
