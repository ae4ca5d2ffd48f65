// CatBoost-style categorical feature handling (DESIGN.md §14).
//
// A categorical column stores its category codes as raw floats (e.g. "3.0" =
// category 3, any distinct float is a distinct category). Training replaces
// each categorical cell with an *ordered target statistic*: the running mean
// of a proxy target over the earlier rows of the same category, smoothed
// toward a global prior,
//
//   encode(i) = (sum_{j<i, cat(j)=cat(i)} proxy(j) + w * prior)
//             / (count_{j<i, cat(j)=cat(i)}        + w)
//
// computed as a sequential fold over the *natural row order*. That fold is
// the determinism rule: any partition of the rows into ordered chunks
// (streaming ingest, out-of-core paging, distributed row shards fed from the
// same host matrix) reproduces bit-identical encodings, because the state
// after row i never depends on how the rows were batched. The encoded value
// is an ordinary float feature, so everything downstream — quantization,
// bin packing, EFB, both growth policies, paged tiles, every distributed
// mode — operates on it unchanged.
//
// Category identity is a splitmix64 hash of the value's float bit pattern
// (-0.0 normalized to +0.0), which makes the category -> statistic map
// independent of the order categories are first seen. NaN cells are *not*
// categories: they stay NaN, flow through the standard missing-value path
// (bin 0 + per-node default_left routing), and do not update the statistics.
//
// At predict time the model applies the *final* (full-data) statistic per
// category; a category never seen in training encodes as the prior. The
// per-column tables serialize as a tolerant trailing section of the model
// format (core/model_io.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "data/matrix.h"
#include "sim/device.h"

namespace gbmo::data {

// Order-independent category identity for a raw cell value. Must not be
// called on NaN (NaN is missing, not a category).
std::uint64_t category_hash(float value);

// Final (full-data) statistics for one categorical column: sorted hash ->
// encoded value, plus the prior for unseen categories. Sorted storage makes
// serialization byte-stable regardless of insertion order.
struct CategoryTable {
  std::int32_t col = 0;
  float prior = 0.0f;
  std::vector<std::uint64_t> hashes;  // sorted ascending, unique
  std::vector<float> values;          // values[i] encodes hashes[i]

  // Predict-time encoding of a raw cell: NaN stays NaN, unseen -> prior.
  float value_for(float raw) const;
};

// Stateful ordered-target-statistics encoder. Feed rows strictly in natural
// order (in one call or in ordered chunks — the split points do not matter);
// finalize() yields the predict-time tables.
class CategoricalEncoder {
 public:
  CategoricalEncoder() = default;
  // `prior` is the smoothing target (use target_prior(y)); `prior_weight` is
  // CatBoost's `w` (pseudo-observations of the prior per category).
  CategoricalEncoder(std::vector<std::int32_t> cat_cols, float prior,
                     float prior_weight = 1.0f);

  // Encodes rows [row_begin, row_end) of the categorical columns of `x` into
  // the same cells of `out` (any other column of `out` is left untouched),
  // folding the running statistics forward. Calls must cover [0, n) in
  // order, each row exactly once.
  void encode_ordered(const DenseMatrix& x, const Labels& y,
                      std::size_t row_begin, std::size_t row_end,
                      DenseMatrix& out);

  std::vector<CategoryTable> finalize() const;

  const std::vector<std::int32_t>& cat_cols() const { return cat_cols_; }

  // Scalar proxy target the statistics average: the class id for multiclass
  // (the one-hot mean is constant and carries no signal), the mean of the
  // dense target view otherwise (relevance itself for ranking).
  static float proxy_target(const Labels& y, std::size_t i);
  // Global prior: mean proxy target over all rows (0 for an empty dataset).
  static float target_prior(const Labels& y);

 private:
  struct Stat {
    double sum = 0.0;
    std::uint64_t count = 0;
  };

  std::vector<std::int32_t> cat_cols_;
  float prior_ = 0.0f;
  float prior_weight_ = 1.0f;
  // One hash -> running statistic map per categorical column. Iteration
  // order never reaches the output: encode_ordered only looks entries up,
  // and finalize() sorts by hash.
  std::vector<std::unordered_map<std::uint64_t, Stat>> stats_;
};

// Training-side encode, end to end: x copied with every categorical column
// replaced by its ordered statistic, plus the final tables for the model.
struct CategoricalTrainEncoding {
  DenseMatrix x;
  std::vector<CategoryTable> tables;
};

// Computes the canonical encoding host-side (the sequential fold above) and
// charges one `cat_encode` kernel per categorical column to every device in
// `devs` — one simulated thread per row hashing its cell and probing the
// statistic map, each (row, column) write owned by one thread. `devs` may
// be empty (host-only, e.g. tests).
CategoricalTrainEncoding encode_training_matrix(
    const DenseMatrix& x, const Labels& y, std::span<const std::int32_t> cat_cols,
    std::span<sim::Device* const> devs, float prior_weight = 1.0f);

}  // namespace gbmo::data
