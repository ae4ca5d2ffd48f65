// Dense training data containers: feature matrix, multi-output labels, and
// the Dataset bundle the boosters consume.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"

namespace gbmo::data {

enum class TaskKind : std::uint8_t {
  kMulticlass,
  kMultilabel,
  kMultiregression,
  kRanking,  // learning-to-rank: one relevance grade + query id per instance
};

const char* task_name(TaskKind t);
// Inverse of task_name; throws gbmo::Error naming the four task names.
TaskKind parse_task(const std::string& name);

// Row-major dense float matrix (instances x features).
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t n_rows, std::size_t n_cols, float fill = 0.0f)
      : n_rows_(n_rows), n_cols_(n_cols), values_(n_rows * n_cols, fill) {}

  std::size_t n_rows() const { return n_rows_; }
  std::size_t n_cols() const { return n_cols_; }

  float at(std::size_t r, std::size_t c) const {
    GBMO_DCHECK(r < n_rows_ && c < n_cols_);
    return values_[r * n_cols_ + c];
  }
  float& at(std::size_t r, std::size_t c) {
    GBMO_DCHECK(r < n_rows_ && c < n_cols_);
    return values_[r * n_cols_ + c];
  }

  std::span<const float> row(std::size_t r) const {
    GBMO_DCHECK(r < n_rows_);
    return {values_.data() + r * n_cols_, n_cols_};
  }
  std::span<float> row(std::size_t r) {
    GBMO_DCHECK(r < n_rows_);
    return {values_.data() + r * n_cols_, n_cols_};
  }

  // Copies a feature column (the storage is row-major).
  std::vector<float> col(std::size_t c) const;

  std::span<const float> values() const { return values_; }
  std::span<float> values() { return values_; }

  // Fraction of exact zeros, used by storage-format selection.
  double zero_fraction() const;

 private:
  std::size_t n_rows_ = 0;
  std::size_t n_cols_ = 0;
  std::vector<float> values_;
};

// Multi-output labels. Storage depends on the task:
//  - multiclass:      class_ids[n]                (one int per instance)
//  - multilabel:      indicators[n * d] in {0,1}
//  - multiregression: targets[n * d] floats
//  - ranking:         targets[n] relevance grades + query_ids[n] (d = 1);
//                     rows of one query must be contiguous
// target(i, k) presents all of them as a dense d-dimensional regression
// target so losses can be written uniformly.
class Labels {
 public:
  Labels() = default;
  static Labels multiclass(std::vector<std::int32_t> class_ids, int n_classes);
  static Labels multilabel(std::vector<std::uint8_t> indicators, std::size_t n,
                           int n_outputs);
  static Labels multiregression(std::vector<float> targets, std::size_t n,
                                int n_outputs);
  static Labels ranking(std::vector<float> relevance,
                        std::vector<std::uint32_t> query_ids);

  TaskKind task() const { return task_; }
  std::size_t size() const { return n_; }
  int n_outputs() const { return n_outputs_; }

  float target(std::size_t i, int k) const {
    GBMO_DCHECK(i < n_ && k >= 0 && k < n_outputs_);
    switch (task_) {
      case TaskKind::kMulticlass:
        return class_ids_[i] == k ? 1.0f : 0.0f;
      case TaskKind::kMultilabel:
        return static_cast<float>(indicators_[i * n_outputs_ + k]);
      case TaskKind::kMultiregression:
      case TaskKind::kRanking:
        return targets_[i * n_outputs_ + k];
    }
    return 0.0f;
  }

  std::int32_t class_id(std::size_t i) const {
    GBMO_DCHECK(task_ == TaskKind::kMulticlass && i < n_);
    return class_ids_[i];
  }

  std::span<const std::int32_t> class_ids() const { return class_ids_; }
  std::span<const std::uint8_t> indicators() const { return indicators_; }
  std::span<const float> targets() const { return targets_; }

  // Ranking only: per-instance query ids (empty span otherwise).
  std::span<const std::uint32_t> query_ids() const { return query_ids_; }

  // Ranking only: the contiguous [begin, end) row ranges of each query, in
  // row order. Computed on demand from the query-id runs.
  struct QuerySpan {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  std::vector<QuerySpan> query_spans() const;

  // Subset of instances (used for train/test splits). An order-preserving
  // subset of grouped query ids stays grouped, so ranking subsets remain
  // valid (queries may shrink or disappear).
  Labels subset(std::span<const std::uint32_t> rows) const;

 private:
  TaskKind task_ = TaskKind::kMultiregression;
  std::size_t n_ = 0;
  int n_outputs_ = 0;
  std::vector<std::int32_t> class_ids_;
  std::vector<std::uint8_t> indicators_;
  std::vector<float> targets_;
  std::vector<std::uint32_t> query_ids_;
};

struct Dataset {
  std::string name;
  DenseMatrix x;
  Labels y;

  std::size_t n_instances() const { return x.n_rows(); }
  std::size_t n_features() const { return x.n_cols(); }
  int n_outputs() const { return y.n_outputs(); }
  TaskKind task() const { return y.task(); }
};

// Deterministic split: every k-th instance (k = 1/test_fraction) goes to the
// test set; preserves class balance well enough for replicas.
struct TrainTestSplit {
  Dataset train;
  Dataset test;
};
TrainTestSplit split_dataset(const Dataset& full, double test_fraction,
                             std::uint64_t seed = 7);

}  // namespace gbmo::data
