// Task losses with first/second-order derivatives (diagonal Hessian, §2.2).
//
// Scores, gradients and Hessians all use the [instance * d + output] layout.
// Losses are pure math; the GPU kernels that evaluate them over a dataset
// live in core/gradients.{h,cpp}.
#pragma once

#include <memory>
#include <span>

#include "data/matrix.h"

namespace gbmo::core {

class Loss {
 public:
  virtual ~Loss() = default;
  virtual const char* name() const = 0;

  // Writes g and h for one instance given its d scores. `target(k)` exposes
  // the dense label view of data::Labels.
  virtual void instance_gradients(std::span<const float> scores,
                                  const data::Labels& y, std::size_t i,
                                  std::span<float> g, std::span<float> h) const = 0;

  // Ranking losses couple the instances of one query group and cannot be
  // evaluated per instance. When per_query() is true, core::compute_gradients
  // dispatches one simulated thread per query group, calling
  // query_gradients for the rows [q_begin, q_end) instead of
  // instance_gradients. All spans are the full [n * d] arrays (d == 1 for
  // ranking); the loss fully rewrites g/h for its rows, and rows of
  // different queries never alias.
  virtual bool per_query() const { return false; }
  virtual void query_gradients(std::span<const float> scores,
                               const data::Labels& y, std::size_t q_begin,
                               std::size_t q_end, std::span<float> g,
                               std::span<float> h) const;

  // Mean loss over the dataset (used by convergence tests and reporting).
  virtual double value(std::span<const float> scores, const data::Labels& y) const = 0;

  // Approximate flop count per instance (for the cost model).
  virtual std::uint64_t flops_per_instance(int n_outputs) const = 0;

  // Default loss for a task: MSE for multiregression, softmax cross-entropy
  // for multiclass, per-output sigmoid BCE for multilabel, LambdaRank for
  // ranking.
  static std::unique_ptr<Loss> default_for(data::TaskKind task);
};

// Mean squared error: l = Σ_k (s_k − y_k)²; g = 2(s − y), h = 2 (the paper's
// demonstration loss, §3.1.1).
class MseLoss final : public Loss {
 public:
  const char* name() const override { return "mse"; }
  void instance_gradients(std::span<const float> scores, const data::Labels& y,
                          std::size_t i, std::span<float> g,
                          std::span<float> h) const override;
  double value(std::span<const float> scores, const data::Labels& y) const override;
  std::uint64_t flops_per_instance(int n_outputs) const override {
    return static_cast<std::uint64_t>(n_outputs) * 4;
  }
};

// Softmax cross-entropy over d classes: g_k = p_k − y_k, h_k = p_k(1 − p_k),
// with the Hessian floored for numerical stability.
class SoftmaxCrossEntropyLoss final : public Loss {
 public:
  const char* name() const override { return "softmax_ce"; }
  void instance_gradients(std::span<const float> scores, const data::Labels& y,
                          std::size_t i, std::span<float> g,
                          std::span<float> h) const override;
  double value(std::span<const float> scores, const data::Labels& y) const override;
  std::uint64_t flops_per_instance(int n_outputs) const override {
    return static_cast<std::uint64_t>(n_outputs) * 12;
  }
};

// Huber (pseudo-robust) loss per output: quadratic within ±delta of the
// target, linear outside — robust multi-output regression for targets with
// outliers. Second derivative is 2 inside the quadratic zone and a small
// positive floor outside (the standard GBDT treatment).
class HuberLoss final : public Loss {
 public:
  explicit HuberLoss(float delta = 1.0f) : delta_(delta) {}
  const char* name() const override { return "huber"; }
  void instance_gradients(std::span<const float> scores, const data::Labels& y,
                          std::size_t i, std::span<float> g,
                          std::span<float> h) const override;
  double value(std::span<const float> scores, const data::Labels& y) const override;
  std::uint64_t flops_per_instance(int n_outputs) const override {
    return static_cast<std::uint64_t>(n_outputs) * 6;
  }
  float delta() const { return delta_; }

 private:
  float delta_;
};

// LambdaRank-style pairwise ranking loss (d = 1). For each query group and
// each document pair with unequal relevance, the pairwise logistic loss is
// weighted by |ΔNDCG| — the NDCG change from swapping the pair at the
// current score-sorted ranks (tie-break: score desc, then row asc, the same
// rule core::ndcg_at_k uses). Gradients accumulate per document over its
// pairs; the Hessian is the standard σ²|ΔNDCG|ρ(1−ρ) with a positive floor.
// value() is the mean unweighted pairwise logistic loss over all ordered
// pairs (0 when no query has a discordant-relevance pair).
class LambdaRankLoss final : public Loss {
 public:
  explicit LambdaRankLoss(double sigma = 1.0) : sigma_(sigma) {}
  const char* name() const override { return "lambdarank"; }
  bool per_query() const override { return true; }
  void instance_gradients(std::span<const float> scores, const data::Labels& y,
                          std::size_t i, std::span<float> g,
                          std::span<float> h) const override;
  void query_gradients(std::span<const float> scores, const data::Labels& y,
                       std::size_t q_begin, std::size_t q_end,
                       std::span<float> g, std::span<float> h) const override;
  double value(std::span<const float> scores, const data::Labels& y) const override;
  std::uint64_t flops_per_instance(int n_outputs) const override {
    // Dominated by the per-query pair sweep; amortized per document.
    return static_cast<std::uint64_t>(n_outputs) * 96;
  }
  double sigma() const { return sigma_; }

 private:
  double sigma_;
};

// Independent sigmoid binary cross-entropy per output (multilabel).
class SigmoidBceLoss final : public Loss {
 public:
  const char* name() const override { return "sigmoid_bce"; }
  void instance_gradients(std::span<const float> scores, const data::Labels& y,
                          std::size_t i, std::span<float> g,
                          std::span<float> h) const override;
  double value(std::span<const float> scores, const data::Labels& y) const override;
  std::uint64_t flops_per_instance(int n_outputs) const override {
    return static_cast<std::uint64_t>(n_outputs) * 10;
  }
};

}  // namespace gbmo::core
