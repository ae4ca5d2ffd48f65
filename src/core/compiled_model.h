// Compiled batched inference (§3.4.2 extended): the serving-side counterpart
// of the training pipeline.
//
// A trained model is a forest of pointer-y Tree objects — fine for training
// (which never re-traverses, §3.1.1) but wrong for heavy prediction traffic:
// every level costs two scattered loads through a 32-byte training node that
// drags split_bin / gain / n_instances along, and the reference device path
// launches one kernel per tree.
//
// CompiledModel flattens the whole forest once into structure-of-arrays form
// (the layout trick XGBoost's GPU predictor uses): per node, the routing
// fields only — feature, threshold, default-left flag, left child — as
// parallel flat arrays with *absolute* node ids, plus every leaf value vector
// pooled in one contiguous buffer. Two layout rules make routing branch-free:
//   - compile numbers each tree's nodes breadth-first, so a split's children
//     are adjacent (right == left + 1) and one step is
//     `id = left[id] + !go_left`;
//   - every leaf routes to itself (threshold +inf, default-left, left child
//     = itself), so a row that reached its leaf may keep stepping.
// Trees stay self-contained slabs ([node_base[t], node_base[t+1])), so on the
// modeled device a block stages a whole group of trees into shared memory
// with coalesced loads and traverses on-chip.
//
// predict_compiled runs two commit-free launches. The routing grid tiles
// (tree-group × row-chunk) blocks, tree groups sized so the group's node
// slabs fit the device's shared memory; each block routes its 256 rows
// through its trees and records the reached leaf offsets. On the host a row
// walks four trees in lockstep for the deepest one's depth; staged and
// unstaged groups run the same loop and differ only in what they charge. The
// reduction then gives each row chunk one block, which sums every row's leaf
// vectors in ascending tree order — so the result is bit-identical to the
// scalar reference predict_scores() at any --sim-threads value. Every block
// writes only its own words, so both launches fan out over the scheduler's
// workers. Missing values route by the default-left flag, the same rule the
// binned training partition applies (NaN -> bin 0 -> left).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/tree.h"
#include "data/matrix.h"
#include "sim/device.h"

namespace gbmo::core {

class CompiledModel {
 public:
  CompiledModel() = default;

  // Flattens `trees` (forest of d-output trees) into SoA form. An empty
  // forest compiles to an empty model that predicts all-zero scores. Throws
  // gbmo::Error on a tree whose child links are out of range or reach a
  // node twice.
  static CompiledModel compile(std::span<const Tree> trees, int n_outputs);

  int n_outputs() const { return n_outputs_; }
  std::size_t n_trees() const { return tree_depth_.size(); }
  std::size_t n_nodes() const { return feature_.size(); }
  bool empty() const { return n_trees() == 0; }
  // First node id of tree t; node_base(n_trees()) == n_nodes().
  std::int32_t node_base(std::size_t t) const { return tree_node_base_[t]; }

  // Bytes a group of trees [t_lo, t_hi) occupies when staged in shared
  // memory on the modeled device (five 4-byte arrays + a default-left
  // bitset per node).
  std::size_t group_slab_bytes(std::size_t t_lo, std::size_t t_hi) const;

  // Scalar host predict (no device accounting); bit-identical to
  // core::predict_scores on the source trees. Throws gbmo::Error when `x`
  // is narrower than a split feature.
  std::vector<float> predict_host(const data::DenseMatrix& x) const;

 private:
  friend void predict_compiled(sim::Device&, const CompiledModel&,
                               const data::DenseMatrix&, std::span<float>);

  // Throws gbmo::Error unless every split feature is a column of `x`.
  void check_columns(const data::DenseMatrix& x) const;

  // Routes one row (of at least check_columns' width) through trees
  // [t_lo, t_hi) and writes each reached leaf's offset into the leaf pool
  // to leaf[t - t_lo]. Returns the levels walked: the sum of the reached
  // leaves' depths.
  std::uint64_t route(const float* row, std::size_t t_lo, std::size_t t_hi,
                      std::int32_t* leaf) const;

  // acc[k] += the leaf vectors at pool offsets leaf[0..n), in that order.
  void add_leaves(const std::int32_t* leaf, std::size_t n, float* acc) const;

  int n_outputs_ = 0;
  std::int32_t max_feature_ = -1;  // widest split feature, -1 if none
  std::vector<std::int32_t> feature_;       // leaves: 0
  std::vector<float> threshold_;            // leaves: +inf
  std::vector<std::int32_t> left_;          // absolute ids; leaves: self
  std::vector<std::uint8_t> default_left_;  // leaves: 1
  std::vector<std::int32_t> leaf_offset_;   // leaves only; -1 on splits
  std::vector<std::int32_t> depth_;         // per node
  std::vector<std::int32_t> tree_depth_;
  std::vector<std::int32_t> tree_node_base_;  // size n_trees + 1
  std::vector<float> leaf_pool_;
};

// Batched compiled inference: a routing launch over (tree-group × row-chunk)
// blocks, then a reduction launch that accumulates each score word ([i * d +
// k] layout) in ascending tree order, so results are bit-identical to
// predict_scores for every --sim-threads. A zero-tree model yields all-zero
// scores. Throws gbmo::Error when `x` is narrower than a split feature.
void predict_compiled(sim::Device& dev, const CompiledModel& model,
                      const data::DenseMatrix& x, std::span<float> scores);

}  // namespace gbmo::core
