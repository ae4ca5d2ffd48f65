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
// fields only — feature, threshold, default-left bit, left/right child —
// as parallel flat arrays with *absolute* node ids, plus every leaf value
// vector pooled in one contiguous buffer. Trees stay self-contained slabs
// ([node_base[t], node_base[t+1])), so a block can stage a whole group of
// trees into shared memory with coalesced loads and traverse on-chip.
//
// predict_compiled runs two commit-free launches. The routing grid tiles
// (tree-group × row-chunk) blocks, tree groups sized so the group's node
// slabs fit the device's shared memory; each block routes its 256 rows
// through its staged trees and records the reached leaf offsets. The
// reduction then gives each row chunk one block, which sums every row's
// leaf vectors in ascending tree order — so the result is bit-identical to
// the scalar reference predict_scores() at any --sim-threads value. Every
// block writes only its own words, so both launches fan out over the
// scheduler's workers. Missing values route by the default-left bit, the
// same rule the binned training partition applies (NaN -> bin 0 -> left).
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
  // forest compiles to an empty model that predicts all-zero scores.
  static CompiledModel compile(std::span<const Tree> trees, int n_outputs);

  int n_outputs() const { return n_outputs_; }
  std::size_t n_trees() const { return tree_node_base_.empty() ? 0 : tree_node_base_.size() - 1; }
  std::size_t n_nodes() const { return feature_.size(); }
  bool empty() const { return n_trees() == 0; }
  int max_depth() const { return max_depth_; }

  // --- flat arrays (kernel + test access) ---------------------------------
  std::span<const std::int32_t> feature() const { return feature_; }    // -1 => leaf
  std::span<const float> threshold() const { return threshold_; }
  std::span<const std::int32_t> left() const { return left_; }          // absolute ids
  std::span<const std::int32_t> right() const { return right_; }
  std::span<const std::int32_t> leaf_offset() const { return leaf_offset_; }
  std::span<const std::uint32_t> default_left_bits() const { return default_left_; }
  std::span<const float> leaf_pool() const { return leaf_pool_; }
  // First node id of tree t; node_base(n_trees()) == n_nodes().
  std::int32_t node_base(std::size_t t) const { return tree_node_base_[t]; }

  bool default_left(std::size_t node) const {
    return (default_left_[node >> 5] >> (node & 31u)) & 1u;
  }

  // Bytes a group of trees [t_lo, t_hi) occupies when staged in shared
  // memory (the four hot 4-byte arrays + the default-left bitset).
  std::size_t group_slab_bytes(std::size_t t_lo, std::size_t t_hi) const;

  // Host-side scalar traversal of tree t for one row: returns the absolute
  // offset of the reached leaf's value vector in leaf_pool().
  std::int32_t traverse(std::size_t t, std::span<const float> row) const;

  // Scalar host predict (no device accounting); bit-identical to
  // core::predict_scores on the source trees.
  std::vector<float> predict_host(const data::DenseMatrix& x) const;

 private:
  int n_outputs_ = 0;
  int max_depth_ = 0;
  std::vector<std::int32_t> feature_;
  std::vector<float> threshold_;
  std::vector<std::int32_t> left_;
  std::vector<std::int32_t> right_;
  std::vector<std::int32_t> leaf_offset_;
  std::vector<std::uint32_t> default_left_;  // 1 bit per node
  std::vector<std::int32_t> tree_node_base_;  // size n_trees + 1
  std::vector<float> leaf_pool_;
};

// Batched compiled inference: a routing launch over (tree-group × row-chunk)
// blocks, then a reduction launch that accumulates each score word ([i * d +
// k] layout) in ascending tree order, so results are bit-identical to
// predict_scores for every --sim-threads. A zero-tree model yields all-zero
// scores.
void predict_compiled(sim::Device& dev, const CompiledModel& model,
                      const data::DenseMatrix& x, std::span<float> scores);

}  // namespace gbmo::core
