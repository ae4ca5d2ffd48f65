#include "core/compiled_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "sim/launch.h"

namespace gbmo::core {

CompiledModel CompiledModel::compile(std::span<const Tree> trees,
                                     int n_outputs) {
  CompiledModel m;
  m.n_outputs_ = n_outputs;
  m.tree_node_base_.reserve(trees.size() + 1);
  m.tree_node_base_.push_back(0);
  m.tree_depth_.reserve(trees.size());

  std::size_t total_nodes = 0;
  std::size_t total_leaf_values = 0;
  for (const auto& tree : trees) {
    GBMO_CHECK(tree.n_outputs() == n_outputs)
        << "forest mixes output dimensions";
    GBMO_CHECK(tree.n_nodes() > 0) << "tree without a root";
    total_nodes += tree.n_nodes();
    total_leaf_values += tree.all_leaf_values().size();
  }
  m.feature_.reserve(total_nodes);
  m.threshold_.reserve(total_nodes);
  m.left_.reserve(total_nodes);
  m.default_left_.reserve(total_nodes);
  m.leaf_offset_.reserve(total_nodes);
  m.depth_.reserve(total_nodes);
  m.leaf_pool_.reserve(total_leaf_values);

  struct Queued {
    std::int32_t node;
    std::int32_t depth;
  };
  std::vector<Queued> queue;
  std::vector<std::uint8_t> queued;
  for (const auto& tree : trees) {
    const auto nodes = tree.raw_nodes();
    const auto base = m.tree_node_base_.back();
    const auto leaf_base = static_cast<std::int32_t>(m.leaf_pool_.size());
    // Breadth-first renumbering: queue position q becomes node base + q, so
    // a split's two children get adjacent ids. A node is queued at most
    // once, so the walk ends within n_nodes steps even on a corrupt tree.
    queue.assign(1, {0, 0});
    queued.assign(nodes.size(), 0);
    queued[0] = 1;
    std::int32_t tree_depth = 0;
    for (std::size_t q = 0; q < queue.size(); ++q) {
      const auto [node, depth] = queue[q];
      const auto& n = nodes[static_cast<std::size_t>(node)];
      const auto id = base + static_cast<std::int32_t>(q);
      m.depth_.push_back(depth);
      if (n.is_leaf()) {
        // A leaf routes to itself whatever the row holds.
        m.feature_.push_back(0);
        m.threshold_.push_back(std::numeric_limits<float>::infinity());
        m.left_.push_back(id);
        m.default_left_.push_back(1);
        m.leaf_offset_.push_back(leaf_base + n.leaf_offset);
        tree_depth = std::max(tree_depth, depth);
        continue;
      }
      for (const std::int32_t child : {n.left, n.right}) {
        GBMO_CHECK(child >= 0 &&
                   static_cast<std::size_t>(child) < nodes.size() &&
                   !queued[static_cast<std::size_t>(child)])
            << "tree node " << node << ": child " << child
            << " is out of range or reached twice";
        queued[static_cast<std::size_t>(child)] = 1;
        queue.push_back({child, depth + 1});
      }
      m.feature_.push_back(n.feature);
      m.threshold_.push_back(n.threshold);
      m.left_.push_back(base + static_cast<std::int32_t>(queue.size() - 2));
      m.default_left_.push_back(n.default_left ? 1 : 0);
      m.leaf_offset_.push_back(-1);
      m.max_feature_ = std::max(m.max_feature_, n.feature);
    }
    const auto lv = tree.all_leaf_values();
    m.leaf_pool_.insert(m.leaf_pool_.end(), lv.begin(), lv.end());
    m.tree_node_base_.push_back(base + static_cast<std::int32_t>(queue.size()));
    m.tree_depth_.push_back(tree_depth);
  }
  return m;
}

std::size_t CompiledModel::group_slab_bytes(std::size_t t_lo,
                                            std::size_t t_hi) const {
  const auto nodes = static_cast<std::size_t>(tree_node_base_[t_hi] -
                                              tree_node_base_[t_lo]);
  // The modeled device layout: five 4-byte arrays (feature / threshold /
  // left / right / leaf-offset) plus the default-left bitset.
  return nodes * 20 + ((nodes + 31) / 32) * 4;
}

void CompiledModel::check_columns(const data::DenseMatrix& x) const {
  GBMO_CHECK(static_cast<std::int64_t>(x.n_cols()) > max_feature_)
      << "batch has " << x.n_cols() << " columns but the model splits on "
      << "feature " << max_feature_;
}

std::uint64_t CompiledModel::route(const float* row, std::size_t t_lo,
                                   std::size_t t_hi, std::int32_t* leaf) const {
  const std::int32_t* feature = feature_.data();
  const float* threshold = threshold_.data();
  const std::int32_t* left = left_.data();
  const std::uint8_t* default_left = default_left_.data();
  // One level, branch-free: NaN follows the default-left flag, and the right
  // child sits next to the left one. A leaf steps to itself.
  const auto step = [&](std::int32_t id) {
    const auto n = static_cast<std::size_t>(id);
    const float v = row[feature[n]];
    const bool go_left = (v <= threshold[n]) | (std::isnan(v) & default_left[n]);
    return left[n] + static_cast<std::int32_t>(!go_left);
  };
  std::uint64_t levels = 0;
  const auto reached = [&](std::size_t t, std::int32_t id) {
    leaf[t - t_lo] = leaf_offset_[static_cast<std::size_t>(id)];
    levels += static_cast<std::uint64_t>(depth_[static_cast<std::size_t>(id)]);
  };
  std::size_t t = t_lo;
  // Four independent walks in lockstep, for the deepest one's depth, so the
  // core overlaps their load chains.
  for (; t + 4 <= t_hi; t += 4) {
    std::int32_t id0 = tree_node_base_[t];
    std::int32_t id1 = tree_node_base_[t + 1];
    std::int32_t id2 = tree_node_base_[t + 2];
    std::int32_t id3 = tree_node_base_[t + 3];
    const std::int32_t depth = std::max({tree_depth_[t], tree_depth_[t + 1],
                                         tree_depth_[t + 2], tree_depth_[t + 3]});
    for (std::int32_t l = 0; l < depth; ++l) {
      id0 = step(id0);
      id1 = step(id1);
      id2 = step(id2);
      id3 = step(id3);
    }
    reached(t, id0);
    reached(t + 1, id1);
    reached(t + 2, id2);
    reached(t + 3, id3);
  }
  for (; t < t_hi; ++t) {
    std::int32_t id = tree_node_base_[t];
    for (std::int32_t l = 0; l < tree_depth_[t]; ++l) id = step(id);
    reached(t, id);
  }
  return levels;
}

namespace {

// acc[0..d) += a, then b, c and e: each word gets its four adds in that
// order, and is loaded and stored once. The 4-wide unrolled body becomes
// vector adds at -O2.
inline void add_vectors(float* __restrict acc, const float* __restrict a,
                        const float* __restrict b, const float* __restrict c,
                        const float* __restrict e, std::size_t d) {
  std::size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    acc[k] = acc[k] + a[k] + b[k] + c[k] + e[k];
    acc[k + 1] = acc[k + 1] + a[k + 1] + b[k + 1] + c[k + 1] + e[k + 1];
    acc[k + 2] = acc[k + 2] + a[k + 2] + b[k + 2] + c[k + 2] + e[k + 2];
    acc[k + 3] = acc[k + 3] + a[k + 3] + b[k + 3] + c[k + 3] + e[k + 3];
  }
  for (; k < d; ++k) acc[k] = acc[k] + a[k] + b[k] + c[k] + e[k];
}

// acc[0..d) += a[0..d).
inline void add_vector(float* __restrict acc, const float* __restrict a,
                       std::size_t d) {
  std::size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    acc[k] += a[k];
    acc[k + 1] += a[k + 1];
    acc[k + 2] += a[k + 2];
    acc[k + 3] += a[k + 3];
  }
  for (; k < d; ++k) acc[k] += a[k];
}

}  // namespace

void CompiledModel::add_leaves(const std::int32_t* leaf, std::size_t n,
                               float* acc) const {
  const auto d = static_cast<std::size_t>(n_outputs_);
  const auto vec = [&](std::size_t t) {
    return leaf_pool_.data() + static_cast<std::size_t>(leaf[t]);
  };
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    add_vectors(acc, vec(t), vec(t + 1), vec(t + 2), vec(t + 3), d);
  }
  for (; t < n; ++t) add_vector(acc, vec(t), d);
}

std::vector<float> CompiledModel::predict_host(
    const data::DenseMatrix& x) const {
  check_columns(x);
  const auto d = static_cast<std::size_t>(n_outputs_);
  std::vector<float> scores(x.n_rows() * d, 0.0f);
  std::vector<std::int32_t> leaf(n_trees());
  for (std::size_t i = 0; i < x.n_rows(); ++i) {
    route(x.row(i).data(), 0, n_trees(), leaf.data());
    add_leaves(leaf.data(), leaf.size(), scores.data() + i * d);
  }
  return scores;
}

namespace {

// One contiguous group of trees scheduled as a block row of the routing
// grid; `staged` means the group's SoA slabs fit the device's shared memory
// (the normal case — a single tree only overflows at extreme depth, and then
// the block is charged for traversing from global memory instead).
struct TreeGroup {
  std::size_t t_lo = 0;
  std::size_t t_hi = 0;
  bool staged = true;
};

std::vector<TreeGroup> make_groups(const CompiledModel& m,
                                   std::size_t smem_budget) {
  std::vector<TreeGroup> groups;
  for (std::size_t t = 0; t < m.n_trees();) {
    std::size_t hi = t + 1;
    while (hi < m.n_trees() && m.group_slab_bytes(t, hi + 1) <= smem_budget) {
      ++hi;
    }
    groups.push_back({t, hi, m.group_slab_bytes(t, hi) <= smem_budget});
    t = hi;
  }
  return groups;
}

}  // namespace

void predict_compiled(sim::Device& dev, const CompiledModel& m,
                      const data::DenseMatrix& x, std::span<float> scores) {
  m.check_columns(x);
  std::fill(scores.begin(), scores.end(), 0.0f);
  const std::size_t n = x.n_rows();
  if (m.empty() || n == 0) return;
  const int d = m.n_outputs();
  GBMO_CHECK(scores.size() == n * static_cast<std::size_t>(d));

  const std::size_t n_trees = m.n_trees();
  const auto groups = make_groups(m, dev.spec().shared_mem_per_block);

  constexpr int kBlock = 256;
  // Rows are processed in macro-tiles so the (row × tree) leaf-offset
  // scratch stays bounded regardless of the request size.
  constexpr std::size_t kRowTile = 64 * 1024;
  std::vector<std::int32_t> leaf_idx(std::min(n, kRowTile) * n_trees, -1);

  for (std::size_t tile_lo = 0; tile_lo < n; tile_lo += kRowTile) {
    const std::size_t tile_hi = std::min(n, tile_lo + kRowTile);
    const std::size_t tile_rows = tile_hi - tile_lo;
    const int chunks = std::max(1, sim::blocks_for(tile_rows, kBlock));

    // --- Phase 1: routing. Grid tiles (tree-group × row-chunk); each block
    // stages its group's SoA slabs in shared memory, routes its 256 rows
    // through them (default-left on NaN) and writes the reached leaf-pool
    // offsets to the scratch. Every scratch word is owned by exactly one
    // block, so the writes are block-partitioned — no commit needed, and
    // the checker verifies exactly that.
    const int route_grid = static_cast<int>(groups.size()) * chunks;
    sim::launch(dev, "predict_compiled_route", route_grid, kBlock,
                [&](sim::BlockCtx& blk) {
      const auto& grp = groups[static_cast<std::size_t>(blk.block_id()) /
                               static_cast<std::size_t>(chunks)];
      const std::size_t chunk = static_cast<std::size_t>(blk.block_id()) %
                                static_cast<std::size_t>(chunks);
      const std::size_t row_lo = tile_lo + chunk * kBlock;
      const std::size_t row_hi = std::min(tile_hi, row_lo + kBlock);
      const std::size_t g_trees = grp.t_hi - grp.t_lo;

      // Shared-memory staging is charged, not copied: the host walks the
      // model's own arrays (modeled as one coalesced global read + smem
      // fill of the group's slabs).
      if (grp.staged) {
        const auto slab_bytes =
            static_cast<std::uint64_t>(m.group_slab_bytes(grp.t_lo, grp.t_hi));
        blk.stats().gmem_coalesced_bytes += slab_bytes;
        blk.stats().smem_bytes += slab_bytes;
      }

      auto leaf_idx_v = blk.global_view(std::span<std::int32_t>(leaf_idx),
                                        "compiled_leaf_idx");
      std::vector<std::int32_t> leaf(g_trees);
      blk.threads([&](int tid) {
        const std::size_t i = row_lo + static_cast<std::size_t>(tid);
        if (i >= row_hi) return;
        const std::uint64_t levels =
            m.route(x.row(i).data(), grp.t_lo, grp.t_hi, leaf.data());
        const std::size_t out = (i - tile_lo) * n_trees + grp.t_lo;
        for (std::size_t j = 0; j < g_trees; ++j) {
          leaf_idx_v.store(out + j, leaf[j]);
        }
        auto& s = blk.stats();
        if (grp.staged) {
          // On-chip node fetches: feature + threshold + child id + the
          // default-left bit per level.
          s.smem_bytes += levels * 13;
        } else {
          // Unstaged fallback pays the same scattered node fetches as the
          // pointer-chasing reference.
          s.gmem_random_accesses += levels * 2;
        }
        // Leaf-offset scratch write-out: one coalesced word per tree.
        s.gmem_coalesced_bytes +=
            static_cast<std::uint64_t>(g_trees) * sizeof(std::int32_t);
      });
    });

    // --- Phase 2: reduction. One block per row chunk accumulates each
    // row's score vector over all trees in ascending tree order, in place in
    // the zeroed score rows (so every score word sees the exact
    // float-addition sequence of the scalar reference). Every score word is
    // owned by exactly one block, so the writes are block-partitioned — no
    // commit, so the launch fans out, and the checker verifies exactly that
    // through each row's final store.
    sim::launch(dev, "predict_compiled_reduce", chunks, kBlock,
                [&](sim::BlockCtx& blk) {
      const std::size_t row_lo =
          tile_lo + static_cast<std::size_t>(blk.block_id()) * kBlock;
      const std::size_t row_hi = std::min(tile_hi, row_lo + kBlock);
      auto scores_v = blk.global_view(scores, "compiled_scores");
      blk.threads([&](int tid) {
        const std::size_t i = row_lo + static_cast<std::size_t>(tid);
        if (i >= row_hi) return;
        const std::size_t off = i * static_cast<std::size_t>(d);
        float* acc = scores.data() + off;
        m.add_leaves(leaf_idx.data() + (i - tile_lo) * n_trees, n_trees, acc);
        for (int k = 0; k < d; ++k) {
          scores_v.store(off + static_cast<std::size_t>(k),
                         acc[static_cast<std::size_t>(k)]);
        }
        auto& s = blk.stats();
        // Per tree: the scratch word (coalesced) plus the pooled leaf-vector
        // gather (one scattered transaction + d floats at bandwidth).
        s.gmem_coalesced_bytes += static_cast<std::uint64_t>(n_trees) *
                                  (sizeof(std::int32_t) +
                                   static_cast<std::uint64_t>(d) * sizeof(float));
        s.gmem_random_accesses += static_cast<std::uint64_t>(n_trees);
        s.flops += static_cast<std::uint64_t>(n_trees) *
                   static_cast<std::uint64_t>(d);
      });
      // Final score write-out, coalesced.
      blk.stats().gmem_coalesced_bytes +=
          static_cast<std::uint64_t>(row_hi - row_lo) *
          static_cast<std::uint64_t>(d) * sizeof(float);
    });
  }
}

}  // namespace gbmo::core
