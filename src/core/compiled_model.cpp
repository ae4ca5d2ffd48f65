#include "core/compiled_model.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "sim/launch.h"

namespace gbmo::core {

CompiledModel CompiledModel::compile(std::span<const Tree> trees,
                                     int n_outputs) {
  CompiledModel m;
  m.n_outputs_ = n_outputs;
  m.tree_node_base_.reserve(trees.size() + 1);
  m.tree_node_base_.push_back(0);

  std::size_t total_nodes = 0;
  std::size_t total_leaf_values = 0;
  for (const auto& tree : trees) {
    GBMO_CHECK(tree.n_outputs() == n_outputs)
        << "forest mixes output dimensions";
    total_nodes += tree.n_nodes();
    total_leaf_values += tree.all_leaf_values().size();
  }
  m.feature_.reserve(total_nodes);
  m.threshold_.reserve(total_nodes);
  m.left_.reserve(total_nodes);
  m.right_.reserve(total_nodes);
  m.leaf_offset_.reserve(total_nodes);
  m.default_left_.assign((total_nodes + 31) / 32, 0u);
  m.leaf_pool_.reserve(total_leaf_values);

  for (const auto& tree : trees) {
    const auto base = m.tree_node_base_.back();
    const auto leaf_base = static_cast<std::int32_t>(m.leaf_pool_.size());
    for (const auto& n : tree.raw_nodes()) {
      const std::size_t id = m.feature_.size();
      if (n.is_leaf()) {
        m.feature_.push_back(-1);
        m.threshold_.push_back(0.0f);
        m.left_.push_back(-1);
        m.right_.push_back(-1);
        m.leaf_offset_.push_back(leaf_base + n.leaf_offset);
      } else {
        m.feature_.push_back(n.feature);
        m.threshold_.push_back(n.threshold);
        m.left_.push_back(base + n.left);
        m.right_.push_back(base + n.right);
        m.leaf_offset_.push_back(-1);
      }
      if (n.default_left) m.default_left_[id >> 5] |= 1u << (id & 31u);
    }
    const auto lv = tree.all_leaf_values();
    m.leaf_pool_.insert(m.leaf_pool_.end(), lv.begin(), lv.end());
    m.tree_node_base_.push_back(base +
                                static_cast<std::int32_t>(tree.n_nodes()));
    m.max_depth_ = std::max(m.max_depth_, tree.max_depth_reached());
  }
  return m;
}

std::size_t CompiledModel::group_slab_bytes(std::size_t t_lo,
                                            std::size_t t_hi) const {
  const auto nodes = static_cast<std::size_t>(tree_node_base_[t_hi] -
                                              tree_node_base_[t_lo]);
  // Five hot 4-byte arrays (feature / threshold / left / right /
  // leaf-offset) plus the default-left bitset.
  return nodes * 20 + ((nodes + 31) / 32) * 4;
}

std::int32_t CompiledModel::traverse(std::size_t t,
                                     std::span<const float> row) const {
  std::int32_t id = node_base(t);
  while (feature_[static_cast<std::size_t>(id)] >= 0) {
    const auto i = static_cast<std::size_t>(id);
    const float v = row[static_cast<std::size_t>(feature_[i])];
    const bool go_left = std::isnan(v) ? default_left(i) : v <= threshold_[i];
    id = go_left ? left_[i] : right_[i];
  }
  return leaf_offset_[static_cast<std::size_t>(id)];
}

std::vector<float> CompiledModel::predict_host(
    const data::DenseMatrix& x) const {
  const auto d = static_cast<std::size_t>(n_outputs_);
  std::vector<float> scores(x.n_rows() * d, 0.0f);
  for (std::size_t t = 0; t < n_trees(); ++t) {
    for (std::size_t i = 0; i < x.n_rows(); ++i) {
      const float* src =
          leaf_pool_.data() + static_cast<std::size_t>(traverse(t, x.row(i)));
      float* dst = scores.data() + i * d;
      for (std::size_t k = 0; k < d; ++k) dst[k] += src[k];
    }
  }
  return scores;
}

namespace {

// One contiguous group of trees scheduled as a block row of the routing
// grid; `staged` means the group's SoA slabs fit the device's shared memory
// (the normal case — a single tree only overflows at extreme depth, and then
// the block traverses from global memory instead).
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
  std::fill(scores.begin(), scores.end(), 0.0f);
  const std::size_t n = x.n_rows();
  if (m.empty() || n == 0) return;
  const int d = m.n_outputs();
  GBMO_CHECK(scores.size() == n * static_cast<std::size_t>(d));

  const std::size_t n_trees = m.n_trees();
  const auto groups = make_groups(m, dev.spec().shared_mem_per_block);
  const auto feature = m.feature();
  const auto threshold = m.threshold();
  const auto left = m.left();
  const auto right = m.right();
  const auto leaf_offset = m.leaf_offset();
  const auto pool = m.leaf_pool();

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
    // Retryable under fault injection: every scratch word is fully rewritten
    // by its owning block, so a retried launch is idempotent as-is.
    sim::with_retry(dev, [&] {
    sim::launch(dev, "predict_compiled_route", route_grid, kBlock,
                [&](sim::BlockCtx& blk) {
      const auto& grp = groups[static_cast<std::size_t>(blk.block_id()) /
                               static_cast<std::size_t>(chunks)];
      const std::size_t chunk = static_cast<std::size_t>(blk.block_id()) %
                                static_cast<std::size_t>(chunks);
      const std::size_t row_lo = tile_lo + chunk * kBlock;
      const std::size_t row_hi = std::min(tile_hi, row_lo + kBlock);
      const std::size_t g_trees = grp.t_hi - grp.t_lo;
      const auto node_lo = static_cast<std::size_t>(m.node_base(grp.t_lo));
      const std::size_t slab_nodes =
          static_cast<std::size_t>(m.node_base(grp.t_hi)) - node_lo;

      // Functional shared-memory staging: block-local copies of the group's
      // slabs (modeled below as one coalesced global read + smem fill).
      std::vector<std::int32_t> f_s, l_s, r_s, lo_s;
      std::vector<float> thr_s;
      std::vector<std::uint8_t> dl_s;
      if (grp.staged) {
        f_s.assign(feature.begin() + node_lo,
                   feature.begin() + node_lo + slab_nodes);
        thr_s.assign(threshold.begin() + node_lo,
                     threshold.begin() + node_lo + slab_nodes);
        l_s.assign(left.begin() + node_lo, left.begin() + node_lo + slab_nodes);
        r_s.assign(right.begin() + node_lo,
                   right.begin() + node_lo + slab_nodes);
        lo_s.assign(leaf_offset.begin() + node_lo,
                    leaf_offset.begin() + node_lo + slab_nodes);
        dl_s.resize(slab_nodes);
        for (std::size_t i = 0; i < slab_nodes; ++i) {
          dl_s[i] = m.default_left(node_lo + i) ? 1 : 0;
        }
        const auto slab_bytes =
            static_cast<std::uint64_t>(m.group_slab_bytes(grp.t_lo, grp.t_hi));
        blk.stats().gmem_coalesced_bytes += slab_bytes;
        blk.stats().smem_bytes += slab_bytes;
      }

      auto leaf_idx_v = blk.global_view(std::span<std::int32_t>(leaf_idx),
                                        "compiled_leaf_idx");
      blk.threads([&](int tid) {
        const std::size_t i = row_lo + static_cast<std::size_t>(tid);
        if (i >= row_hi) return;
        const auto row = x.row(i);
        auto& s = blk.stats();
        for (std::size_t t = grp.t_lo; t < grp.t_hi; ++t) {
          std::int32_t id = m.node_base(t);
          int levels = 0;
          std::int32_t leaf = -1;
          if (grp.staged) {
            std::size_t rel = static_cast<std::size_t>(id) - node_lo;
            while (f_s[rel] >= 0) {
              const float v = row[static_cast<std::size_t>(f_s[rel])];
              const bool go_left =
                  std::isnan(v) ? dl_s[rel] != 0 : v <= thr_s[rel];
              rel = static_cast<std::size_t>(go_left ? l_s[rel] : r_s[rel]) -
                    node_lo;
              ++levels;
            }
            leaf = lo_s[rel];
            // On-chip node fetches: feature + threshold + child id + the
            // default-left bit per level.
            s.smem_bytes += static_cast<std::uint64_t>(levels) * 13;
          } else {
            while (feature[static_cast<std::size_t>(id)] >= 0) {
              const auto ni = static_cast<std::size_t>(id);
              const float v = row[static_cast<std::size_t>(feature[ni])];
              const bool go_left =
                  std::isnan(v) ? m.default_left(ni) : v <= threshold[ni];
              id = go_left ? left[ni] : right[ni];
              ++levels;
            }
            leaf = leaf_offset[static_cast<std::size_t>(id)];
            // Unstaged fallback pays the same scattered node fetches as the
            // pointer-chasing reference.
            s.gmem_random_accesses += static_cast<std::uint64_t>(levels) * 2;
          }
          leaf_idx_v.store((i - tile_lo) * n_trees + t, leaf);
        }
        // Leaf-offset scratch write-out: one coalesced word per tree.
        blk.stats().gmem_coalesced_bytes +=
            static_cast<std::uint64_t>(g_trees) * sizeof(std::int32_t);
      });
    });
    });

    // --- Phase 2: reduction. One block per row chunk accumulates each
    // row's score vector over all trees in ascending tree order, in place in
    // the zeroed score rows (so every score word sees the exact
    // float-addition sequence of the scalar reference). Every score word is
    // owned by exactly one block, so the writes are block-partitioned — no
    // commit, so the launch fans out, and the checker verifies exactly that
    // through each row's final store.
    // Restage-on-retry: the tile's rows are re-zeroed before every attempt,
    // so a retried reduce never adds onto a faulted attempt's partial sums.
    sim::with_retry(dev, [&] {
    std::fill(scores.begin() + static_cast<std::ptrdiff_t>(tile_lo * d),
              scores.begin() + static_cast<std::ptrdiff_t>(tile_hi * d), 0.0f);
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
        const std::int32_t* li =
            leaf_idx.data() + (i - tile_lo) * n_trees;
        for (std::size_t t = 0; t < n_trees; ++t) {
          const float* src = pool.data() + static_cast<std::size_t>(li[t]);
          for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] += src[k];
        }
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
    });
  }
}

}  // namespace gbmo::core
