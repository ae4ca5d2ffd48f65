#include "core/predictor.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "sim/launch.h"

namespace gbmo::core {

void update_scores_from_leaves(sim::Device& dev, const Tree& tree,
                               std::span<const std::int32_t> leaf_of_row,
                               std::span<float> scores, bool apply) {
  const int d = tree.n_outputs();
  const std::size_t n = leaf_of_row.size();
  GBMO_CHECK(scores.size() == n * static_cast<std::size_t>(d));

  constexpr int kBlock = 256;
  sim::launch(dev, "update_scores", std::max(1, sim::blocks_for(n, kBlock)),
              kBlock, [&](sim::BlockCtx& blk) {
    // Checked view (race/memory checker; non-counting — the bulk stats
    // below stay the profile of record): the writes are block-partitioned
    // by instance, which the checker verifies.
    auto scores_v = blk.global_view(scores, "scores");
    blk.threads([&](int tid) {
      const std::size_t i = static_cast<std::size_t>(blk.block_id()) * kBlock +
                            static_cast<std::size_t>(tid);
      if (i >= n) return;
      const std::int32_t leaf = leaf_of_row[i];
      GBMO_DCHECK(leaf >= 0);
      const auto values = tree.leaf_values(tree.node(static_cast<std::size_t>(leaf)));
      if (apply) {
        const std::size_t off = i * static_cast<std::size_t>(d);
        for (int k = 0; k < d; ++k) {
          scores_v.add(off + static_cast<std::size_t>(k),
                       values[static_cast<std::size_t>(k)]);
        }
      }
      auto& s = blk.stats();
      s.gmem_coalesced_bytes += sizeof(std::int32_t) +
                                static_cast<std::uint64_t>(d) * 3 * sizeof(float);
      s.gmem_random_accesses += 1;  // leaf-vector gather
      s.flops += static_cast<std::uint64_t>(d);
    });
  });
}

namespace {

// Traverses one tree for one instance, charging one random access per level;
// returns the reached leaf's d-wide value vector. NaN feature values follow
// the node's default_left flag, matching the bin-0 routing of the quantized
// training partition.
inline std::span<const float> traverse(const Tree& tree,
                                       std::span<const float> row,
                                       sim::KernelStats& s) {
  std::int32_t id = 0;
  int levels = 0;
  while (!tree.node(static_cast<std::size_t>(id)).is_leaf()) {
    const auto& nd = tree.node(static_cast<std::size_t>(id));
    const float v = row[static_cast<std::size_t>(nd.feature)];
    const bool go_left = std::isnan(v) ? nd.default_left : v <= nd.threshold;
    id = go_left ? nd.left : nd.right;
    ++levels;
  }
  const auto values = tree.leaf_values(tree.node(static_cast<std::size_t>(id)));
  s.gmem_random_accesses += static_cast<std::uint64_t>(levels) * 2 + 1;
  s.gmem_coalesced_bytes += values.size() * 2 * sizeof(float);
  s.flops += values.size();
  return values;
}

}  // namespace

void predict_scores_device(sim::Device& dev, std::span<const Tree> trees,
                           const data::DenseMatrix& x, std::span<float> scores) {
  // Zero-tree models (early stop at round 0, staged prefix 0) predict the
  // additive identity, not an abort.
  if (trees.empty()) {
    std::fill(scores.begin(), scores.end(), 0.0f);
    return;
  }
  const int d = trees.front().n_outputs();
  const std::size_t n = x.n_rows();
  GBMO_CHECK(scores.size() == n * static_cast<std::size_t>(d));
  std::fill(scores.begin(), scores.end(), 0.0f);

  constexpr int kBlock = 256;
  const int chunks = std::max(1, sim::blocks_for(n, kBlock));

  // One launch per tree, one thread per instance. Score writes are
  // block-partitioned (disjoint rows), so they may bypass commit — the
  // checked view verifies exactly that.
  for (const auto& tree : trees) {
    sim::launch(dev, "predict_trees", chunks, kBlock, [&](sim::BlockCtx& blk) {
      auto scores_v = blk.global_view(scores, "scores");
      blk.threads([&](int tid) {
        const std::size_t i = static_cast<std::size_t>(blk.block_id()) * kBlock +
                              static_cast<std::size_t>(tid);
        if (i >= n) return;
        const auto values = traverse(tree, x.row(i), blk.stats());
        const std::size_t off = i * static_cast<std::size_t>(d);
        for (std::size_t k = 0; k < values.size(); ++k) {
          scores_v.add(off + k, values[k]);
        }
      });
    });
  }
}

std::vector<float> predict_scores(std::span<const Tree> trees,
                                  const data::DenseMatrix& x, int n_outputs) {
  std::vector<float> scores(x.n_rows() * static_cast<std::size_t>(n_outputs), 0.0f);
  for (const auto& tree : trees) {
    GBMO_CHECK(tree.n_outputs() == n_outputs);
    for (std::size_t i = 0; i < x.n_rows(); ++i) {
      const auto leaf = tree.find_leaf(x.row(i));
      const auto values = tree.leaf_values(tree.node(static_cast<std::size_t>(leaf)));
      float* dst = scores.data() + i * static_cast<std::size_t>(n_outputs);
      for (int k = 0; k < n_outputs; ++k) dst[k] += values[static_cast<std::size_t>(k)];
    }
  }
  return scores;
}

}  // namespace gbmo::core
