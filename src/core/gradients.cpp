#include "core/gradients.h"

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "sim/launch.h"

namespace gbmo::core {

void compute_gradients(sim::Device& dev, const Loss& loss,
                       std::span<const float> scores, const data::Labels& y,
                       std::span<float> g, std::span<float> h) {
  const std::size_t n = y.size();
  const int d = y.n_outputs();
  GBMO_CHECK(scores.size() == n * static_cast<std::size_t>(d));
  GBMO_CHECK(g.size() == scores.size() && h.size() == scores.size());

  constexpr int kBlock = 256;

  // Ranking losses couple all rows of a query: one simulated thread owns one
  // query group and fully rewrites its rows' g/h. Groups are disjoint row
  // ranges, so there are no cross-thread writes (bitwise-deterministic at
  // any --sim-threads).
  if (loss.per_query()) {
    const auto spans = y.query_spans();
    const int grid =
        sim::blocks_for(std::max<std::size_t>(spans.size(), 1), kBlock);
    sim::launch(dev, "compute_gradients_rank", grid, kBlock,
                [&](sim::BlockCtx& blk) {
      blk.threads([&](int tid) {
        const std::size_t q = static_cast<std::size_t>(blk.block_id()) * kBlock +
                              static_cast<std::size_t>(tid);
        if (q >= spans.size()) return;
        const std::size_t b = spans[q].begin;
        const std::size_t e = spans[q].end;
        loss.query_gradients(scores, y, b, e, g, h);
        const std::uint64_t len = e - b;
        // Score reads + g/h writes per row; the pair sweep dominates the
        // flop count, the rank gather is the random traffic.
        blk.stats().gmem_coalesced_bytes += len * 4 * sizeof(float);
        blk.stats().gmem_random_accesses += len;
        blk.stats().flops += len * len * 8 + len * 32;
      });
    });
    return;
  }

  const int grid = sim::blocks_for(n, kBlock);
  const std::uint64_t loss_flops = loss.flops_per_instance(d);

  sim::launch(dev, "compute_gradients", grid, kBlock, [&](sim::BlockCtx& blk) {
    blk.threads([&](int tid) {
      const std::size_t i =
          static_cast<std::size_t>(blk.block_id()) * kBlock + static_cast<std::size_t>(tid);
      if (i >= n) return;
      const std::size_t off = i * static_cast<std::size_t>(d);
      loss.instance_gradients(scores.subspan(off, static_cast<std::size_t>(d)), y, i,
                              g.subspan(off, static_cast<std::size_t>(d)),
                              h.subspan(off, static_cast<std::size_t>(d)));
      // Coalesced: read d scores + label block, write d g's and d h's.
      blk.stats().gmem_coalesced_bytes += static_cast<std::uint64_t>(d) * 4 * sizeof(float);
      blk.stats().flops += loss_flops;
    });
  });
}

void reduce_gradients(sim::Device& dev, std::span<const float> g,
                      std::span<const float> h, std::span<const std::uint32_t> rows,
                      int n_outputs, std::span<sim::GradPair> totals) {
  GBMO_CHECK(totals.size() == static_cast<std::size_t>(n_outputs));

  constexpr int kBlock = 256;
  const int grid = sim::blocks_for(std::max<std::size_t>(rows.size(), 1), kBlock);

  for (auto& t : totals) t = sim::GradPair{};
  sim::launch(dev, "reduce_gradients", grid, kBlock, [&](sim::BlockCtx& blk) {
    // One block strides over its share of rows, accumulates a block-private
    // partial (the warp-level reduction on hardware), and flushes it into
    // the shared totals with atomics — here under blk.commit(), so the add
    // order is block-id-deterministic for any --sim-threads value.
    std::vector<sim::GradPair> partial(static_cast<std::size_t>(n_outputs));
    blk.threads([&](int tid) {
      const std::size_t r =
          static_cast<std::size_t>(blk.block_id()) * kBlock + static_cast<std::size_t>(tid);
      if (r >= rows.size()) return;
      const std::size_t off =
          static_cast<std::size_t>(rows[r]) * static_cast<std::size_t>(n_outputs);
      for (int k = 0; k < n_outputs; ++k) {
        partial[static_cast<std::size_t>(k)].g += g[off + static_cast<std::size_t>(k)];
        partial[static_cast<std::size_t>(k)].h += h[off + static_cast<std::size_t>(k)];
      }
      blk.stats().gmem_coalesced_bytes +=
          static_cast<std::uint64_t>(n_outputs) * 2 * sizeof(float);
      blk.stats().flops += static_cast<std::uint64_t>(n_outputs) * 2;
    });
    // Checked view over the cross-block totals (race/memory checker;
    // non-counting — the bulk stats below stay the profile of record).
    auto totals_v = blk.global_view(totals, "grad_totals");
    blk.commit([&] {
      for (int k = 0; k < n_outputs; ++k) {
        totals_v.atomic_add(static_cast<std::size_t>(k),
                            partial[static_cast<std::size_t>(k)]);
      }
    });
    // The per-block partial flush: d atomic adds per block.
    blk.stats().atomic_global_ops += static_cast<std::uint64_t>(n_outputs);
  });
}

}  // namespace gbmo::core
