// Global-memory histogram builder (§3.3.2).
//
// Each simulated thread processes one (instance, feature) element: it fetches
// the bin id, then atomically accumulates the instance's d-dimensional
// gradient pair into the global histogram. Simple and scalable for moderate
// workloads, but same-bin collisions serialize the full d-wide update, which
// is what the shared-memory strategy exists to absorb.
//
// Functionally, the atomicAdd target is cross-block shared state, so each
// block accumulates into a private dense tile and flushes it under
// blk.commit() — the deterministic-accumulation rule that keeps results
// bit-identical for any --sim-threads value (see sim/launch.h). The charged
// counters still model the direct-atomic kernel, unchanged.
#include "core/hist_common.h"
#include "core/histogram.h"
#include "sim/launch.h"

namespace gbmo::core {

namespace {

class GlobalBuilder final : public HistogramBuilder {
 public:
  const char* name() const override { return "gmem"; }

  void build(sim::Device& dev, const HistBuildInput& in, NodeHistogram& out) override {
    const auto& layout = *in.layout;
    const int d = layout.n_outputs();
    const std::size_t n_rows = in.node_rows.size();
    if (in.packed) {
      GBMO_CHECK(in.bins->packed());
    }

    constexpr int kBlock = 256;
    const int chunks = std::max(1, sim::blocks_for(n_rows, kBlock));
    const int grid = static_cast<int>(in.features.size()) * chunks;

    sim::with_retry(dev, [&] {
    detail::restage_feature_slots(in, out);
    sim::launch(dev, "hist_gmem", grid, kBlock, [&](sim::BlockCtx& blk) {
      const std::size_t fi = static_cast<std::size_t>(blk.block_id()) /
                             static_cast<std::size_t>(chunks);
      const std::size_t chunk = static_cast<std::size_t>(blk.block_id()) %
                                static_cast<std::size_t>(chunks);
      const std::uint32_t f = in.features[fi];
      const std::size_t row_lo = chunk * kBlock;
      const std::size_t row_hi = std::min(n_rows, row_lo + kBlock);
      if (row_lo >= row_hi) return;

      // Block-private tile for this feature's slice (per-thread scratch,
      // zero-filled here); flushed in block-id order below so the
      // accumulation order is worker-count-independent.
      const int n_bins = layout.n_bins(f);
      auto& scratch = detail::block_scratch();
      scratch.tile.assign(static_cast<std::size_t>(n_bins) * static_cast<std::size_t>(d),
                          sim::GradPair{});
      scratch.tile_counts.assign(static_cast<std::size_t>(n_bins), 0);

      // Every non-zero-bin row, in row order.
      detail::BuildTally tally;
      tally.elements = row_hi - row_lo;
      tally.nonzero = detail::compact_rows(in, f, row_lo, row_hi, 0, n_bins, scratch);
      sim::ConflictTracker tracker;
      const std::size_t slot0 = layout.slot(f, 0, 0);
      for (std::size_t i = 0; i < tally.nonzero; ++i) {
        const std::size_t row = scratch.rows[i];
        const std::size_t lbase =
            static_cast<std::size_t>(scratch.bins[i]) * static_cast<std::size_t>(d);
        tally.conflict_hits += tracker.note(static_cast<std::uintptr_t>(slot0 + lbase));
        const float* gi = in.g.data() + row * static_cast<std::size_t>(d);
        const float* hi = in.h.data() + row * static_cast<std::size_t>(d);
        sim::GradPair* slot = scratch.tile.data() + lbase;
        for (int k = 0; k < d; ++k) {
          slot[k].g += gi[k];
          slot[k].h += hi[k];
        }
        ++scratch.tile_counts[scratch.bins[i]];
      }

      // Checked views over the cross-block histogram (race/memory checker;
      // non-counting — the bulk tallies below stay the profile of record).
      auto sums_v =
          blk.global_view(std::span<sim::GradPair>(out.sums), "hist_sums");
      auto counts_v =
          blk.global_view(std::span<std::uint32_t>(out.counts), "hist_counts");

      blk.commit([&] {
        for (int b = 0; b < n_bins; ++b) {
          const std::uint32_t bin_count = scratch.tile_counts[static_cast<std::size_t>(b)];
          if (bin_count == 0) continue;
          const sim::GradPair* local = scratch.tile.data() +
                                       static_cast<std::size_t>(b) * static_cast<std::size_t>(d);
          sums_v.atomic_add_n(layout.slot(f, b, 0), static_cast<std::size_t>(d),
                              [local](std::size_t k) { return local[k]; });
          counts_v.atomic_add(layout.bin_index(f, b), bin_count);
        }
      });

      auto& s = blk.stats();
      tally.fold_common(s, d, in.packed, in.csc_indirection);
      // Histogram read-modify-write traffic hits global memory; the d-wide
      // vector update issues one atomicAdd per 32-bit word (2d per element).
      s.gmem_coalesced_bytes +=
          tally.nonzero * static_cast<std::uint64_t>(d) * 2 * sizeof(sim::GradPair);
      s.atomic_global_ops += tally.nonzero * static_cast<std::uint64_t>(d) * 2;
      // Collisions replay per word; banks pipeline across the d-wide update.
      s.atomic_global_conflicts += tally.conflict_hits;
      s.flops += tally.nonzero * static_cast<std::uint64_t>(d) * 2;
    });
    });

    reconstruct_zero_bins(in, out);
  }
};

}  // namespace

std::unique_ptr<HistogramBuilder> make_global_builder() {
  return std::make_unique<GlobalBuilder>();
}

}  // namespace gbmo::core
