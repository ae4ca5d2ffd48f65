// Shared-memory histogram builder (§3.3.3).
//
// The per-feature histogram slice (n_bins * d gradient pairs) rarely fits the
// 48 KB shared-memory budget for multi-output training, so the slice is tiled
// into bin-range chunks that do fit. Each block:
//   1. zero-initializes its shared tile,
//   2. streams its row chunk, accumulating elements whose bin falls inside
//      the tile (shared-memory atomics — cheap, and collisions stay local),
//   3. synchronizes and flushes the tile into the global histogram.
// The tiling parameters — chunk size and bin offset — are computed per block
// from the device's shared-memory budget, exactly as the paper describes.
//
// On the host, step 1 is free (the tile rule, detail::TileLease: the tile is
// already zero and the block re-zeroes only its touched bins afterwards),
// step 2 is detail::compact_rows with the tile's bin range followed by one
// d-wide atomic_add_n per kept row, and step 3 is one atomic_add_n per
// touched bin; the charges below are what the per-element kernel does,
// whatever the host loop looks like.
#include <vector>

#include "core/hist_common.h"
#include "core/histogram.h"
#include "sim/launch.h"

namespace gbmo::core {

namespace {

class SharedBuilder final : public HistogramBuilder {
 public:
  const char* name() const override { return "smem"; }

  void build(sim::Device& dev, const HistBuildInput& in, NodeHistogram& out) override {
    const auto& layout = *in.layout;
    const int d = layout.n_outputs();
    const std::size_t n_rows = in.node_rows.size();
    if (in.packed) {
      GBMO_CHECK(in.bins->packed());
    }

    // Tile geometry: how many bins (x d outputs x GradPair) fit in shared
    // memory. Every output of a bin lives in the same tile so the flush is a
    // contiguous range.
    const std::size_t tile_slots = dev.spec().shared_mem_per_block / sizeof(sim::GradPair);
    const int chunk_bins = std::max<int>(
        1, static_cast<int>(tile_slots / static_cast<std::size_t>(d)));
    GBMO_CHECK(static_cast<std::size_t>(d) <= tile_slots)
        << "output dimension exceeds a full shared-memory tile";

    constexpr int kRowsPerBlock = 1024;
    const int row_chunks = std::max(1, sim::blocks_for(n_rows, kRowsPerBlock));

    // Grid: (feature, bin-chunk, row-chunk). Flattened launch geometry.
    std::vector<std::uint32_t> passes_per_feature(in.features.size());
    int grid = 0;
    for (std::size_t fi = 0; fi < in.features.size(); ++fi) {
      const int n_bins = layout.n_bins(in.features[fi]);
      passes_per_feature[fi] =
          static_cast<std::uint32_t>((n_bins + chunk_bins - 1) / chunk_bins);
      grid += static_cast<int>(passes_per_feature[fi]) * row_chunks;
    }
    if (grid == 0) return;

    // Block-id -> (feature, pass) decode table.
    struct BlockJob {
      std::uint32_t feature_idx;
      std::uint32_t pass;
      std::uint32_t row_chunk;
    };
    std::vector<BlockJob> jobs;
    jobs.reserve(static_cast<std::size_t>(grid));
    for (std::size_t fi = 0; fi < in.features.size(); ++fi) {
      for (std::uint32_t p = 0; p < passes_per_feature[fi]; ++p) {
        for (int rc = 0; rc < row_chunks; ++rc) {
          jobs.push_back({static_cast<std::uint32_t>(fi), p,
                          static_cast<std::uint32_t>(rc)});
        }
      }
    }

    detail::restage_feature_slots(in, out);
    sim::launch(dev, "hist_smem", grid, 256, [&](sim::BlockCtx& blk) {
      const BlockJob job = jobs[static_cast<std::size_t>(blk.block_id())];
      const std::uint32_t f = in.features[job.feature_idx];
      const int n_bins = layout.n_bins(f);
      const int bin_lo = static_cast<int>(job.pass) * chunk_bins;
      const int bin_hi = std::min(n_bins, bin_lo + chunk_bins);
      const std::size_t row_lo = static_cast<std::size_t>(job.row_chunk) * kRowsPerBlock;
      const std::size_t row_hi = std::min(n_rows, row_lo + kRowsPerBlock);
      if (row_lo >= row_hi) return;

      // Block-private shared-memory tile: as on hardware, blocks share
      // nothing but global memory. The host storage is per-thread scratch
      // under the tile rule: zero on entry, re-zeroed where touched on exit.
      auto& scratch = detail::block_scratch();
      const std::size_t tile_bins = static_cast<std::size_t>(bin_hi - bin_lo);
      const std::size_t tile_size = tile_bins * static_cast<std::size_t>(d);
      detail::TileLease tile(scratch, tile_bins, static_cast<std::size_t>(d));

      // Checked views (race/memory checker; non-counting — the bulk tallies
      // below stay the profile of record). The tiles start zeroed, the
      // global histogram accumulates across blocks under commit.
      auto tile_v = blk.shared_view(tile.sums, "hist_tile", sim::SharedInit::kZeroed);
      auto tile_counts_v = blk.shared_view(tile.counts, "hist_tile_counts",
                                           sim::SharedInit::kZeroed);
      auto sums_v =
          blk.global_view(std::span<sim::GradPair>(out.sums), "hist_sums");
      auto counts_v =
          blk.global_view(std::span<std::uint32_t>(out.counts), "hist_counts");

      // Rows whose bin is in this tile (and not the zero bin), in row order.
      detail::BuildTally tally;
      tally.elements = row_hi - row_lo;
      tally.nonzero =
          detail::compact_rows(in, f, row_lo, row_hi, bin_lo, bin_hi - bin_lo, scratch);
      sim::ConflictTracker tracker;
      for (std::size_t i = 0; i < tally.nonzero; ++i) {
        const std::size_t row = scratch.rows[i];
        const std::size_t t = static_cast<std::size_t>(scratch.bins[i] - bin_lo);
        const std::size_t base = t * static_cast<std::size_t>(d);
        tally.conflict_hits += tracker.note(static_cast<std::uintptr_t>(base));
        const float* gi = in.g.data() + row * static_cast<std::size_t>(d);
        const float* hi = in.h.data() + row * static_cast<std::size_t>(d);
        tile_v.atomic_add_n(base, static_cast<std::size_t>(d), [gi, hi](std::size_t k) {
          return sim::GradPair{gi[k], hi[k]};
        });
        tile_counts_v.atomic_add(t, 1u);
      }

      blk.sync();  // all accumulation visible before the flush phase

      // Flush: one global atomic add per touched tile slot. The flush is the
      // block's cross-block side effect, so it runs under blk.commit() —
      // block-id order, worker-count-independent.
      std::uint64_t flushed = 0;
      blk.commit([&] {
        for (std::size_t t = 0; t < tile_bins; ++t) {
          const std::uint32_t bin_count = tile_counts_v.load(t);
          if (bin_count == 0) continue;
          const int b = bin_lo + static_cast<int>(t);
          const std::size_t tbase = t * static_cast<std::size_t>(d);
          sums_v.atomic_add_n(layout.slot(f, b, 0), static_cast<std::size_t>(d),
                              [&](std::size_t k) { return tile_v.load(tbase + k); });
          counts_v.atomic_add(layout.bin_index(f, b), bin_count);
          flushed += static_cast<std::uint64_t>(d);
        }
      });

      auto& s = blk.stats();
      tally.fold_common(s, d, in.packed, in.csc_indirection);
      // Tile init + accumulation + flush-read all hit shared memory.
      s.smem_bytes +=
          (tile_size * 2 + tally.nonzero * static_cast<std::uint64_t>(d) * 2) *
          sizeof(sim::GradPair);
      // One shared-memory atomic per 32-bit word of the d-wide update.
      s.atomic_shared_ops += tally.nonzero * static_cast<std::uint64_t>(d) * 2;
      s.atomic_shared_conflicts += tally.conflict_hits;
      // Flush: one global atomic per word + write traffic.
      s.atomic_global_ops += flushed * 2;
      s.gmem_coalesced_bytes += flushed * 2 * sizeof(sim::GradPair);
      s.flops += tally.nonzero * static_cast<std::uint64_t>(d) * 2;
    });

    reconstruct_zero_bins(in, out);
  }
};

}  // namespace

std::unique_ptr<HistogramBuilder> make_shared_builder() {
  return std::make_unique<SharedBuilder>();
}

}  // namespace gbmo::core
