// Internal helpers shared by the histogram builder implementations.
//
// Memory-accounting conventions (see DESIGN.md and sim/cost_model.h):
//  - node row-id reads are coalesced;
//  - bin-id fetches are gathers: one 32-byte transaction per element without
//    bin packing, one per 4 elements with packing (§3.4.1), because stable
//    partitioning keeps a node's rows in ascending, mostly-contiguous order;
//  - a nonzero element reads its d-wide g/h rows as one burst (1 random
//    transaction + 2*d*4 coalesced bytes);
//  - a histogram update is a d-wide contiguous vector add. One atomic
//    operation is charged per element; a same-bin collision serializes the
//    whole d-wide update, so collision counts are scaled by d.
//
// Host loop: every builder's block first runs compact_rows, one
// branch-free pass that fetches each row's bin and keeps the (row, bin)
// pairs that accumulate; it then walks only the kept pairs, in row order, so
// the conflict tracker sees the same slot sequence as a per-element loop.
// The kept list, tiles and tile counts live in per-thread BlockScratch that
// every block reuses and re-zeroes; none of it is simulated memory.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/histogram.h"
#include "data/bin_pack.h"

namespace gbmo::core::detail {

// Per-block tally accumulated in registers and folded into KernelStats once,
// keeping the functional inner loop tight.
struct BuildTally {
  std::uint64_t elements = 0;       // (row, feature) pairs processed
  std::uint64_t nonzero = 0;        // elements that accumulated
  std::uint64_t conflict_hits = 0;  // same-bin collisions (unscaled)

  void fold_common(sim::KernelStats& s, int d, bool packed,
                   bool csc_indirection = false) const {
    // Row-id reads: coalesced u32 stream.
    s.gmem_coalesced_bytes += elements * sizeof(std::uint32_t);
    // Bin fetches.
    s.gmem_random_accesses += packed ? (elements + 3) / 4 : elements;
    if (packed) s.flops += elements;  // shift/mask unpack
    // CSC storage adds scattered row-index + value + node-position lookups
    // per stored nonzero (§3.2's "higher overhead when locating attribute
    // values") — the reason mo-sp trails mo-fu on dense-leaning data.
    if (csc_indirection) s.gmem_random_accesses += nonzero * 6;
    // Gradient row bursts.
    s.gmem_random_accesses += nonzero;
    s.gmem_coalesced_bytes += nonzero * static_cast<std::uint64_t>(d) * 2 * sizeof(float);
  }
};

// Restage helper: builders accumulate into `out`, so zeroing this call's
// feature slots before every launch attempt is what makes a build into a
// reused histogram — or a retried build (sim/faults.h) — bit-identical to a
// clean one. Touches only `in.features` — other devices' feature slices of
// a shared histogram stay intact.
inline void restage_feature_slots(const HistBuildInput& in, NodeHistogram& out) {
  const auto& layout = *in.layout;
  const std::size_t d = static_cast<std::size_t>(layout.n_outputs());
  for (const std::uint32_t f : in.features) {
    const std::size_t lo = layout.bin_index(f, 0);
    const std::size_t n_bins = static_cast<std::size_t>(layout.n_bins(f));
    std::fill_n(out.sums.begin() + static_cast<std::ptrdiff_t>(lo * d), n_bins * d,
                sim::GradPair{});
    std::fill_n(out.counts.begin() + static_cast<std::ptrdiff_t>(lo), n_bins, 0u);
  }
}

// Host storage a block works in: what a real block keeps in registers and
// shared memory. One instance per host thread, reused by every block that
// thread runs; a block re-zeroes what it uses before it uses it. Every
// routine sizes each member it writes, and no member serves two purposes.
struct BlockScratch {
  std::vector<sim::GradPair> tile;         // smem/gmem: d-wide sums per bin
  std::vector<std::uint32_t> tile_counts;  // smem/gmem: rows per bin
  std::vector<std::uint32_t> rows;         // compact_rows: kept row ids
  std::vector<std::uint8_t> bins;          // compact_rows: their bins
  std::vector<std::uint32_t> run_keys;     // sort-reduce: one key per run
  std::vector<std::uint32_t> run_counts;   // sort-reduce: rows per run
  std::vector<sim::GradPair> run_sums;     // sort-reduce: d-wide sums per run
};

inline BlockScratch& block_scratch() {
  thread_local BlockScratch scratch;
  return scratch;
}

// Fetches feature f's bin for node rows [row_lo, row_hi) and keeps, in row
// order, the rows whose bin lies in [bin_lo, bin_lo + n_tile_bins) and is
// not the zero bin of a sparsity-aware build. The kept pairs land in
// scratch.rows / scratch.bins; returns how many. Every row is written and
// the write index advances by the keep test, so the loop has no
// data-dependent branch (the zero-bin test mispredicts on sparse data).
inline std::size_t compact_rows(const HistBuildInput& in, std::uint32_t f,
                                std::size_t row_lo, std::size_t row_hi,
                                int bin_lo, int n_tile_bins,
                                BlockScratch& scratch) {
  const std::size_t n = row_hi - row_lo;
  if (scratch.rows.size() < n) scratch.rows.resize(n);
  if (scratch.bins.size() < n) scratch.bins.resize(n);
  const std::uint32_t lo = static_cast<std::uint32_t>(bin_lo);
  const std::uint32_t width = static_cast<std::uint32_t>(n_tile_bins);
  // 256 matches no bin id: nothing is skipped when sparsity is off.
  const std::uint32_t skip = in.sparsity_aware ? in.layout->zero_bin(f) : 256u;
  const std::uint32_t* __restrict node_rows = in.node_rows.data() + row_lo;
  std::uint32_t* __restrict rows = scratch.rows.data();
  std::uint8_t* __restrict bins = scratch.bins.data();
  std::size_t kept = 0;
  const auto compact = [&](auto bin_of) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t row = node_rows[i];
      const std::uint32_t bin = bin_of(row);
      rows[kept] = row;
      bins[kept] = static_cast<std::uint8_t>(bin);
      kept += static_cast<std::size_t>((bin - lo < width) & (bin != skip));
    }
  };
  if (in.packed) {
    const std::uint32_t* words = in.bins->packed_col(f).data();
    compact([words](std::uint32_t row) -> std::uint32_t {
      return data::unpack_bin(words[row / 4], row & 3u);
    });
  } else {
    const std::uint8_t* col = in.bins->col(f).data();
    compact([col](std::uint32_t row) -> std::uint32_t { return col[row]; });
  }
  return kept;
}

}  // namespace gbmo::core::detail
