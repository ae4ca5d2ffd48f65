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
#pragma once

#include <cstdint>
#include <span>

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
  const int d = layout.n_outputs();
  for (const std::uint32_t f : in.features) {
    const int n_bins = layout.n_bins(f);
    for (int b = 0; b < n_bins; ++b) {
      const std::size_t base = layout.slot(f, b, 0);
      for (int k = 0; k < d; ++k) out.sums[base + static_cast<std::size_t>(k)] = {};
      out.counts[layout.bin_index(f, b)] = 0;
    }
  }
}

// Fetches the bin id of (row, feature) honoring the packed flag.
inline std::uint8_t fetch_bin(const data::BinnedMatrix& bins, bool packed,
                              std::size_t row, std::size_t f) {
  if (packed) {
    const auto words = bins.packed_col(f);
    return data::unpack_bin(words[row / 4], static_cast<unsigned>(row & 3));
  }
  return bins.col(f)[row];
}

}  // namespace gbmo::core::detail
