// Level-sweep CSC histogram construction (§3.2).
//
// The dense builders read every (row, feature) cell and skip zero bins; this
// path never touches them: the stored (row, bin) pairs of each column are
// streamed once per level — coalesced, since the pairs are contiguous — and
// scattered into per-node histograms via the row -> node-slot map. Work and
// traffic are proportional to nnz instead of n x m, which is the CSC
// representation's payoff on sparse data.
#include "common/error.h"
#include "core/hist_common.h"
#include "core/histogram.h"
#include "sim/launch.h"

namespace gbmo::core {

void build_level_histograms_csc(sim::Device& dev,
                                const data::BinnedCscMatrix& csc,
                                std::span<const std::int32_t> node_slot_of_row,
                                std::span<const LevelNodeInput> per_node,
                                std::span<const float> g, std::span<const float> h,
                                const HistogramLayout& layout,
                                std::span<const std::uint32_t> features) {
  const int d = layout.n_outputs();
  GBMO_CHECK(node_slot_of_row.size() == csc.n_rows());
  for (const auto& node : per_node) {
    GBMO_CHECK(node.hist != nullptr);
    GBMO_CHECK(node.totals.size() == static_cast<std::size_t>(d));
  }
  // The dense helpers below restage and rebuild zero bins by the layout's
  // zero bins, which must be the ones the CSC storage left out.
  for (std::uint32_t f : features) {
    GBMO_CHECK(csc.zero_bin(f) == layout.zero_bin(f));
  }
  HistBuildInput slots;
  slots.layout = &layout;
  slots.features = features;

  constexpr int kBlock = 256;
  // Grid: one block per (feature, entry chunk); flattened like the dense
  // builders' launch geometry.
  int grid = 0;
  for (std::uint32_t f : features) {
    grid += std::max<int>(1, sim::blocks_for(csc.col_rows(f).size(), kBlock));
  }
  if (grid == 0) grid = 1;

  // The sweep scatters into every node's histogram at this device's feature
  // slots, so zero exactly those slots first (the histograms may be reused
  // buffers) — other devices' feature slices stay intact.
  for (const auto& node : per_node) detail::restage_feature_slots(slots, *node.hist);
  sim::launch(dev, "hist_csc_sweep", grid, kBlock, [&](sim::BlockCtx& blk) {
    // The functional sweep runs once (block 0); the launch geometry above
    // carries the parallel shape for the cost model.
    if (blk.block_id() != 0) return;
    auto& s = blk.stats();
    std::uint64_t entries = 0;
    std::uint64_t scattered = 0;
    sim::ConflictTracker tracker;
    std::uint64_t conflicts = 0;

    // Checked per-node histogram views (race/memory checker; non-counting —
    // the bulk tallies below stay the profile of record). Only block 0 ever
    // writes, so the out-of-commit updates are block-partitioned and clean.
    std::vector<sim::Global<sim::GradPair>> sums_v;
    std::vector<sim::Global<std::uint32_t>> counts_v;
    sums_v.reserve(per_node.size());
    counts_v.reserve(per_node.size());
    for (const auto& node : per_node) {
      sums_v.push_back(blk.global_view(
          std::span<sim::GradPair>(node.hist->sums), "csc_hist_sums"));
      counts_v.push_back(blk.global_view(
          std::span<std::uint32_t>(node.hist->counts), "csc_hist_counts"));
    }

    for (std::uint32_t f : features) {
      const auto rows = csc.col_rows(f);
      const auto bins = csc.col_bins(f);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        ++entries;
        const std::int32_t slot = node_slot_of_row[rows[i]];
        if (slot < 0) continue;
        ++scattered;
        const std::size_t base = layout.slot(f, bins[i], 0);
        conflicts += tracker.note(
            (static_cast<std::uintptr_t>(slot) << 32) ^ base);
        const float* gi = g.data() + static_cast<std::size_t>(rows[i]) * d;
        const float* hi = h.data() + static_cast<std::size_t>(rows[i]) * d;
        auto& node_sums = sums_v[static_cast<std::size_t>(slot)];
        for (int k = 0; k < d; ++k) {
          node_sums.atomic_add(base + static_cast<std::size_t>(k),
                               sim::GradPair{gi[k], hi[k]});
        }
        counts_v[static_cast<std::size_t>(slot)].atomic_add(
            layout.bin_index(f, bins[i]), 1u);
      }
    }

    // Accounting: the (row, bin) pair stream is contiguous (coalesced);
    // the node-slot lookup and gradient-row fetch are gathers; histogram
    // updates are d-wide atomic vector adds like the dense gmem builder.
    s.gmem_coalesced_bytes += entries * (sizeof(std::uint32_t) + 1);
    s.gmem_random_accesses += entries;            // node-slot lookup
    s.gmem_random_accesses += scattered;          // gradient row burst
    s.gmem_coalesced_bytes +=
        scattered * static_cast<std::uint64_t>(d) * 2 * sizeof(float);
    s.gmem_coalesced_bytes +=
        scattered * static_cast<std::uint64_t>(d) * 2 * sizeof(sim::GradPair);
    s.atomic_global_ops += scattered * static_cast<std::uint64_t>(d) * 2;
    s.atomic_global_conflicts += conflicts;
    s.flops += scattered * static_cast<std::uint64_t>(d) * 2;
  });

  // Zero bins + zero-bin counts by subtraction, per node.
  for (const auto& node : per_node) {
    slots.node_totals = node.totals;
    slots.node_count = node.node_count;
    reconstruct_zero_bins(slots, *node.hist);
  }
}

}  // namespace gbmo::core
