// Sort-and-reduce histogram builder (§3.3.4).
//
// Avoids atomics entirely: every (instance, feature) element emits a key
// combining the feature's bin offset with the element's bin id; the key/row
// pairs are sorted, equal keys are reduced, and the reduced sums are
// scattered into the final histogram. The sort makes this the most expensive
// strategy (Figure 6a), but it is contention-free, which pays off only where
// atomic collisions would be catastrophic.
#include <vector>

#include "core/hist_common.h"
#include "core/histogram.h"
#include "sim/launch.h"
#include "sim/primitives.h"

namespace gbmo::core {

namespace {

class SortReduceBuilder final : public HistogramBuilder {
 public:
  const char* name() const override { return "sort-reduce"; }

  void build(sim::Device& dev, const HistBuildInput& in, NodeHistogram& out) override {
    const auto& layout = *in.layout;
    const int d = layout.n_outputs();
    const std::size_t n_rows = in.node_rows.size();
    if (in.packed) {
      GBMO_CHECK(in.bins->packed());
    }

    // Phase 1: key construction kernel — one thread per (row, feature).
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> payload_rows;
    keys.reserve(n_rows * in.features.size());
    payload_rows.reserve(n_rows * in.features.size());

    constexpr int kBlock = 256;
    const int chunks = std::max(1, sim::blocks_for(n_rows, kBlock));
    const int grid = static_cast<int>(in.features.size()) * chunks;

    // Restage-on-retry: blocks append pairs under commit, so a faulted
    // attempt may leave a partial prefix — clear both arrays per attempt.
    sim::with_retry(dev, [&] {
    keys.clear();
    payload_rows.clear();
    sim::launch(dev, "hist_sort_keys", grid, kBlock, [&](sim::BlockCtx& blk) {
      const std::size_t fi = static_cast<std::size_t>(blk.block_id()) /
                             static_cast<std::size_t>(chunks);
      const std::size_t chunk = static_cast<std::size_t>(blk.block_id()) %
                                static_cast<std::size_t>(chunks);
      const std::uint32_t f = in.features[fi];
      const std::size_t row_lo = chunk * kBlock;
      const std::size_t row_hi = std::min(n_rows, row_lo + kBlock);

      // The block's pairs, appended to the shared arrays in block-id order
      // under blk.commit() — the append order (and therefore the stable
      // sort's output) is identical for any --sim-threads value.
      auto& scratch = detail::block_scratch();
      const std::size_t kept = detail::compact_rows(
          in, f, row_lo, row_hi, 0, layout.n_bins(f), scratch);
      const std::uint64_t key0 = layout.bin_index(f, 0);
      blk.commit([&] {
        for (std::size_t i = 0; i < kept; ++i) {
          keys.push_back(key0 + scratch.bins[i]);
          payload_rows.push_back(scratch.rows[i]);
        }
      });
      auto& s = blk.stats();
      // Key construction only reads row ids + bins and writes the pairs
      // (pair-write traffic is charged below, once the count is known).
      const std::uint64_t elements = row_hi - row_lo;
      s.gmem_coalesced_bytes += elements * sizeof(std::uint32_t);
      s.gmem_random_accesses += in.packed ? (elements + 3) / 4 : elements;
    });
    });

    const std::uint64_t n_pairs = keys.size();
    {
      sim::KernelTag tag(dev, "hist_sort_keys");
      sim::KernelStats s;
      s.blocks = std::max<std::uint64_t>(1, n_pairs / 256);
      s.gmem_coalesced_bytes =
          n_pairs * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
      dev.add_stats(s);
    }

    // Phase 2: sort_by_key groups equal (feature, bin) keys.
    sim::sort_pairs(dev, keys, payload_rows);

    // Phase 3: reduce. The payload is the row id, so the d-dimensional
    // gradient reduction is a gather over the sorted order — one pass that
    // accumulates run sums directly into the histogram (the real kernel uses
    // reduce_by_key per output; the data volume is identical).
    // Restage-on-retry: the reduce accumulates into this call's feature
    // slots of `out` (zero on entry), so re-zero them per attempt.
    sim::with_retry(dev, [&] {
    detail::restage_feature_slots(in, out);
    sim::launch(dev, "hist_sort_reduce", std::max(1, sim::blocks_for(n_pairs, kBlock)),
                kBlock, [&](sim::BlockCtx& blk) {
      const std::size_t lo = static_cast<std::size_t>(blk.block_id()) * kBlock;
      const std::size_t hi = std::min<std::size_t>(n_pairs, lo + kBlock);
      // The keys are sorted, so this block's share is a short list of runs.
      // Accumulate each run privately (per-thread scratch), then add the run
      // sums to the shared histogram under blk.commit() (runs can straddle
      // chunk boundaries, so the slot update is cross-block shared state).
      auto& scratch = detail::block_scratch();
      auto& run_keys = scratch.run_keys;
      auto& run_counts = scratch.run_counts;
      auto& run_sums = scratch.run_sums;  // d consecutive pairs per run
      run_keys.clear();
      run_counts.clear();
      run_sums.clear();
      std::uint64_t accum = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint32_t key = static_cast<std::uint32_t>(keys[i]);
        const std::size_t row = payload_rows[i];
        if (run_keys.empty() || run_keys.back() != key) {
          run_keys.push_back(key);
          run_counts.push_back(0);
          run_sums.resize(run_sums.size() + static_cast<std::size_t>(d));
        }
        sim::GradPair* slot =
            run_sums.data() + (run_keys.size() - 1) * static_cast<std::size_t>(d);
        const float* gi = in.g.data() + row * static_cast<std::size_t>(d);
        const float* hi_row = in.h.data() + row * static_cast<std::size_t>(d);
        for (int k = 0; k < d; ++k) {
          slot[k].g += gi[k];
          slot[k].h += hi_row[k];
        }
        ++run_counts.back();
        ++accum;
      }
      // Checked views over the cross-block histogram (race/memory checker;
      // non-counting — the bulk tallies below stay the profile of record).
      auto sums_v =
          blk.global_view(std::span<sim::GradPair>(out.sums), "hist_sums");
      auto counts_v =
          blk.global_view(std::span<std::uint32_t>(out.counts), "hist_counts");
      blk.commit([&] {
        for (std::size_t r = 0; r < run_keys.size(); ++r) {
          const sim::GradPair* src =
              run_sums.data() + r * static_cast<std::size_t>(d);
          sums_v.atomic_add_n(std::size_t{run_keys[r]} * static_cast<std::size_t>(d),
                              static_cast<std::size_t>(d),
                              [src](std::size_t k) { return src[k]; });
          counts_v.atomic_add(run_keys[r], run_counts[r]);
        }
      });
      auto& s = blk.stats();
      // reduce_by_key cannot carry d-wide values through its single-pass
      // fast path: one reduce pass per output dimension, each re-reading the
      // sorted keys and gathering that output's gradient column (scattered —
      // the sort shuffled the row order).
      s.gmem_coalesced_bytes +=
          accum * static_cast<std::uint64_t>(d) *
          (sizeof(std::uint64_t) + sizeof(std::uint32_t) + 2 * sizeof(float));
      s.gmem_random_accesses += accum * static_cast<std::uint64_t>(d);
      s.flops += accum * static_cast<std::uint64_t>(d) * 2;
    });
    });
    // One kernel launch per output dimension's reduce pass (the single
    // launch() above accounted for one of them).
    if (d > 1) {
      sim::KernelTag tag(dev, "hist_sort_reduce");
      dev.add_modeled_time((d - 1) * dev.spec().kernel_launch_s);
    }

    reconstruct_zero_bins(in, out);
  }
};

}  // namespace

std::unique_ptr<HistogramBuilder> make_sort_reduce_builder() {
  return std::make_unique<SortReduceBuilder>();
}

}  // namespace gbmo::core
