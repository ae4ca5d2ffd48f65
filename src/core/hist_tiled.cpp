// The atomic histogram strategies, global memory (§3.3.2) and shared memory
// (§3.3.3), as one tiled kernel.
//
// gmem: each simulated thread takes one (instance, feature) element, fetches
// its bin and atomically adds the instance's d-wide gradient pair into the
// global histogram. Simple and scalable for moderate workloads, but same-bin
// collisions serialize the whole d-wide update.
//
// smem: a feature's histogram slice (n_bins * d gradient pairs) rarely fits
// the 48 KB shared-memory budget for multi-output training, so it is tiled
// into bin ranges that do fit, computed from the device's budget. Each block
// zero-initializes its shared tile, accumulates the elements whose bin falls
// inside it with shared-memory atomics (cheap, and collisions stay local),
// synchronizes, and flushes the tile into the global histogram.
//
// On the host both run the same block: compact_rows keeps the rows whose bin
// is in the tile, each kept row is added into a block-private tile
// (per-thread scratch under the tile rule, TileLease), and the touched bins
// are flushed under blk.commit(), in block-id order, so the accumulation
// order is worker-count-independent (sim/launch.h). The strategies differ
// only in data:
//   - tile width: the feature's whole bin range for gmem, whatever fits the
//     shared-memory budget for smem;
//   - rows per block: 256 vs 1024;
//   - the address the conflict tracker sees: the histogram slot gmem's
//     atomics hit vs the tile word smem's hit;
//   - smem's one barrier between accumulation and flush;
//   - the counters each one charges, which model the per-element kernel
//     whatever the host loop looks like.
#include <exception>
#include <vector>

#include "core/hist_common.h"
#include "sim/launch.h"

namespace gbmo::core::detail {

namespace {

// Per-block tally accumulated in registers and folded into KernelStats once,
// keeping the functional inner loop tight.
struct BuildTally {
  std::uint64_t elements = 0;       // (row, feature) pairs processed
  std::uint64_t nonzero = 0;        // elements that accumulated
  std::uint64_t conflict_hits = 0;  // same-bin collisions (unscaled)

  void fold_common(sim::KernelStats& s, std::uint64_t d, bool packed,
                   bool csc_indirection) const {
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
    s.gmem_coalesced_bytes += nonzero * d * 2 * sizeof(float);
  }
};

// One block's zeroed tile of `n_bins` bins, d outputs wide: exactly the
// first n_bins * d slots of the thread's tile and n_bins of its counts.
// The tile rule: between blocks, every slot of BlockScratch::tile and
// tile_counts is zero, so the lease only grows them (new slots start zero).
// A block may write only bins whose count it raises; when the lease ends,
// after the flush, it re-zeroes just those bins. If the block is unwinding
// instead, a bin may hold sums without a count yet, so the lease re-zeroes
// the whole tile.
class TileLease {
 public:
  TileLease(BlockScratch& scratch, std::size_t n_bins, std::size_t d)
      : d_(d), exceptions_(std::uncaught_exceptions()) {
    if (scratch.tile.size() < n_bins * d) scratch.tile.resize(n_bins * d);
    if (scratch.tile_counts.size() < n_bins) scratch.tile_counts.resize(n_bins);
    sums = {scratch.tile.data(), n_bins * d};
    counts = {scratch.tile_counts.data(), n_bins};
  }
  TileLease(const TileLease&) = delete;
  TileLease& operator=(const TileLease&) = delete;
  ~TileLease() {
    if (std::uncaught_exceptions() > exceptions_) {
      std::fill(sums.begin(), sums.end(), sim::GradPair{});
      std::fill(counts.begin(), counts.end(), 0u);
      return;
    }
    for (std::size_t t = 0; t < counts.size(); ++t) {
      if (counts[t] == 0) continue;
      std::fill_n(sums.begin() + static_cast<std::ptrdiff_t>(t * d_), d_,
                  sim::GradPair{});
      counts[t] = 0;
    }
  }

  std::span<sim::GradPair> sums;
  std::span<std::uint32_t> counts;

 private:
  std::size_t d_;
  int exceptions_;
};

}  // namespace

void build_tiled(sim::Device& dev, HistMethod method, const HistBuildInput& in,
                 NodeHistogram& out) {
  const bool smem = method == HistMethod::kShared;
  const auto& layout = *in.layout;
  const std::size_t d = static_cast<std::size_t>(layout.n_outputs());
  const std::size_t n_rows = in.node_rows.size();

  // Tile width in bins. gmem: 256, every bin a feature can have, so one
  // pass. smem: as many bins (x d outputs x GradPair) as fit in shared
  // memory; every output of a bin lives in the same tile so the flush is a
  // contiguous range.
  int tile_width = 256;
  if (smem) {
    const std::size_t tile_slots =
        dev.spec().shared_mem_per_block / sizeof(sim::GradPair);
    GBMO_CHECK(d <= tile_slots)
        << "output dimension exceeds a full shared-memory tile";
    tile_width = static_cast<int>(tile_slots / d);
  }
  const std::size_t rows_per_block = smem ? 1024 : 256;
  const int row_chunks =
      std::max(1, sim::blocks_for(n_rows, static_cast<int>(rows_per_block)));

  // Grid: (feature, bin pass, row chunk), flattened in that order.
  struct BlockJob {
    std::uint32_t f;
    int bin_lo, bin_hi;
    std::size_t row_lo, row_hi;
  };
  std::vector<BlockJob> jobs;
  for (const std::uint32_t f : in.features) {
    const int n_bins = layout.n_bins(f);
    for (int lo = 0; lo < n_bins; lo += tile_width) {
      for (int rc = 0; rc < row_chunks; ++rc) {
        const std::size_t row_lo = static_cast<std::size_t>(rc) * rows_per_block;
        jobs.push_back({f, lo, std::min(n_bins, lo + tile_width), row_lo,
                        std::min(n_rows, row_lo + rows_per_block)});
      }
    }
  }

  sim::launch(dev, smem ? "hist_smem" : "hist_gmem",
              static_cast<int>(jobs.size()), 256, [&](sim::BlockCtx& blk) {
    const BlockJob& job = jobs[static_cast<std::size_t>(blk.block_id())];
    if (job.row_lo >= job.row_hi) return;
    const std::size_t tile_bins = static_cast<std::size_t>(job.bin_hi - job.bin_lo);
    auto& scratch = block_scratch();
    TileLease tile(scratch, tile_bins, d);

    // Checked views (race/memory checker; non-counting — the tallies below
    // stay the profile of record). The tile starts zeroed; the global
    // histogram accumulates across blocks under commit.
    auto tile_v = blk.shared_view(tile.sums, "hist_tile", sim::SharedInit::kZeroed);
    auto tile_counts_v = blk.shared_view(tile.counts, "hist_tile_counts",
                                         sim::SharedInit::kZeroed);
    auto sums_v = blk.global_view(std::span<sim::GradPair>(out.sums), "hist_sums");
    auto counts_v =
        blk.global_view(std::span<std::uint32_t>(out.counts), "hist_counts");

    // Rows whose bin is in this tile (and not the zero bin), in row order.
    BuildTally tally;
    tally.elements = job.row_hi - job.row_lo;
    tally.nonzero = compact_rows(in, job.f, job.row_lo, job.row_hi, job.bin_lo,
                                 static_cast<int>(tile_bins), scratch);
    sim::ConflictTracker tracker;
    const std::size_t tracked0 = smem ? 0 : layout.slot(job.f, 0, 0);
    for (std::size_t i = 0; i < tally.nonzero; ++i) {
      const std::size_t row = scratch.rows[i];
      const std::size_t t = static_cast<std::size_t>(scratch.bins[i] - job.bin_lo);
      tally.conflict_hits += tracker.note(static_cast<std::uintptr_t>(tracked0 + t * d));
      const float* gi = in.g.data() + row * d;
      const float* hi = in.h.data() + row * d;
      tile_v.atomic_add_n(t * d, d, [gi, hi](std::size_t k) {
        return sim::GradPair{gi[k], hi[k]};
      });
      tile_counts_v.atomic_add(t, 1u);
    }
    if (smem) blk.sync();  // all accumulation visible before the flush phase

    // Flush: one d-wide global add per touched tile bin. An armed checker
    // sees every tile read; otherwise the reads go straight to the tile.
    // That is decided once per flush, as atomic_add_n decides once per add.
    std::uint64_t flushed = 0;  // GradPair slots added to the histogram
    const auto flush = [&](auto sum_at, auto count_at) {
      for (std::size_t t = 0; t < tile_bins; ++t) {
        const std::uint32_t bin_count = count_at(t);
        if (bin_count == 0) continue;
        const int b = job.bin_lo + static_cast<int>(t);
        sums_v.atomic_add_n(layout.slot(job.f, b, 0), d,
                            [&](std::size_t k) { return sum_at(t * d + k); });
        counts_v.atomic_add(layout.bin_index(job.f, b), bin_count);
        flushed += d;
      }
    };
    blk.commit([&] {
      if (blk.checked()) {
        flush([&](std::size_t i) { return tile_v.load(i); },
              [&](std::size_t t) { return tile_counts_v.load(t); });
      } else {
        flush([&](std::size_t i) { return tile.sums[i]; },
              [&](std::size_t t) { return tile.counts[t]; });
      }
    });

    auto& s = blk.stats();
    tally.fold_common(s, d, in.packed, in.csc_indirection);
    // The d-wide update: one atomic per 32-bit word (2d per element).
    const std::uint64_t words = tally.nonzero * d * 2;
    s.flops += words;
    if (smem) {
      // Tile init + accumulation + flush-read all hit shared memory.
      s.smem_bytes += (tile_bins * d * 2 + tally.nonzero * d * 2) *
                      sizeof(sim::GradPair);
      s.atomic_shared_ops += words;
      s.atomic_shared_conflicts += tally.conflict_hits;
    } else {
      // Collisions replay per word; banks pipeline across the update.
      s.atomic_global_conflicts += tally.conflict_hits;
    }
    // Global atomics and read-modify-write traffic: gmem's every update,
    // smem's flush only.
    const std::uint64_t global_pairs = smem ? flushed : tally.nonzero * d;
    s.atomic_global_ops += global_pairs * 2;
    s.gmem_coalesced_bytes += global_pairs * 2 * sizeof(sim::GradPair);
  });
}

}  // namespace gbmo::core::detail
