// Kernel launch and block/warp/thread execution model.
//
// Kernels are written against the same decomposition as CUDA kernels:
//
//   sim::launch(dev, /*grid=*/n_blocks, /*block=*/256, [&](sim::BlockCtx& blk) {
//     blk.threads([&](int tid) { ... });     // phase 1 (all threads)
//     blk.sync();                            // __syncthreads()
//     blk.warps([&](sim::WarpCtx& w) { ... });  // warp-cooperative phase
//   });
//
// Within a block, phases execute sequentially on one host thread, which makes
// shared-memory phase semantics exact: everything before blk.sync() is
// visible after it.
//
// Blocks are independent (as on hardware). Block 0 always runs first, on the
// calling thread, and decides how the others run (see sim/scheduler.h):
//   - Ordered: block 0 called BlockCtx::commit. Cross-block side effects —
//     anything the real kernel would do with global-memory atomics — go
//     through commit, so the remaining blocks also run on the calling
//     thread, in block-id order, and every commit body lands in block-id
//     order.
//   - Commit-free: block 0 did not commit. Every block writes only
//     block-partitioned state, so the remaining blocks fan out over
//     sim::launch_workers pool workers (--sim-threads / GBMO_SIM_THREADS /
//     TrainConfig); worker w runs blocks 1 + w, 1 + w + W, ... in increasing
//     order. A commit from any of them fails a GBMO_CHECK.
// A kernel that commits anywhere must therefore commit in block 0: every
// kernel here commits either in every block that has work or in none, and
// block 0 has work whenever any block does. Results (including
// floating-point accumulation order) are bit-identical for every worker
// count.
//
// Every launch produces a KernelStats record that the cost model converts to
// modeled seconds, accumulated on the device under its current phase label.
// Fanned-out workers each get a private KernelStats, merged in fixed worker
// order after the launch; all counters are integers, so the merged totals
// equal the sequential path's exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "sim/accessors.h"
#include "sim/checker.h"
#include "sim/cost_model.h"
#include "sim/counters.h"
#include "sim/device.h"
#include "sim/faults.h"
#include "sim/scheduler.h"
#include "sim/warp.h"

namespace gbmo::sim {

class BlockCtx {
 public:
  // `may_commit` is false for every block after block 0 of a commit-free
  // launch.
  BlockCtx(int block_id, int block_dim, int grid_dim, int warp_size,
           KernelStats& stats, bool may_commit, BlockCheck* check)
      : block_id_(block_id),
        block_dim_(block_dim),
        grid_dim_(grid_dim),
        warp_size_(warp_size),
        stats_(stats),
        may_commit_(may_commit),
        check_(check) {}

  int block_id() const { return block_id_; }
  int block_dim() const { return block_dim_; }
  int grid_dim() const { return grid_dim_; }
  KernelStats& stats() { return stats_; }

  // Runs body(tid) for every thread in the block (one phase). When the
  // checker is armed, each tid is a lane for race attribution and
  // barrier-divergence counting.
  template <typename F>
  void threads(F&& body) {
    if (check_ != nullptr) check_->begin_phase("threads", block_dim_);
    for (int tid = 0; tid < block_dim_; ++tid) {
      if (check_ != nullptr) check_->set_lane(tid);
      body(tid);
    }
    if (check_ != nullptr) check_->end_phase();
  }

  // Runs body(warp) for every warp in the block. The warp context carries
  // lane-cooperative helpers (reductions, ballots) with their costs. The
  // checker attributes accesses at warp granularity here (lane = warp id):
  // intra-warp ordering is lockstep on hardware, cross-warp is not.
  template <typename F>
  void warps(F&& body) {
    const int n_warps = (block_dim_ + warp_size_ - 1) / warp_size_;
    if (check_ != nullptr) check_->begin_phase("warps", n_warps);
    for (int w = 0; w < n_warps; ++w) {
      const int lanes = std::min(warp_size_, block_dim_ - w * warp_size_);
      if (check_ != nullptr) check_->set_lane(w);
      WarpCtx ctx(w, lanes, warp_size_, stats_);
      body(ctx);
    }
    if (check_ != nullptr) check_->end_phase();
  }

  // Block-wide barrier. Phases already execute in order, so this only
  // records the synchronization cost — and, when the checker is armed,
  // bumps the shared-memory epoch and the calling lane's barrier count.
  void sync() {
    ++stats_.barriers;
    if (check_ != nullptr) check_->on_sync();
  }

  // Runs `body` as this block's cross-block side-effect phase. Anything a
  // real kernel would write through global-memory atomics (histogram
  // flushes, score accumulation, appends to shared buffers) must happen
  // here. A commit in block 0 makes the launch ordered: every block runs on
  // the calling thread in block-id order, so commit bodies execute in
  // block-id order for any worker count, which is what keeps floating-point
  // accumulation — and so every trained model — bit-identical across
  // --sim-threads settings. Runs inline (synchronously); block-private state
  // captured by reference stays valid. The checker treats global writes
  // outside this scope as racy unless block-partitioned.
  template <typename F>
  void commit(F&& body) {
    GBMO_CHECK(may_commit_) << "BlockCtx::commit in block " << block_id_
                            << " of a commit-free launch (block 0 did not "
                               "commit)";
    committed_ = true;
    if (check_ != nullptr) check_->begin_commit();
    body();
    if (check_ != nullptr) check_->end_commit();
  }
  bool committed() const { return committed_; }

  // --- checked views --------------------------------------------------------
  // Non-counting accessor views observed by the race/memory checker when it
  // is armed (see sim/accessors.h). With the checker off they are plain
  // passthroughs, so kernels can route functional accesses through them
  // unconditionally without perturbing the modeled stats.
  template <typename T>
  Global<T> global_view(std::span<T> data, const char* name) {
    return Global<T>(data, check_, name);
  }

  template <typename T>
  Shared<T> shared_view(std::vector<T>& storage, const char* name,
                        SharedInit init = SharedInit::kUndefined) {
    return Shared<T>(storage, check_, name, init);
  }

 private:
  int block_id_;
  int block_dim_;
  int grid_dim_;
  int warp_size_;
  KernelStats& stats_;
  bool may_commit_;
  bool committed_ = false;
  BlockCheck* check_;
};

struct LaunchResult {
  KernelStats stats;
  double modeled_seconds = 0.0;
};

// Launches `grid_dim` independent blocks of `block_dim` simulated threads.
// Returns the merged stats and modeled kernel time (already charged to dev).
// Kernel exceptions propagate to the caller: the exception of the lowest
// failing block id is rethrown, at any worker count.
template <typename Kernel>
LaunchResult launch(Device& dev, int grid_dim, int block_dim, Kernel&& kernel) {
  // Fault injection (sim/faults.h): the decision is drawn at launch entry
  // from (plan seed, device id, launch ordinal) — deterministic for every
  // --sim-threads value. Device loss throws before any block runs (no
  // partial side effects); a transient fault throws when its target block
  // starts, *before* charge_kernel, so a failed attempt costs nothing and
  // the fault-free run's modeled time is unchanged.
  FaultDecision fire;
  if (sim_faults_enabled()) {
    fire = next_launch_fault(dev, *sim_fault_plan(), grid_dim);
    if (fire.kind == FaultKind::kDeviceLoss ||
        fire.kind == FaultKind::kNodeLoss) {
      dev.mark_lost();
      throw SimDeviceLost(dev.id(), fire.kind == FaultKind::kNodeLoss);
    }
  }

  KernelStats merged;
  merged.blocks = static_cast<std::uint64_t>(grid_dim);
  merged.threads = static_cast<std::uint64_t>(grid_dim) * block_dim;
  const int warp_size = dev.spec().warp_size;

  // Race/memory checker (sim/checker.h): one LaunchCheck per launch, one
  // BlockCheck per block. The kernel label is whatever KernelTag is active
  // (the named launch() overload applies it before delegating here).
  std::unique_ptr<LaunchCheck> lc;
  if (sim_check_enabled()) {
    lc = std::make_unique<LaunchCheck>(dev.kernel(), grid_dim);
  }

  // Runs block b into `stats`; returns whether it committed.
  const auto run_block = [&](int b, KernelStats& stats, bool may_commit) {
    if (fire.kind == FaultKind::kTransient && b == fire.block) {
      throw SimFaultError(dev.kernel(), dev.id(), fire.ordinal, b);
    }
    std::unique_ptr<BlockCheck> bc;
    if (lc) bc = std::make_unique<BlockCheck>(*lc, b, block_dim);
    BlockCtx blk(b, block_dim, grid_dim, warp_size, stats, may_commit,
                 bc.get());
    kernel(blk);
    return blk.committed();
  };

  const bool ordered = grid_dim > 0 && run_block(0, merged, true);
  const int n_workers = ordered ? 1 : launch_workers(grid_dim - 1);
  if (n_workers <= 1) {
    for (int b = 1; b < grid_dim; ++b) run_block(b, merged, ordered);
  } else {
    // Each worker runs its blocks in increasing order and stops at its own
    // first failure, so no worker skips a block below the launch's lowest
    // failing block: the lowest recorded failure is that block's.
    struct Failure {
      int block;
      std::exception_ptr error;
    };
    std::vector<KernelStats> worker_stats(static_cast<std::size_t>(n_workers));
    std::vector<Failure> failures(static_cast<std::size_t>(n_workers),
                                  Failure{grid_dim, nullptr});
    ThreadPool::global().run_workers(
        static_cast<std::size_t>(n_workers), [&](std::size_t w) {
          for (int b = 1 + static_cast<int>(w); b < grid_dim; b += n_workers) {
            try {
              run_block(b, worker_stats[w], false);
            } catch (...) {
              failures[w] = {b, std::current_exception()};
              return;
            }
          }
        });
    const Failure& first = *std::min_element(
        failures.begin(), failures.end(),
        [](const Failure& a, const Failure& b) { return a.block < b.block; });
    if (first.error) std::rethrow_exception(first.error);
    // Fixed-order merge of the private counters; integer sums, so the
    // result is exact and equal to the sequential path's.
    for (const auto& ws : worker_stats) merged += ws;
  }

  std::uint64_t violations = 0;
  if (lc) {
    // Deterministic merge + CheckReport recording; the count rides in the
    // stats so the profiler sees per-kernel violation totals.
    violations = lc->finish();
    merged.check_violations += violations;
  }

  LaunchResult res;
  res.stats = merged;
  res.modeled_seconds = CostModel(dev.spec()).kernel_seconds(merged);
  dev.charge_kernel(merged, res.modeled_seconds);
  if (violations > 0 && sim_check_mode() == CheckMode::kFail) {
    // Stats (and the profiler) already carry the findings; hard-fail mode
    // additionally surfaces the first offender at the launch site.
    throw SimCheckError(lc->violations().empty() ? Violation{}
                                                 : lc->violations().front(),
                        violations);
  }
  return res;
}

// Named launch: tags the charge with `name` for the observability layer so
// per-kernel profiles attribute it instead of lumping it as "unattributed".
template <typename Kernel>
LaunchResult launch(Device& dev, const char* name, int grid_dim, int block_dim,
                    Kernel&& kernel) {
  KernelTag tag(dev, name);
  return launch(dev, grid_dim, block_dim, std::forward<Kernel>(kernel));
}

// Convenience geometry helper: one thread per element.
inline int blocks_for(std::size_t n, int block_dim) {
  return static_cast<int>((n + static_cast<std::size_t>(block_dim) - 1) /
                          static_cast<std::size_t>(block_dim));
}

}  // namespace gbmo::sim
