// Hardware-event counters collected while kernels execute functionally.
//
// The substrate does not time host execution; instead every kernel, primitive
// and transfer records the first-order quantities that determine its cost on
// a real GPU (bytes moved, transactions, atomic contention, shared-memory
// traffic, arithmetic volume). The cost model (sim/cost_model.h) converts
// these counters into modeled seconds for a concrete DeviceSpec.
#pragma once

#include <cstdint>

namespace gbmo::sim {

struct KernelStats {
  // Global memory traffic. Coalesced bytes are serviced at full-width
  // transactions; random accesses each cost one 32-byte transaction.
  std::uint64_t gmem_coalesced_bytes = 0;
  std::uint64_t gmem_random_accesses = 0;

  // Atomic operations on global memory, plus the estimated number of
  // serialized (same-address) collisions observed in a sliding window.
  std::uint64_t atomic_global_ops = 0;
  std::uint64_t atomic_global_conflicts = 0;

  // Atomic operations on shared memory (cheaper, but still serialized on
  // same-address collisions).
  std::uint64_t atomic_shared_ops = 0;
  std::uint64_t atomic_shared_conflicts = 0;

  // Non-atomic shared-memory traffic in bytes.
  std::uint64_t smem_bytes = 0;

  // Arithmetic volume (fused multiply-adds count as 2).
  std::uint64_t flops = 0;

  // Launch geometry of the kernel(s) these stats describe.
  std::uint64_t blocks = 0;
  std::uint64_t threads = 0;
  std::uint64_t barriers = 0;

  // Library-primitive volumes (radix sort / scan / reduce item counts),
  // recorded by sim/primitives.cpp and costed with their own formulas.
  std::uint64_t sort_pairs_bytes = 0;
  std::uint64_t scan_bytes = 0;

  // Race/memory-checker findings for this launch (sim/checker.h); always 0
  // when the checker is off or the kernel is clean. Carried here so per-
  // kernel violation counts flow through the normal charge -> sink path to
  // the obs Profiler. The cost model ignores it.
  std::uint64_t check_violations = 0;

  // Fault-injection accounting (sim/faults.h): injected fault events
  // (transient failures and collective timeouts) and retry attempts charged
  // against this kernel. Ride the same charge -> sink path as
  // check_violations; the cost model ignores them (the backoff/timeout
  // penalty is charged as modeled seconds under the "retry" phase).
  std::uint64_t faults_injected = 0;
  std::uint64_t fault_retries = 0;

  KernelStats& operator+=(const KernelStats& o) {
    gmem_coalesced_bytes += o.gmem_coalesced_bytes;
    gmem_random_accesses += o.gmem_random_accesses;
    atomic_global_ops += o.atomic_global_ops;
    atomic_global_conflicts += o.atomic_global_conflicts;
    atomic_shared_ops += o.atomic_shared_ops;
    atomic_shared_conflicts += o.atomic_shared_conflicts;
    smem_bytes += o.smem_bytes;
    flops += o.flops;
    blocks += o.blocks;
    threads += o.threads;
    barriers += o.barriers;
    sort_pairs_bytes += o.sort_pairs_bytes;
    scan_bytes += o.scan_bytes;
    check_violations += o.check_violations;
    faults_injected += o.faults_injected;
    fault_retries += o.fault_retries;
    return *this;
  }
};

// Sliding-window estimator of same-address atomic collisions. Real GPUs
// serialize atomics that land on the same word within a short time window;
// we approximate the window with the last 16 sampled addresses. Sampling
// (1 in 4) keeps the functional simulation fast; the hit count is scaled
// back up when folded into KernelStats.
class ConflictTracker {
 public:
  // Records one atomic to `addr`; returns the number of window hits
  // attributed to this access (already unsampled).
  inline std::uint64_t note(std::uintptr_t addr) {
    if ((counter_++ & 3u) != 0) {
      ring_[pos_++ & 15u] = addr;
      return 0;
    }
    std::uint64_t hits = 0;
    for (std::uintptr_t r : ring_) hits += (r == addr) ? 1 : 0;
    ring_[pos_++ & 15u] = addr;
    return hits * 4;  // undo 1-in-4 sampling
  }

 private:
  std::uintptr_t ring_[16] = {};
  unsigned pos_ = 0;
  unsigned counter_ = 0;
};

}  // namespace gbmo::sim
