// Counted and/or checked memory accessors.
//
// Kernels touch global and shared memory through these wrappers so the
// substrate can account traffic without kernels littering counter updates.
// The declared access pattern decides how bytes convert to transactions:
//   - Coalesced: consecutive lanes touch consecutive addresses; bytes are
//     serviced at full transaction width.
//   - Random:    every access is its own 32-byte transaction (gather).
//   - Broadcast: one transaction serves the whole warp (uniform loads).
//
// A view operates in one of two modes:
//   - counting (the original constructors, KernelStats&): every access is
//     charged to the stats. Used where per-access accounting is wanted.
//   - checked (built by BlockCtx::global_view / BlockCtx::shared_view):
//     accesses are NOT counted — the kernels keep their exact bulk
//     KernelStats tallies, preserving bit-identical profiles — but they are
//     observed by the race/memory checker (sim/checker.h) when it is armed.
//     With the checker off the checked view is a raw passthrough (one null
//     check per access).
// Out-of-bounds accesses under an armed checker are recorded and suppressed
// (loads return T{}, stores are dropped) so the checker itself is safe.
//
// atomic_add_n is the d-wide vector update: on a counting view or under an
// armed checker it is exactly n atomic_add calls; on a plain passthrough it
// checks the range once and runs a flat loop, so kernels call it
// unconditionally.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "sim/checker.h"
#include "sim/counters.h"

namespace gbmo::sim {

enum class Access : std::uint8_t { kCoalesced, kRandom, kBroadcast };

namespace detail {
// dst[k] += src(k) for k < n, four words per pass.
template <typename T, typename Src>
inline void add_n(T* __restrict dst, std::size_t n, Src& src) {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    dst[k] += src(k);
    dst[k + 1] += src(k + 1);
    dst[k + 2] += src(k + 2);
    dst[k + 3] += src(k + 3);
  }
  for (; k < n; ++k) dst[k] += src(k);
}
}  // namespace detail

template <typename T>
class Global {
 public:
  // Counting, unchecked view (the original accessor).
  Global(std::span<T> data, KernelStats& stats, Access pattern = Access::kCoalesced)
      : data_(data), stats_(&stats), pattern_(pattern) {}

  // Checked, non-counting view; `check` may be null (checker off), which
  // makes every operation a plain array access.
  Global(std::span<T> data, BlockCheck* check, const char* name)
      : data_(data),
        check_(check),
        region_(check != nullptr
                    ? check->global_region(data.data(), data.size(), name)
                    : nullptr) {}

  T load(std::size_t i) const {
    if (check_ != nullptr && !check_->on_global_load(region_, i)) return T{};
    GBMO_DCHECK(i < data_.size());
    if (stats_ != nullptr) count(sizeof(T));
    return data_[i];
  }

  void store(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_global_store(region_, i, false)) return;
    GBMO_DCHECK(i < data_.size());
    if (stats_ != nullptr) count(sizeof(T));
    data_[i] = v;
  }

  // Non-atomic read-modify-write (a plain `x[i] += v`). Under the checker
  // this is a write touch: outside BlockCtx::commit it must stay
  // block-partitioned, exactly like store().
  void add(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_global_store(region_, i, false)) return;
    GBMO_DCHECK(i < data_.size());
    if (stats_ != nullptr) count(2 * sizeof(T));
    data_[i] += v;
  }

  // Atomic add with same-address conflict tracking. The plain add is
  // race-free within a block (block phases run on one host thread). Blocks
  // may execute concurrently on parallel scheduler workers, so cross-block
  // targets must either be block-partitioned (disjoint writes) or the adds
  // must happen inside BlockCtx::commit — the deterministic-accumulation
  // rule in sim/launch.h, which is also what the checker enforces.
  void atomic_add(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_global_store(region_, i, true)) return;
    GBMO_DCHECK(i < data_.size());
    data_[i] += v;
    if (stats_ != nullptr) {
      ++stats_->atomic_global_ops;
      stats_->atomic_global_conflicts +=
          conflicts_.note(reinterpret_cast<std::uintptr_t>(&data_[i]));
    }
  }

  // Adds src(k) to word i + k for every k < n, in ascending k.
  template <typename Src>
  void atomic_add_n(std::size_t i, std::size_t n, Src&& src) {
    if (check_ != nullptr || stats_ != nullptr) {
      for (std::size_t k = 0; k < n; ++k) atomic_add(i + k, src(k));
      return;
    }
    GBMO_DCHECK(i <= data_.size() && n <= data_.size() - i);
    detail::add_n(data_.data() + i, n, src);
  }

  std::size_t size() const { return data_.size(); }
  std::span<T> raw() { return data_; }

 private:
  void count(std::size_t bytes) const {
    if (pattern_ == Access::kRandom) {
      ++stats_->gmem_random_accesses;
    } else if (pattern_ == Access::kBroadcast) {
      // Whole warp served by one transaction: charge 1/32 of a 32B line.
      stats_->gmem_coalesced_bytes += 1;
    } else {
      stats_->gmem_coalesced_bytes += bytes;
    }
  }

  std::span<T> data_;
  KernelStats* stats_ = nullptr;
  Access pattern_ = Access::kCoalesced;
  BlockCheck* check_ = nullptr;
  GlobalRegionShadow* region_ = nullptr;
  mutable ConflictTracker conflicts_;
};

// Shared-memory array scoped to a block phase. Sized against the device's
// shared memory budget by the caller (histogram tiling computes the fit).
// The checked view additionally tracks per-word last writers/readers with
// the block's barrier epoch, flagging same-epoch cross-lane hazards and
// reads of never-written words in SharedInit::kUndefined regions.
template <typename T>
class Shared {
 public:
  // Counting, unchecked view (the original accessor).
  Shared(std::span<T> storage, KernelStats& stats)
      : data_(storage), stats_(&stats) {}

  // Checked, non-counting view of exactly `storage` (the shadow is sized at
  // construction).
  Shared(std::span<T> storage, BlockCheck* check, const char* name,
         SharedInit init)
      : data_(storage),
        check_(check),
        region_(check != nullptr ? check->shared_region(storage.data(),
                                                        storage.size(), name,
                                                        init)
                                 : nullptr) {}

  T load(std::size_t i) const {
    if (check_ != nullptr && !check_->on_shared_load(region_, i)) return T{};
    GBMO_DCHECK(i < data_.size());
    if (stats_ != nullptr) stats_->smem_bytes += sizeof(T);
    return data_[i];
  }

  void store(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_shared_store(region_, i, false)) return;
    GBMO_DCHECK(i < data_.size());
    if (stats_ != nullptr) stats_->smem_bytes += sizeof(T);
    data_[i] = v;
  }

  // Non-atomic read-modify-write; races with other lanes in the same epoch.
  void add(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_shared_store(region_, i, false)) return;
    GBMO_DCHECK(i < data_.size());
    if (stats_ != nullptr) stats_->smem_bytes += 2 * sizeof(T);
    data_[i] += v;
  }

  void atomic_add(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_shared_store(region_, i, true)) return;
    GBMO_DCHECK(i < data_.size());
    data_[i] += v;
    if (stats_ != nullptr) {
      ++stats_->atomic_shared_ops;
      stats_->atomic_shared_conflicts +=
          conflicts_.note(reinterpret_cast<std::uintptr_t>(&data_[i]));
    }
  }

  // Adds src(k) to word i + k for every k < n, in ascending k.
  template <typename Src>
  void atomic_add_n(std::size_t i, std::size_t n, Src&& src) {
    if (check_ != nullptr || stats_ != nullptr) {
      for (std::size_t k = 0; k < n; ++k) atomic_add(i + k, src(k));
      return;
    }
    GBMO_DCHECK(i <= data_.size() && n <= data_.size() - i);
    detail::add_n(data_.data() + i, n, src);
  }

  std::size_t size() const { return data_.size(); }

 private:
  std::span<T> data_;
  KernelStats* stats_ = nullptr;
  BlockCheck* check_ = nullptr;
  BlockCheck::SharedRegion* region_ = nullptr;
  mutable ConflictTracker conflicts_;
};

}  // namespace gbmo::sim
