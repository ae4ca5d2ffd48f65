// Checked memory accessors.
//
// Kernels touch global and shared memory through these views, built by
// BlockCtx::global_view / BlockCtx::shared_view. Accesses are NOT counted —
// kernels keep exact bulk KernelStats tallies, which preserves bit-identical
// profiles — but they are observed by the race/memory checker
// (sim/checker.h) when it is armed. With the checker off a view is a raw
// passthrough (one null check per access).
// Out-of-bounds accesses under an armed checker are recorded and suppressed
// (loads return T{}, stores are dropped) so the checker itself is safe.
//
// atomic_add_n is the d-wide vector update: under an armed checker it is
// exactly n atomic_add calls; on a plain passthrough it checks the range
// once and runs a flat loop, so kernels call it unconditionally.
#pragma once

#include <cstdint>
#include <span>

#include "common/error.h"
#include "sim/checker.h"

namespace gbmo::sim {

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
  // `check` may be null (checker off), which makes every operation a plain
  // array access.
  Global(std::span<T> data, BlockCheck* check, const char* name)
      : data_(data),
        check_(check),
        region_(check != nullptr
                    ? check->global_region(data.data(), data.size(), name)
                    : nullptr) {}

  T load(std::size_t i) const {
    if (check_ != nullptr && !check_->on_global_load(region_, i)) return T{};
    GBMO_DCHECK(i < data_.size());
    return data_[i];
  }

  void store(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_global_store(region_, i, false)) return;
    GBMO_DCHECK(i < data_.size());
    data_[i] = v;
  }

  // Non-atomic read-modify-write (a plain `x[i] += v`). Under the checker
  // this is a write touch: outside BlockCtx::commit it must stay
  // block-partitioned, exactly like store().
  void add(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_global_store(region_, i, false)) return;
    GBMO_DCHECK(i < data_.size());
    data_[i] += v;
  }

  // Atomic add. The plain add is race-free within a block (block phases run
  // on one host thread). Blocks may execute concurrently on parallel
  // scheduler workers, so cross-block targets must either be
  // block-partitioned (disjoint writes) or the adds must happen inside
  // BlockCtx::commit — the deterministic-accumulation rule in sim/launch.h,
  // which is also what the checker enforces.
  void atomic_add(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_global_store(region_, i, true)) return;
    GBMO_DCHECK(i < data_.size());
    data_[i] += v;
  }

  // Adds src(k) to word i + k for every k < n, in ascending k.
  template <typename Src>
  void atomic_add_n(std::size_t i, std::size_t n, Src&& src) {
    if (check_ != nullptr) {
      for (std::size_t k = 0; k < n; ++k) atomic_add(i + k, src(k));
      return;
    }
    GBMO_DCHECK(i <= data_.size() && n <= data_.size() - i);
    detail::add_n(data_.data() + i, n, src);
  }

  std::size_t size() const { return data_.size(); }

 private:
  std::span<T> data_;
  BlockCheck* check_ = nullptr;
  GlobalRegionShadow* region_ = nullptr;
};

// Shared-memory array scoped to a block phase. Sized against the device's
// shared memory budget by the caller (histogram tiling computes the fit).
// An armed checker additionally tracks per-word last writers/readers with
// the block's barrier epoch, flagging same-epoch cross-lane hazards and
// reads of never-written words in SharedInit::kUndefined regions.
template <typename T>
class Shared {
 public:
  // A view of exactly `storage` (the checker's shadow is sized at
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
    return data_[i];
  }

  void store(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_shared_store(region_, i, false)) return;
    GBMO_DCHECK(i < data_.size());
    data_[i] = v;
  }

  // Non-atomic read-modify-write; races with other lanes in the same epoch.
  void add(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_shared_store(region_, i, false)) return;
    GBMO_DCHECK(i < data_.size());
    data_[i] += v;
  }

  void atomic_add(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_shared_store(region_, i, true)) return;
    GBMO_DCHECK(i < data_.size());
    data_[i] += v;
  }

  // Adds src(k) to word i + k for every k < n, in ascending k.
  template <typename Src>
  void atomic_add_n(std::size_t i, std::size_t n, Src&& src) {
    if (check_ != nullptr) {
      for (std::size_t k = 0; k < n; ++k) atomic_add(i + k, src(k));
      return;
    }
    GBMO_DCHECK(i <= data_.size() && n <= data_.size() - i);
    detail::add_n(data_.data() + i, n, src);
  }

  std::size_t size() const { return data_.size(); }

 private:
  std::span<T> data_;
  BlockCheck* check_ = nullptr;
  BlockCheck::SharedRegion* region_ = nullptr;
};

}  // namespace gbmo::sim
