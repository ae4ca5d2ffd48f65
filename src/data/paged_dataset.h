// Out-of-core paging layer: the bin-packed matrix lives in simulated host
// memory, partitioned into (feature, row-chunk) tiles that are staged into a
// bounded device-resident block cache on demand.
//
// The cache is *accounting-only*: kernels keep reading the host-backed
// BinnedMatrix (functional behaviour is untouched, so models are bitwise
// identical at any cache budget by construction), while the cache tracks
// which tiles are device-resident, charges every host->device tile transfer
// to the cost model (phase "page", kernel "block_h2d", bytes on the PCIe
// link), and books residency as device memory (note_alloc/note_free). Its
// budget hard-fails (sim::DeviceBudgetExceeded) when the pinned working set
// alone cannot fit.
//
// Eviction is LRU over unpinned tiles. Tiles being staged for the current
// node/feature are pinned for the duration of the stage call, so a budget of
// at least one feature's working set always makes progress. LRU is a stack
// algorithm: for the (budget-independent) access sequence the grower
// generates, the miss set at a smaller budget is a superset of the miss set
// at a larger one, which is what makes modeled time monotone non-increasing
// in the budget (gated in tests/test_out_of_core.cpp).
//
// Transfers run on the orchestration thread (never inside sim::launch), so
// they are deterministic at any --sim-threads. Each transfer passes the same
// fault gate as sim::launch (sim::fault_gate): transient faults are retried
// there with modeled backoff, and kill= / kill-node= decisions lose the
// device or its node. The cache mutates its state only after the gate, so
// faulted runs recover bitwise (OutOfCore.StagingTransientBitwise) and a
// node loss on a transfer fails over like one on a kernel
// (OutOfCore.NodeKillOnTileTransferFailsOver).
//
// See DESIGN.md §12.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "data/quantize.h"
#include "sim/device.h"

namespace gbmo::data {

// Tile partition of a BinnedMatrix: one tile per (feature, row-chunk).
// chunk_rows == 0 means a single chunk spanning all rows.
class PagedDataset {
 public:
  PagedDataset(const BinnedMatrix& bins, std::size_t chunk_rows);

  const BinnedMatrix& bins() const { return *bins_; }
  std::size_t chunk_rows() const { return chunk_rows_; }
  std::size_t n_chunks() const { return n_chunks_; }
  std::size_t chunk_of_row(std::size_t r) const { return r / chunk_rows_; }

  // Rows covered by chunk c (the last chunk may be short).
  std::size_t rows_in_chunk(std::size_t c) const;

  // Modeled bytes of one tile: the u8 bin slice plus its share of the packed
  // (4-bins-per-u32) representation when the matrix is packed.
  std::size_t block_bytes(std::size_t f, std::size_t c) const;
  std::size_t max_block_bytes() const;

  // Bin-packed footprint of the whole matrix in tile terms (what an in-core
  // device resident copy would occupy).
  std::size_t total_bytes() const;

 private:
  const BinnedMatrix* bins_;
  std::size_t chunk_rows_ = 0;
  std::size_t n_chunks_ = 0;
};

struct BlockCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_transferred = 0;

  BlockCacheStats& operator+=(const BlockCacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    bytes_transferred += o.bytes_transferred;
    return *this;
  }
};

// Bounded device-resident tile cache (one per device).
class BlockCache {
 public:
  // budget_bytes == 0 -> unbounded (tiles still transfer once and stay
  // resident; only the device's capacity bounds them).
  BlockCache(sim::Device& dev, const PagedDataset& paged,
             std::size_t budget_bytes);
  ~BlockCache();
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // Stages every tile of feature f touched by `rows` (ascending node-row
  // ids; GOSS-sampled nodes therefore stage fewer tiles). Tiles staged by
  // this call are pinned until it returns. Throws sim::DeviceBudgetExceeded
  // when the pinned working set exceeds the budget.
  void stage_feature(std::size_t f, std::span<const std::uint32_t> rows);

  // Batch form: computes the chunk set for `rows` once and stages it for
  // every feature in turn (pins are still per-feature, so the budget floor
  // stays one feature's working set).
  void stage_features(std::span<const std::uint32_t> features,
                      std::span<const std::uint32_t> rows);

  const BlockCacheStats& stats() const { return stats_; }
  std::size_t budget_bytes() const { return budget_; }

  // The account DeviceBudgetExceeded names.
  static const char* kLedgerAccount;

 private:
  using Key = std::uint64_t;  // f * n_chunks + chunk

  void stage_chunks(std::size_t f);  // consumes chunk_set_
  void stage_one(Key key, std::size_t bytes);
  void charge_transfer(std::size_t bytes);

  struct Entry {
    std::size_t bytes = 0;
    bool pinned = false;
    std::list<Key>::iterator lru_it;
  };

  sim::Device& dev_;
  const PagedDataset& paged_;
  std::size_t budget_ = 0;
  std::size_t used_ = 0;
  std::list<Key> lru_;  // front = most recently used
  std::unordered_map<Key, Entry> map_;
  BlockCacheStats stats_;
  std::vector<std::uint8_t> chunk_set_;  // per-chunk membership scratch
  std::vector<Key> pinned_now_;          // tiles pinned by the current stage
};

}  // namespace gbmo::data
