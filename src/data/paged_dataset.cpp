#include "data/paged_dataset.h"

#include <algorithm>

#include "common/error.h"
#include "sim/faults.h"

namespace gbmo::data {

PagedDataset::PagedDataset(const BinnedMatrix& bins, std::size_t chunk_rows)
    : bins_(&bins),
      chunk_rows_(chunk_rows == 0 || chunk_rows > bins.n_rows()
                      ? std::max<std::size_t>(bins.n_rows(), 1)
                      : chunk_rows) {
  n_chunks_ = (bins.n_rows() + chunk_rows_ - 1) / chunk_rows_;
  if (n_chunks_ == 0) n_chunks_ = 1;
}

std::size_t PagedDataset::rows_in_chunk(std::size_t c) const {
  GBMO_DCHECK(c < n_chunks_);
  const std::size_t start = c * chunk_rows_;
  return std::min(chunk_rows_, bins_->n_rows() - start);
}

std::size_t PagedDataset::block_bytes(std::size_t f, std::size_t c) const {
  (void)f;  // tiles are uniform across features; rows decide the size
  const std::size_t rows = rows_in_chunk(c);
  std::size_t bytes = rows;  // u8 bin ids
  if (bins_->packed()) {
    // The packed view stores 4 bins per u32 word; a tile owns the words its
    // rows fall into.
    bytes += ((rows + 3) / 4) * sizeof(std::uint32_t);
  }
  return bytes;
}

std::size_t PagedDataset::max_block_bytes() const {
  std::size_t best = 0;
  for (std::size_t c = 0; c < n_chunks_; ++c) {
    best = std::max(best, block_bytes(0, c));
  }
  return best;
}

std::size_t PagedDataset::total_bytes() const {
  std::size_t total = 0;
  for (std::size_t c = 0; c < n_chunks_; ++c) {
    total += block_bytes(0, c) * bins_->n_cols();
  }
  return total;
}

const char* BlockCache::kLedgerAccount = "block_cache";

BlockCache::BlockCache(sim::Device& dev, const PagedDataset& paged,
                       std::size_t budget_bytes)
    : dev_(dev), paged_(paged), budget_(budget_bytes) {
  chunk_set_.assign(paged_.n_chunks(), 0);
}

BlockCache::~BlockCache() {
  // Return the resident bytes to the device so a cache's lifetime does not
  // leak into later allocations on the same device.
  if (used_ > 0) dev_.note_free(used_);
}

void BlockCache::stage_feature(std::size_t f,
                               std::span<const std::uint32_t> rows) {
  std::fill(chunk_set_.begin(), chunk_set_.end(), 0);
  for (const std::uint32_t r : rows) {
    chunk_set_[paged_.chunk_of_row(r)] = 1;
  }
  stage_chunks(f);
}

void BlockCache::stage_features(std::span<const std::uint32_t> features,
                                std::span<const std::uint32_t> rows) {
  std::fill(chunk_set_.begin(), chunk_set_.end(), 0);
  for (const std::uint32_t r : rows) {
    chunk_set_[paged_.chunk_of_row(r)] = 1;
  }
  for (const std::uint32_t f : features) {
    stage_chunks(f);
  }
}

void BlockCache::stage_chunks(std::size_t f) {
  pinned_now_.clear();
  // Ascending chunk order: the access sequence (and with it the LRU state,
  // transfer ordinals and fault decisions) is a pure function of the node's
  // row set, independent of scheduler threads.
  for (std::size_t c = 0; c < chunk_set_.size(); ++c) {
    if (!chunk_set_[c]) continue;
    const Key key = static_cast<Key>(f) * paged_.n_chunks() + c;
    stage_one(key, paged_.block_bytes(f, c));
  }
  for (const Key key : pinned_now_) {
    const auto it = map_.find(key);
    if (it != map_.end()) it->second.pinned = false;
  }
  pinned_now_.clear();
}

void BlockCache::stage_one(Key key, std::size_t bytes) {
  const auto it = map_.find(key);
  if (it != map_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    it->second.pinned = true;
    pinned_now_.push_back(key);
    return;
  }
  ++stats_.misses;
  // Make room: evict least-recently-used unpinned tiles until the new tile
  // fits the budget (budget 0 = unbounded, nothing ever evicts).
  if (budget_ != 0) {
    auto victim = lru_.end();
    while (used_ + bytes > budget_ && !lru_.empty()) {
      victim = lru_.end();
      bool found = false;
      while (victim != lru_.begin()) {
        --victim;
        if (!map_.at(*victim).pinned) {
          found = true;
          break;
        }
      }
      if (!found) break;  // everything left is pinned: the budget check fails
      const auto vit = map_.find(*victim);
      used_ -= vit->second.bytes;
      dev_.note_free(vit->second.bytes);
      ++stats_.evictions;
      lru_.erase(vit->second.lru_it);
      map_.erase(vit);
    }
  }
  // Book residency first — a hard DeviceBudgetExceeded, before anything
  // changes, if the pinned working set alone cannot fit; note_alloc still
  // enforces the device's capacity — then model the PCIe transfer. The cache
  // state below is only written after the transfer succeeds, so a transfer
  // that throws (device loss, spent retry budget) leaves no trace.
  if (budget_ != 0 && used_ + bytes > budget_) {
    throw sim::DeviceBudgetExceeded(kLedgerAccount, bytes, used_, budget_);
  }
  dev_.note_alloc(bytes);
  charge_transfer(bytes);
  used_ += bytes;
  lru_.push_front(key);
  Entry e;
  e.bytes = bytes;
  e.pinned = true;
  e.lru_it = lru_.begin();
  map_.emplace(key, e);
  pinned_now_.push_back(key);
  stats_.bytes_transferred += bytes;
}

void BlockCache::charge_transfer(std::size_t bytes) {
  // Transfers are charged under their own phase so the profiler separates
  // paging overhead from kernel time; the kernel name lets targeted fault
  // plans (kernel=block_h2d) hit only staging. The fault gate is the one
  // sim::launch passes: it retries transient faults (charging their
  // backoff) and throws on device or node loss before the transfer is
  // charged.
  sim::PhaseTag page(dev_, "page");
  try {
    sim::fault_gate(dev_, "block_h2d", 1);
  } catch (...) {
    // The tile never became resident: undo the residency booking so
    // failover paths see consistent device memory.
    dev_.note_free(bytes);
    throw;
  }
  sim::KernelStats s;
  s.gmem_coalesced_bytes = bytes;
  sim::charge_seconds(
      dev_, "block_h2d",
      static_cast<double>(bytes) / dev_.spec().pcie_bandwidth + 2e-5, s);
}

}  // namespace gbmo::data
