// Opt-in race & memory checker for the cusim substrate.
//
// Real CUDA kernels are correct only under precise __syncthreads phasing and
// atomic discipline; the simulator executes each block sequentially on one
// host thread, which *hides* such bugs instead of surfacing them. This module
// re-introduces the hazards as checkable shadow state. When armed
// (--sim-check / GBMO_SIM_CHECK / set_sim_check) every launch
// validates, at the granularity of the checked accessor views
// (sim/accessors.h):
//
//  - Shared-memory data races: per-word last-writer tracking with an epoch
//    counter bumped at each blk.sync(). A same-epoch write -> read or
//    write -> write by different lanes is a race, unless both sides are
//    atomic (write/write) — the atomic exemption.
//  - Out-of-bounds accesses through the global/shared views (the offending
//    access is suppressed so the checker itself stays memory-safe), and
//    reads of shared words never written since the region was declared
//    SharedInit::kUndefined.
//  - Cross-block global-memory discipline: a word written outside
//    BlockCtx::commit that is touched by more than one block is
//    nondeterministic under the parallel block scheduler — exactly the bug
//    class PR 2's host parallelism can turn into silent corruption.
//  - Barrier divergence: lanes of one thread/warp phase arriving at
//    different blk.sync() counts.
//
// Violations are merged deterministically (per-block lists in block-id
// order, then global-region findings sorted by site) so the checker output
// is identical for every --sim-threads value, counted into
// KernelStats::check_violations (visible per kernel through the obs
// Profiler), and recorded in the process-global CheckReport with the first
// offender per kernel. CheckMode::kFail additionally throws SimCheckError
// from the offending launch — the hard-fail mode tests arm.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.h"

namespace gbmo::sim {

// --- arming ------------------------------------------------------------------
enum class CheckMode : std::uint8_t { kOff, kReport, kFail };

// Parses a GBMO_SIM_CHECK-style value: "" / "0" / "off" -> kOff,
// "1" / "on" / "report" -> kReport, "2" / "fail" -> kFail (case-sensitive;
// anything unrecognized is kOff).
CheckMode parse_check_env(const char* value);

CheckMode default_sim_check();      // the GBMO_SIM_CHECK env value (cached)
CheckMode sim_check_mode();         // override if set, else the env default
void set_sim_check(CheckMode mode); // process-wide override
void reset_sim_check();             // drop the override (back to env default)
inline bool sim_check_enabled() { return sim_check_mode() != CheckMode::kOff; }

// --- findings ----------------------------------------------------------------
enum class ViolationKind : std::uint8_t {
  kSharedRace,
  kSharedOob,
  kSharedUninit,
  kGlobalRace,
  kGlobalOob,
  kBarrierDivergence,
};
inline constexpr int kViolationKindCount = 6;
const char* violation_kind_name(ViolationKind k);

struct Violation {
  ViolationKind kind = ViolationKind::kSharedRace;
  std::string kernel;     // the launch's kernel name
  std::string site;       // the named accessor region (or barrier phase)
  int block = -1;
  int lane = -1;          // -1: block-sequential context (no lane identity)
  std::size_t index = 0;  // word index within the region
  std::string detail;
  std::string describe() const;  // "kind kernel:site[index] block B lane L: detail"
};

// Thrown from sim::launch under CheckMode::kFail, after the launch's stats
// (including the violation count) have been charged to the device.
class SimCheckError : public Error {
 public:
  SimCheckError(const Violation& first, std::uint64_t total);
  const Violation& first() const { return first_; }
  std::uint64_t total() const { return total_; }

 private:
  Violation first_;
  std::uint64_t total_;
};

// Process-global violation registry: per-kernel counts by kind plus the
// first offender per kernel, with a deterministic text summary. Cleared
// explicitly (tests) — launches only append.
class CheckReport {
 public:
  static CheckReport& instance();

  // One launch's findings: the deterministically-ordered stored violations
  // plus the count of further ones dropped by the per-block cap.
  void record(const std::string& kernel, const std::vector<Violation>& stored,
              std::uint64_t dropped);

  std::uint64_t total_violations() const;
  std::uint64_t kernel_violations(const std::string& kernel) const;
  std::uint64_t kind_violations(ViolationKind k) const;
  // First offender for each kernel that violated, in kernel-name order.
  std::vector<Violation> first_offenders() const;
  std::string summary() const;
  void clear();

 private:
  struct Entry {
    std::uint64_t total = 0;
    std::uint64_t by_kind[kViolationKindCount] = {};
    std::unique_ptr<Violation> first;
  };
  mutable std::mutex mu_;
  std::map<std::string, Entry> kernels_;
};

// How a shared region's storage starts out. kZeroed regions (the kernel
// zero-fills the backing vector before creating the view) never trigger
// uninitialized-read findings; kUndefined regions must be written before
// they are read.
enum class SharedInit : std::uint8_t { kUndefined, kZeroed };

// --- shadow state ------------------------------------------------------------
// Per-word shadow of a global region, updated lock-free and
// order-independently (min/max/OR accumulation), so the final state — and
// therefore the violations derived from it — is identical for every
// interleaving of blocks across scheduler workers.
struct GlobalWordShadow {
  std::atomic<std::int32_t> touch_min{INT32_MAX};  // min block id touching
  std::atomic<std::int32_t> touch_max{-1};         // max block id touching
  // bit 0: written outside BlockCtx::commit; bit 1: written at all.
  std::atomic<std::uint8_t> flags{0};
};

struct GlobalRegionShadow {
  const void* base = nullptr;
  std::size_t words = 0;
  const char* name = "";
  std::unique_ptr<GlobalWordShadow[]> shadow;
};

class LaunchCheck;

// Per-block checker driven by BlockCtx; lives on the block's worker thread,
// so everything except the global-shadow updates is single-threaded.
class BlockCheck {
 public:
  BlockCheck(LaunchCheck& launch, int block_id, int block_dim);
  ~BlockCheck();  // deposits findings into the launch (exception-safe)
  BlockCheck(const BlockCheck&) = delete;
  BlockCheck& operator=(const BlockCheck&) = delete;

  // Lane/phase/barrier protocol (driven by BlockCtx::threads/sync).
  void begin_phase(const char* site, int n_lanes);
  void set_lane(int lane) { lane_ = lane; }
  int lane() const { return lane_; }
  void end_phase();
  void on_sync();
  void begin_commit() { in_commit_ = true; }
  void end_commit() { in_commit_ = false; }

  // Shared regions (block-local shadows, deduped by base pointer).
  struct SharedRegion;
  SharedRegion* shared_region(const void* base, std::size_t words,
                              const char* name, SharedInit init);
  // Return false when the access is out of bounds (and thus suppressed).
  bool on_shared_load(SharedRegion* r, std::size_t i);
  bool on_shared_store(SharedRegion* r, std::size_t i, bool atomic);

  // Global regions (launch-wide shadows; registration deduped by base).
  GlobalRegionShadow* global_region(const void* base, std::size_t words,
                                    const char* name);
  bool on_global_load(GlobalRegionShadow* r, std::size_t i);
  bool on_global_store(GlobalRegionShadow* r, std::size_t i, bool atomic);

  struct SharedWord {
    static constexpr std::int32_t kNoAccess = -2;
    std::int32_t writer_lane = kNoAccess;  // -1 = block-sequential write
    std::int32_t reader_lo = kNoAccess;    // lane range of epoch's readers
    std::int32_t reader_hi = kNoAccess;    // (lanes >= 0 only)
    std::uint32_t write_epoch = 0;
    std::uint32_t read_epoch = 0;
    bool write_atomic = false;
    bool written = false;
  };
  struct SharedRegion {
    const void* base = nullptr;
    const char* name = "";
    SharedInit init = SharedInit::kUndefined;
    std::vector<SharedWord> words;
  };

 private:
  void add_violation(ViolationKind kind, const char* site, std::size_t index,
                     std::string detail);

  LaunchCheck& launch_;
  int block_id_;
  int block_dim_;
  int lane_ = -1;
  bool in_commit_ = false;
  std::uint32_t epoch_ = 0;
  std::vector<std::unique_ptr<SharedRegion>> shared_;
  // Barrier-divergence tracking for the active thread/warp phase.
  bool phase_active_ = false;
  const char* phase_site_ = "";
  std::vector<std::uint32_t> phase_syncs_;
  std::vector<Violation> violations_;
  std::uint64_t dropped_ = 0;
};

// Per-launch checker: owns the global-region shadows and the per-block
// finding slots, merges everything deterministically at the end of the
// launch and records it into the CheckReport.
class LaunchCheck {
 public:
  LaunchCheck(std::string kernel, int grid_dim);

  const std::string& kernel() const { return kernel_; }

  // Thread-safe registration (blocks create views concurrently); dedup by
  // base pointer, growing the shadow if a later view sees more words.
  GlobalRegionShadow* global_region(const void* base, std::size_t words,
                                    const char* name);
  // Lock-free per-access shadow update.
  void note_global(GlobalRegionShadow* r, std::size_t i, int block, bool write,
                   bool in_commit);

  // Called by ~BlockCheck from the block's worker (each block owns its slot).
  void deposit(int block_id, std::vector<Violation> found,
               std::uint64_t dropped);

  // After every block has finished: merges per-block findings in block-id
  // order, derives global-region races from the shadow final state (sorted
  // by site/index for determinism), records into CheckReport::instance().
  // Returns the total violation count (stored + dropped).
  std::uint64_t finish();

  // Valid after finish(): the deterministically-ordered stored findings.
  const std::vector<Violation>& violations() const { return merged_; }
  std::uint64_t dropped() const { return dropped_total_; }

 private:
  std::string kernel_;
  std::mutex regions_mu_;
  std::vector<std::unique_ptr<GlobalRegionShadow>> regions_;
  std::vector<std::vector<Violation>> per_block_;
  std::vector<std::uint64_t> per_block_dropped_;
  std::vector<Violation> merged_;
  std::uint64_t dropped_total_ = 0;
};

}  // namespace gbmo::sim
