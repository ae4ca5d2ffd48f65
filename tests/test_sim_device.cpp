// Device model: memory accounting/OOM, cost-model monotonicity, launch
// geometry and multi-device collectives.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/collectives.h"
#include "sim/cost_model.h"
#include "sim/launch.h"

namespace gbmo::sim {
namespace {

TEST(DeviceMemory, AllocationAccountingAndOom) {
  DeviceSpec spec = DeviceSpec::rtx4090();
  spec.memory_bytes = 1024;
  Device dev(spec);

  dev.note_alloc(512);
  EXPECT_EQ(dev.allocated_bytes(), 512u);
  dev.note_alloc(256);
  EXPECT_EQ(dev.allocated_bytes(), 768u);
  dev.note_free(256);
  EXPECT_EQ(dev.allocated_bytes(), 512u);
  EXPECT_EQ(dev.peak_allocated_bytes(), 768u);

  // 1024 B > 512 free: refused, and the refusal leaves the total unchanged.
  EXPECT_THROW(dev.note_alloc(1024), OutOfDeviceMemory);
  EXPECT_EQ(dev.allocated_bytes(), 512u);
  EXPECT_EQ(dev.peak_allocated_bytes(), 768u);
}

TEST(CostModelTest, MoreTrafficCostsMore) {
  const DeviceSpec spec = DeviceSpec::rtx4090();
  CostModel model(spec);
  KernelStats small, big;
  small.blocks = big.blocks = 1024;
  small.gmem_coalesced_bytes = 1 << 20;
  big.gmem_coalesced_bytes = 1 << 24;
  EXPECT_LT(model.kernel_seconds(small), model.kernel_seconds(big));
}

TEST(CostModelTest, RandomAccessesCostMoreThanCoalescedBytes) {
  const DeviceSpec spec = DeviceSpec::rtx4090();
  CostModel model(spec);
  KernelStats coalesced, random;
  coalesced.blocks = random.blocks = 1024;
  coalesced.gmem_coalesced_bytes = 1 << 20;  // 1 MiB sequential
  random.gmem_random_accesses = 1 << 20;     // 1M scattered touches
  EXPECT_LT(model.kernel_seconds(coalesced), model.kernel_seconds(random));
}

TEST(CostModelTest, LowOccupancyIsSlowerPerByte) {
  const DeviceSpec spec = DeviceSpec::rtx4090();
  CostModel model(spec);
  KernelStats few_blocks, many_blocks;
  few_blocks.blocks = 1;
  many_blocks.blocks = 4096;
  few_blocks.gmem_coalesced_bytes = many_blocks.gmem_coalesced_bytes = 1 << 24;
  EXPECT_GT(model.kernel_seconds(few_blocks), model.kernel_seconds(many_blocks));
}

TEST(CostModelTest, ConflictsAddSerialization) {
  const DeviceSpec spec = DeviceSpec::rtx4090();
  CostModel model(spec);
  KernelStats clean, contended;
  clean.blocks = contended.blocks = 256;
  clean.atomic_global_ops = contended.atomic_global_ops = 1 << 20;
  contended.atomic_global_conflicts = 1 << 18;
  EXPECT_LT(model.kernel_seconds(clean), model.kernel_seconds(contended));
}

TEST(LaunchTest, CoversAllThreadsOnce) {
  Device dev(DeviceSpec::rtx4090());
  std::vector<int> counts(1000, 0);
  launch(dev, "cover", blocks_for(counts.size(), 128), 128, [&](BlockCtx& blk) {
    blk.threads([&](int tid) {
      const std::size_t i = static_cast<std::size_t>(blk.block_id()) * 128 +
                            static_cast<std::size_t>(tid);
      if (i < counts.size()) ++counts[i];
    });
  });
  for (int c : counts) EXPECT_EQ(c, 1);
  EXPECT_EQ(dev.total_stats().blocks, 8u);
}

TEST(Collectives, AllReduceSumIsExactAndReplicated) {
  // Training computes the reduced values on the host; the group charges the
  // exchange to every participant.
  DeviceGroup group(DeviceSpec::rtx4090(), 4);
  group.charge_all_reduce("ring_all_reduce", 16 * sizeof(float),
                          16 * sizeof(float));
  for (int d = 0; d < 4; ++d) EXPECT_GT(group.device(d).modeled_seconds(), 0.0);
}

TEST(Collectives, NvlinkCheaperThanPcie) {
  auto run_with = [&](LinkSpec link) {
    DeviceGroup group(DeviceSpec::rtx4090(), 4, link);
    group.charge_all_reduce("ring_all_reduce", (1 << 16) * sizeof(float),
                            (1 << 16) * sizeof(float));
    return group.device(0).modeled_seconds();
  };
  EXPECT_LT(run_with(LinkSpec{200e9, 3e-6}) * 3, run_with(LinkSpec::pcie4()));
}

TEST(Collectives, RingCostGrowsWithDeviceCount) {
  auto comm_time = [&](int devices) {
    DeviceGroup group(DeviceSpec::rtx4090(), devices);
    group.charge_all_reduce("ring_all_reduce", (1 << 14) * sizeof(float),
                            (1 << 14) * sizeof(float));
    return group.device(0).modeled_seconds();
  };
  // Ring all-reduce latency term scales with (k-1); bandwidth term saturates.
  EXPECT_LT(comm_time(2), comm_time(8));
}

TEST(Collectives, SingleDeviceChargesNoComm) {
  DeviceGroup group(DeviceSpec::rtx4090(), 1);
  group.charge_all_reduce("ring_all_reduce", sizeof(float), sizeof(float));
  EXPECT_DOUBLE_EQ(group.device(0).modeled_seconds(), 0.0);
}

TEST(ConflictTrackerTest, RepeatedAddressesReportCollisions) {
  ConflictTracker same, distinct;
  std::uint64_t same_hits = 0, distinct_hits = 0;
  for (int i = 0; i < 1000; ++i) {
    same_hits += same.note(0xdeadbeef);
    distinct_hits += distinct.note(static_cast<std::uintptr_t>(i) * 64);
  }
  EXPECT_GT(same_hits, 10 * distinct_hits + 100);
}

// The d-wide bulk add on a counting view charges and adds exactly what the
// same per-word atomic_add calls do; on a passthrough view it adds the same
// values.
TEST(AccessorsTest, BulkAtomicAddMatchesPerWordAdds) {
  const auto src = [](std::size_t k) { return 0.5f + static_cast<float>(k); };
  std::vector<float> bulk(12, 1.0f), words(12, 1.0f), plain(12, 1.0f);
  KernelStats bulk_stats, word_stats;
  Global<float> gb(std::span<float>(bulk), bulk_stats);
  Global<float> gw(std::span<float>(words), word_stats);
  Global<float> gp(std::span<float>(plain), nullptr, "plain");
  for (int pass = 0; pass < 3; ++pass) {
    gb.atomic_add_n(2, 9, src);
    for (std::size_t k = 0; k < 9; ++k) gw.atomic_add(2 + k, src(k));
    gp.atomic_add_n(2, 9, src);
  }
  EXPECT_EQ(bulk, words);
  EXPECT_EQ(plain, words);
  EXPECT_EQ(bulk_stats.atomic_global_ops, 27u);
  EXPECT_EQ(bulk_stats.atomic_global_ops, word_stats.atomic_global_ops);
  EXPECT_EQ(bulk_stats.atomic_global_conflicts, word_stats.atomic_global_conflicts);

  std::vector<float> sbulk(5, 0.0f), swords(5, 0.0f);
  KernelStats sbulk_stats, sword_stats;
  Shared<float> sb(sbulk, sbulk_stats);
  Shared<float> sw(swords, sword_stats);
  for (int pass = 0; pass < 5; ++pass) {
    sb.atomic_add_n(0, 5, src);
    for (std::size_t k = 0; k < 5; ++k) sw.atomic_add(k, src(k));
  }
  EXPECT_EQ(sbulk, swords);
  EXPECT_EQ(sbulk_stats.atomic_shared_ops, 25u);
  EXPECT_EQ(sbulk_stats.atomic_shared_ops, sword_stats.atomic_shared_ops);
  EXPECT_EQ(sbulk_stats.atomic_shared_conflicts, sword_stats.atomic_shared_conflicts);
  EXPECT_GT(sbulk_stats.atomic_shared_conflicts, 0u);
}

TEST(MemoryLedger, ChargeReleasePeakAndBudget) {
  Device dev(DeviceSpec::rtx4090());
  EXPECT_EQ(dev.ledger_bytes("cache"), 0u);
  EXPECT_EQ(dev.ledger_budget("cache"), 0u);  // unknown account: all zeros

  dev.ledger_set_budget("cache", 1024);
  EXPECT_EQ(dev.ledger_budget("cache"), 1024u);
  dev.ledger_charge("cache", 600);
  dev.ledger_charge("cache", 400);
  EXPECT_EQ(dev.ledger_bytes("cache"), 1000u);
  EXPECT_EQ(dev.ledger_peak("cache"), 1000u);
  // Ledger charges are real device allocations too.
  EXPECT_EQ(dev.allocated_bytes(), 1000u);

  dev.ledger_release("cache", 500);
  EXPECT_EQ(dev.ledger_bytes("cache"), 500u);
  EXPECT_EQ(dev.ledger_peak("cache"), 1000u);  // peak sticks
  EXPECT_EQ(dev.allocated_bytes(), 500u);

  // Accounts are independent; budget 0 means unbounded.
  dev.ledger_charge("other", 1 << 20);
  EXPECT_EQ(dev.ledger_bytes("other"), std::size_t{1} << 20);
  EXPECT_EQ(dev.ledger_bytes("cache"), 500u);
}

TEST(MemoryLedger, BudgetOverrunHardFailsBeforeMutating) {
  Device dev(DeviceSpec::rtx4090());
  dev.ledger_set_budget("cache", 256);
  dev.ledger_charge("cache", 200);
  const auto allocated = dev.allocated_bytes();
  EXPECT_THROW(dev.ledger_charge("cache", 100), DeviceBudgetExceeded);
  // The failed charge left no trace in either the account or the device.
  EXPECT_EQ(dev.ledger_bytes("cache"), 200u);
  EXPECT_EQ(dev.allocated_bytes(), allocated);
  try {
    dev.ledger_charge("cache", 100);
    FAIL() << "expected DeviceBudgetExceeded";
  } catch (const DeviceBudgetExceeded& e) {
    EXPECT_EQ(e.account, "cache");
    EXPECT_EQ(e.requested, 100u);
    EXPECT_EQ(e.used, 200u);
    EXPECT_EQ(e.budget, 256u);
  }
}

TEST(MemoryLedger, CapacityStillEnforced) {
  DeviceSpec spec = DeviceSpec::rtx4090();
  spec.memory_bytes = 1024;
  Device dev(spec);
  // No account budget, but the physical capacity check still applies.
  EXPECT_THROW(dev.ledger_charge("cache", 4096), OutOfDeviceMemory);
  EXPECT_EQ(dev.ledger_bytes("cache"), 0u);
}

TEST(PhaseAccounting, TimeLandsInCurrentPhase) {
  Device dev(DeviceSpec::rtx4090());
  dev.set_phase("alpha");
  charge_seconds(dev, "k", 1.0);
  dev.set_phase("beta");
  charge_seconds(dev, "k", 2.0);
  // A scoped phase switch comes back even when a throw leaves the scope.
  try {
    PhaseTag retry(dev, "retry");
    charge_seconds(dev, "k", 4.0);
    throw std::runtime_error("leave the scope");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(dev.phase(), "beta");
  EXPECT_DOUBLE_EQ(dev.phase_seconds().at("alpha"), 1.0);
  EXPECT_DOUBLE_EQ(dev.phase_seconds().at("beta"), 2.0);
  EXPECT_DOUBLE_EQ(dev.phase_seconds().at("retry"), 4.0);
  EXPECT_DOUBLE_EQ(dev.modeled_seconds(), 7.0);
}

}  // namespace
}  // namespace gbmo::sim
