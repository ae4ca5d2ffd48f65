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

// The d-wide bulk add adds exactly what the same per-word atomic_add calls
// do: on a passthrough view, and with the checker armed on checked global
// and shared views, where the checker sees every word (a bulk add that runs
// past its region is flagged word by word and the stray words are dropped).
TEST(AccessorsTest, BulkAtomicAddMatchesPerWordAdds) {
  const auto src = [](std::size_t k) { return 0.5f + static_cast<float>(k); };
  std::vector<float> words(12, 1.0f), plain(12, 1.0f);
  Global<float> gw(std::span<float>(words), nullptr, "words");
  Global<float> gp(std::span<float>(plain), nullptr, "plain");
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t k = 0; k < 9; ++k) gw.atomic_add(2 + k, src(k));
    gp.atomic_add_n(2, 9, src);
  }
  EXPECT_EQ(plain, words);

  std::vector<float> checked(12, 1.0f), edge(4, 0.0f);
  std::vector<float> sbulk(5, 0.0f), swords(5, 0.0f);
  set_sim_check(CheckMode::kReport);
  Device dev(DeviceSpec::rtx4090());
  const auto res = launch(dev, "bulk_add", 1, 1, [&](BlockCtx& blk) {
    EXPECT_TRUE(blk.checked());
    auto g = blk.global_view(std::span<float>(checked), "checked");
    auto e = blk.global_view(std::span<float>(edge), "edge");
    auto sb = blk.shared_view(sbulk, "sbulk", SharedInit::kZeroed);
    auto sw = blk.shared_view(swords, "swords", SharedInit::kZeroed);
    for (int pass = 0; pass < 3; ++pass) g.atomic_add_n(2, 9, src);
    for (int pass = 0; pass < 5; ++pass) {
      sb.atomic_add_n(0, 5, src);
      for (std::size_t k = 0; k < 5; ++k) sw.atomic_add(k, src(k));
    }
    e.atomic_add_n(2, 4, src);  // words 4 and 5 lie past the region
  });
  reset_sim_check();
  CheckReport::instance().clear();
  EXPECT_EQ(checked, words);
  EXPECT_EQ(sbulk, swords);
  EXPECT_EQ(edge, (std::vector<float>{0.0f, 0.0f, 0.5f, 1.5f}));
  EXPECT_EQ(res.stats.check_violations, 2u);
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
