// Out-of-core training (DESIGN.md §12): the block cache pages bin-packed
// feature tiles under a device-memory budget while the trained model stays
// bitwise-identical to in-core training — at every budget, tile height and
// --sim-threads value. Also covers modeled-time monotonicity as the budget
// shrinks, the budget hard-fail when the cache cannot hold one feature's
// working set (before anything changes) and the device's capacity bound, GOSS shrinking the paged working set, profiler
// visibility of transfers, and fault-injected staging.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/booster.h"
#include "data/paged_dataset.h"
#include "data/quantize.h"
#include "data/synthetic.h"
#include "obs/profiler.h"
#include "sim/device.h"
#include "sim/faults.h"

namespace gbmo::core {
namespace {

constexpr std::size_t kRows = 256;

data::Dataset dense_data(std::uint64_t seed = 7) {
  data::MulticlassSpec spec;
  spec.n_instances = kRows;
  spec.n_features = 10;
  spec.n_classes = 4;
  spec.cluster_sep = 1.8;
  spec.seed = seed;
  return data::make_multiclass(spec);
}

TrainConfig cfg_base() {
  TrainConfig cfg;
  cfg.n_trees = 3;
  cfg.max_depth = 4;
  cfg.learning_rate = 0.4f;
  cfg.min_instances_per_node = 4;
  cfg.max_bins = 32;
  cfg.warp_opt = true;  // packed tiles: pages both u8 bins and packed words
  return cfg;
}

// The paging layout training will see for this cfg (same cuts, same packing),
// used to derive budgets in terms of the real tile footprint.
data::PagedDataset paging_layout(const data::Dataset& d, const TrainConfig& cfg,
                                 const data::BinnedMatrix& binned) {
  (void)d;
  return data::PagedDataset(
      binned, static_cast<std::size_t>(std::max(0, cfg.stream_chunk_rows)));
}

struct FitResult {
  Model model;
  TrainReport report;
};

FitResult fit(const data::Dataset& d, const TrainConfig& cfg) {
  GbmoBooster booster(cfg);
  FitResult out;
  out.model = booster.fit(d);
  out.report = booster.report();
  return out;
}

void expect_same_model(const Model& a, const Model& b, const std::string& what) {
  ASSERT_EQ(a.trees.size(), b.trees.size()) << what;
  for (std::size_t t = 0; t < a.trees.size(); ++t) {
    ASSERT_EQ(a.trees[t].n_nodes(), b.trees[t].n_nodes())
        << what << " tree " << t;
    for (std::size_t n = 0; n < a.trees[t].n_nodes(); ++n) {
      EXPECT_EQ(a.trees[t].node(n).feature, b.trees[t].node(n).feature)
          << what << " tree " << t << " node " << n;
      EXPECT_EQ(a.trees[t].node(n).split_bin, b.trees[t].node(n).split_bin)
          << what << " tree " << t << " node " << n;
    }
    const auto av = a.trees[t].all_leaf_values();
    const auto bv = b.trees[t].all_leaf_values();
    ASSERT_EQ(av.size(), bv.size()) << what << " tree " << t;
    // Bitwise: the out-of-core equivalence contract is exact.
    EXPECT_EQ(std::memcmp(av.data(), bv.data(), av.size() * sizeof(float)), 0)
        << what << " tree " << t << " leaf values differ";
  }
}

// --- paged layout sanity ----------------------------------------------------

TEST(OutOfCore, PagedLayoutShapes) {
  const auto d = dense_data();
  const auto cuts = data::BinCuts::build(d.x, 32);
  data::BinnedMatrix binned(d.x, cuts);
  binned.pack();
  data::PagedDataset paged(binned, 64);
  EXPECT_EQ(paged.n_chunks(), 4u);
  EXPECT_EQ(paged.chunk_rows(), 64u);
  EXPECT_EQ(paged.rows_in_chunk(3), 64u);
  EXPECT_EQ(paged.chunk_of_row(0), 0u);
  EXPECT_EQ(paged.chunk_of_row(255), 3u);
  // 64 u8 bins + 16 packed u32 words per tile.
  EXPECT_EQ(paged.block_bytes(0, 0), 64u + 16u * sizeof(std::uint32_t));
  EXPECT_EQ(paged.max_block_bytes(), paged.block_bytes(0, 0));
  EXPECT_EQ(paged.total_bytes(),
            paged.block_bytes(0, 0) * 4u * binned.n_cols());

  // chunk_rows = 0 means one whole-matrix chunk.
  data::PagedDataset whole(binned, 0);
  EXPECT_EQ(whole.n_chunks(), 1u);
  EXPECT_EQ(whole.chunk_rows(), kRows);
}

// --- bitwise equivalence across budgets and threads -------------------------

TEST(OutOfCore, BudgetLadderBitwiseAcrossThreads) {
  const auto d = dense_data();
  const auto in_core = fit(d, cfg_base());
  EXPECT_EQ(in_core.report.page_misses, 0u);
  EXPECT_EQ(in_core.report.phase_seconds.count("page"), 0u);

  auto cfg = cfg_base();
  cfg.stream_chunk_rows = 64;  // 4 uniform tiles per feature
  const auto cuts = data::BinCuts::build(d.x, cfg.max_bins);
  data::BinnedMatrix binned(d.x, cuts);
  binned.pack();
  const auto paged = paging_layout(d, cfg, binned);
  const std::size_t feature_ws = paged.max_block_bytes() * paged.n_chunks();

  // Unbounded cache, half the bin-packed footprint, and the floor: one
  // feature's full working set.
  const std::size_t budgets[] = {0, paged.total_bytes() / 2, feature_ws};
  for (const std::size_t budget : budgets) {
    for (const int threads : {1, 4}) {
      auto c = cfg;
      c.device_budget_bytes = budget;
      c.sim_threads = threads;
      const auto ooc = fit(d, c);
      const std::string what = "budget=" + std::to_string(budget) +
                               " threads=" + std::to_string(threads);
      expect_same_model(in_core.model, ooc.model, what);
      EXPECT_GT(ooc.report.page_misses, 0u) << what;
      EXPECT_GT(ooc.report.page_bytes_transferred, 0u) << what;
      EXPECT_GT(ooc.report.phase_seconds.at("page"), 0.0) << what;
      if (budget != 0) {
        EXPECT_GT(ooc.report.page_evictions, 0u) << what;
      } else {
        EXPECT_EQ(ooc.report.page_evictions, 0u) << what;
      }
    }
  }
}

TEST(OutOfCore, TwoBlockBudgetTrainsBitwise) {
  // The ISSUE's tightest ladder rung: two tiles of cache. With two chunks a
  // feature's pinned working set is exactly two tiles, so this is the
  // smallest budget that can train at all — and it must still be bitwise.
  const auto d = dense_data();
  const auto in_core = fit(d, cfg_base());

  auto cfg = cfg_base();
  cfg.stream_chunk_rows = 128;  // 2 chunks
  const auto cuts = data::BinCuts::build(d.x, cfg.max_bins);
  data::BinnedMatrix binned(d.x, cuts);
  binned.pack();
  const auto paged = paging_layout(d, cfg, binned);
  ASSERT_EQ(paged.n_chunks(), 2u);
  cfg.device_budget_bytes = 2 * paged.max_block_bytes();

  const auto ooc = fit(d, cfg);
  expect_same_model(in_core.model, ooc.model, "two-block budget");
  EXPECT_GT(ooc.report.page_evictions, 0u);
}

TEST(OutOfCore, StreamChunkSizeDoesNotChangeModel) {
  const auto d = dense_data();
  const auto in_core = fit(d, cfg_base());
  for (const int chunk : {1, 17, 64, 256}) {
    auto cfg = cfg_base();
    cfg.stream_chunk_rows = chunk;
    const auto ooc = fit(d, cfg);
    expect_same_model(in_core.model, ooc.model,
                      "chunk=" + std::to_string(chunk));
  }
}

// --- modeled-time monotonicity ----------------------------------------------

TEST(OutOfCore, ModeledTimeMonotoneAsBudgetShrinks) {
  const auto d = dense_data();
  auto cfg = cfg_base();
  cfg.stream_chunk_rows = 64;
  const auto cuts = data::BinCuts::build(d.x, cfg.max_bins);
  data::BinnedMatrix binned(d.x, cuts);
  binned.pack();
  const auto paged = paging_layout(d, cfg, binned);
  const std::size_t feature_ws = paged.max_block_bytes() * paged.n_chunks();

  // Descending budgets (0 = unbounded first). Uniform tile sizes + LRU's
  // stack property => misses, transferred bytes and modeled time are all
  // monotone non-decreasing as the budget shrinks.
  const std::size_t ladder[] = {0, paged.total_bytes(), paged.total_bytes() / 2,
                                paged.total_bytes() / 4, feature_ws};
  double prev_seconds = -1.0;
  std::uint64_t prev_misses = 0;
  std::uint64_t prev_bytes = 0;
  for (const std::size_t budget : ladder) {
    auto c = cfg;
    c.device_budget_bytes = budget;
    const auto ooc = fit(d, c);
    const std::string what = "budget=" + std::to_string(budget);
    EXPECT_GE(ooc.report.page_misses, prev_misses) << what;
    EXPECT_GE(ooc.report.page_bytes_transferred, prev_bytes) << what;
    EXPECT_GE(ooc.report.modeled_seconds, prev_seconds) << what;
    prev_seconds = ooc.report.modeled_seconds;
    prev_misses = ooc.report.page_misses;
    prev_bytes = ooc.report.page_bytes_transferred;
  }
}

// --- hard-fail behaviour ----------------------------------------------------

TEST(OutOfCore, BudgetBelowWorkingSetHardFails) {
  // One tile of budget but four tiles pinned per staged feature: the LRU has
  // nothing evictable left and the cache must refuse, not silently overrun.
  const auto d = dense_data();
  auto cfg = cfg_base();
  cfg.stream_chunk_rows = 64;
  const auto cuts = data::BinCuts::build(d.x, cfg.max_bins);
  data::BinnedMatrix binned(d.x, cuts);
  binned.pack();
  const auto paged = paging_layout(d, cfg, binned);
  cfg.device_budget_bytes = paged.max_block_bytes();

  GbmoBooster booster(cfg);
  EXPECT_THROW(booster.fit(d), sim::DeviceBudgetExceeded);
}

TEST(OutOfCore, BudgetExceptionCarriesLedgerDetail) {
  const auto d = dense_data();
  auto cfg = cfg_base();
  cfg.stream_chunk_rows = 64;
  cfg.device_budget_bytes = 8;  // absurdly small: fails on the first tile
  GbmoBooster booster(cfg);
  try {
    booster.fit(d);
    FAIL() << "expected DeviceBudgetExceeded";
  } catch (const sim::DeviceBudgetExceeded& e) {
    EXPECT_EQ(e.account, data::BlockCache::kLedgerAccount);
    EXPECT_EQ(e.budget, 8u);
    EXPECT_GT(e.requested, e.budget);
  }
}

// A staged tile that would overrun the cache's budget throws before the
// cache books or transfers it: the device's memory, its modeled time and the
// cache's transferred bytes still show only the tiles already resident.
TEST(OutOfCore, BudgetOverrunThrowsBeforeAnythingChanges) {
  const auto d = dense_data();
  const auto cuts = data::BinCuts::build(d.x, 32);
  data::BinnedMatrix binned(d.x, cuts);
  binned.pack();
  const data::PagedDataset paged(binned, 64);
  const std::size_t tile = paged.block_bytes(0, 0);
  sim::Device dev(sim::DeviceSpec::rtx4090());
  data::BlockCache cache(dev, paged, 2 * tile - 1);
  const std::vector<std::uint32_t> first_chunk = {0};
  cache.stage_feature(0, first_chunk);
  const auto allocated = dev.allocated_bytes();
  const auto seconds = dev.modeled_seconds();
  ASSERT_EQ(allocated, tile);

  const std::vector<std::uint32_t> two_chunks = {0, 64};
  try {
    cache.stage_feature(1, two_chunks);  // (1, 0) evicts (0, 0); (1, 1) fails
    FAIL() << "expected DeviceBudgetExceeded";
  } catch (const sim::DeviceBudgetExceeded& e) {
    EXPECT_EQ(e.account, data::BlockCache::kLedgerAccount);
    EXPECT_EQ(e.requested, tile);
    EXPECT_EQ(e.used, tile);
    EXPECT_EQ(e.budget, 2 * tile - 1);
  }
  EXPECT_EQ(dev.allocated_bytes(), allocated);
  EXPECT_EQ(cache.stats().bytes_transferred, 2 * tile);
  EXPECT_GT(dev.modeled_seconds(), seconds);  // (1, 0)'s transfer only
  const auto after = dev.modeled_seconds();
  EXPECT_THROW(cache.stage_feature(1, two_chunks), sim::DeviceBudgetExceeded);
  EXPECT_EQ(dev.allocated_bytes(), allocated);
  EXPECT_EQ(dev.modeled_seconds(), after);
}

// With no budget, the device's capacity still bounds the cache: a tile that
// does not fit throws OutOfDeviceMemory and leaves nothing resident.
TEST(OutOfCore, CacheStillEnforcesDeviceCapacity) {
  const auto d = dense_data();
  const auto cuts = data::BinCuts::build(d.x, 32);
  data::BinnedMatrix binned(d.x, cuts);
  binned.pack();
  const data::PagedDataset paged(binned, 64);
  sim::DeviceSpec spec = sim::DeviceSpec::rtx4090();
  spec.memory_bytes = paged.block_bytes(0, 0) - 1;
  sim::Device dev(spec);
  data::BlockCache cache(dev, paged, 0);
  const std::vector<std::uint32_t> first_chunk = {0};
  EXPECT_THROW(cache.stage_feature(0, first_chunk), sim::OutOfDeviceMemory);
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  EXPECT_EQ(dev.modeled_seconds(), 0.0);
  EXPECT_EQ(cache.stats().bytes_transferred, 0u);
}

// --- GOSS interplay ---------------------------------------------------------

TEST(OutOfCore, GossShrinksPagedTraffic) {
  // GOSS-sampled nodes carry fewer rows, so each histogram build touches
  // fewer tiles; with a tight cache (re-staging every node) that must show up
  // as strictly less transfer traffic.
  const auto d = dense_data();
  auto cfg = cfg_base();
  cfg.stream_chunk_rows = 16;  // fine tiles: row sparsity translates to tiles
  const auto cuts = data::BinCuts::build(d.x, cfg.max_bins);
  data::BinnedMatrix binned(d.x, cuts);
  binned.pack();
  const auto paged = paging_layout(d, cfg, binned);
  cfg.device_budget_bytes = paged.max_block_bytes() * paged.n_chunks();

  const auto full = fit(d, cfg);
  auto goss_cfg = cfg;
  goss_cfg.goss_a = 0.1;
  goss_cfg.goss_b = 0.1;
  const auto goss = fit(d, goss_cfg);
  EXPECT_GT(full.report.page_bytes_transferred, 0u);
  EXPECT_LT(goss.report.page_bytes_transferred,
            full.report.page_bytes_transferred);
}

// --- observability ----------------------------------------------------------

TEST(OutOfCore, TransfersVisibleInProfiler) {
  const auto d = dense_data();
  auto cfg = cfg_base();
  cfg.stream_chunk_rows = 64;
  GbmoBooster booster(cfg);
  obs::Profiler profiler(/*capture_trace=*/false);
  booster.set_sink(&profiler);
  booster.fit(d);
  ASSERT_EQ(profiler.kernels().count("block_h2d"), 1u);
  const auto& prof = profiler.kernels().at("block_h2d");
  EXPECT_EQ(prof.events, booster.report().page_misses);
  EXPECT_EQ(prof.stats.gmem_coalesced_bytes,
            booster.report().page_bytes_transferred);
  EXPECT_GT(prof.seconds, 0.0);
  ASSERT_EQ(prof.phase_seconds.count("page"), 1u);
  EXPECT_DOUBLE_EQ(prof.phase_seconds.at("page"), prof.seconds);
}

// --- fault injection during staging ----------------------------------------

// Named *TransientBitwise* so the chaos ctest label picks it up.
TEST(OutOfCore, StagingTransientBitwise) {
  const auto d = dense_data();
  auto cfg = cfg_base();
  cfg.stream_chunk_rows = 64;
  const auto cuts = data::BinCuts::build(d.x, cfg.max_bins);
  data::BinnedMatrix binned(d.x, cuts);
  binned.pack();
  const auto paged = paging_layout(d, cfg, binned);
  cfg.device_budget_bytes = paged.total_bytes() / 2;

  const auto clean = fit(d, cfg);
  FitResult faulted;
  {
    // Transient faults aimed only at tile transfers; the fault gate redraws
    // and recovers each one, so the model must come out bitwise identical.
    sim::set_sim_faults("transient=0.05;seed=11;kernel=block_h2d;retries=16");
    faulted = fit(d, cfg);
    sim::reset_sim_faults();
  }
  expect_same_model(clean.model, faulted.model, "staging faults");
  // Retried transfers only add modeled backoff time, never lose traffic.
  EXPECT_EQ(clean.report.page_misses, faulted.report.page_misses);
  EXPECT_EQ(clean.report.page_bytes_transferred,
            faulted.report.page_bytes_transferred);
  EXPECT_GE(faulted.report.modeled_seconds, clean.report.modeled_seconds);
}

// A node loss drawn on a tile transfer takes the whole node down, exactly as
// one drawn on a kernel launch does, and training fails over to the other
// node with the clean run's model.
TEST(OutOfCore, NodeKillOnTileTransferFailsOver) {
  const auto d = dense_data();
  auto cfg = cfg_base();
  cfg.n_devices = 4;
  cfg.n_nodes = 2;
  cfg.multi_gpu = MultiGpuMode::kDataParallel;
  cfg.device_budget_bytes = 1 << 20;
  cfg.stream_chunk_rows = 200;
  const auto clean = fit(d, cfg);

  // Device 2's launch ordinal 5 is one of its first tile transfers.
  {
    auto probe = cfg;
    probe.faults = "fail=2@5";
    GbmoBooster booster(probe);
    obs::Profiler profiler(/*capture_trace=*/false);
    booster.set_sink(&profiler);
    booster.fit(d);
    ASSERT_EQ(profiler.kernels().at("block_h2d").stats.faults_injected, 1u);
  }

  cfg.faults = "kill-node=2@5";
  const auto killed = fit(d, cfg);
  EXPECT_EQ(killed.report.devices_lost, 2);
  expect_same_model(clean.model, killed.model, "kill-node on block_h2d");
}

// --- slow sweep -------------------------------------------------------------

// Wider budget x chunk x threads matrix; runs under the "slow" ctest label.
TEST(OutOfCoreSlow, BudgetChunkThreadSweepBitwise) {
  const auto d = dense_data();
  const auto in_core = fit(d, cfg_base());
  for (const int chunk : {32, 64, 128}) {
    auto cfg = cfg_base();
    cfg.stream_chunk_rows = chunk;
    const auto cuts = data::BinCuts::build(d.x, cfg.max_bins);
    data::BinnedMatrix binned(d.x, cuts);
    binned.pack();
    const auto paged = paging_layout(d, cfg, binned);
    const std::size_t feature_ws =
        paged.max_block_bytes() * paged.n_chunks();
    for (const std::size_t budget :
         {std::size_t{0}, paged.total_bytes() / 2, paged.total_bytes() / 4,
          feature_ws}) {
      for (const int threads : {1, 2, 4}) {
        auto c = cfg;
        c.device_budget_bytes = budget;
        c.sim_threads = threads;
        const auto ooc = fit(d, c);
        expect_same_model(in_core.model, ooc.model,
                          "chunk=" + std::to_string(chunk) +
                              " budget=" + std::to_string(budget) +
                              " threads=" + std::to_string(threads));
      }
    }
  }
}

}  // namespace
}  // namespace gbmo::core
