// The substrate's race & memory checker (sim/checker.h).
//
// Positive half: every existing kernel — the three dense histogram builders,
// the CSC level sweep, gradient computation/reduction, score updates and
// both predict_trees variants — runs clean under the hard-fail mode, at 1
// and 4 scheduler threads. Negative half: deliberately broken toy kernels
// (missing sync, out-of-bounds, non-atomic contention, barrier divergence,
// uninitialized reads, commit-discipline breaks) must each be flagged with
// the kernel name and the offending site.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/booster.h"
#include "core/predictor.h"
#include "data/synthetic.h"
#include "obs/profiler.h"
#include "sim/checker.h"
#include "sim/launch.h"
#include "sim/scheduler.h"

namespace gbmo {
namespace {

// Arms the checker for one test and restores the process defaults on exit
// (including on assertion failure). Negative tests pin sim_threads to 1:
// their toy kernels are *genuinely* racy host code when blocks run on
// parallel workers; the checker's detection is execution-order-independent,
// so one worker sees the same findings.
struct CheckGuard {
  explicit CheckGuard(sim::CheckMode mode, int threads = 0) {
    sim::CheckReport::instance().clear();
    sim::set_sim_check(mode);
    if (threads > 0) sim::set_sim_threads(threads);
  }
  ~CheckGuard() {
    sim::reset_sim_check();
    sim::set_sim_threads(0);
    sim::CheckReport::instance().clear();
  }
};

core::TrainConfig small_config() {
  core::TrainConfig cfg;
  cfg.n_trees = 3;
  cfg.max_depth = 3;
  cfg.learning_rate = 0.5f;
  cfg.min_instances_per_node = 5;
  cfg.max_bins = 16;
  return cfg;
}

data::Dataset small_data() {
  data::MulticlassSpec spec;
  spec.n_instances = 150;
  spec.n_features = 6;
  spec.n_classes = 3;
  spec.cluster_sep = 2.0;
  return data::make_multiclass(spec);
}

// Trains under CheckMode::kFail (a violation would throw) at 1 and 4
// scheduler threads and asserts a clean report plus bitwise-identical
// predictions between the two.
void expect_clean_training(core::TrainConfig cfg, const std::string& label) {
  std::vector<float> base;
  for (int threads : {1, 4}) {
    CheckGuard guard(sim::CheckMode::kFail, threads);
    const auto d = small_data();
    core::GbmoBooster booster(cfg);
    const auto model = booster.fit(d);
    EXPECT_EQ(sim::CheckReport::instance().total_violations(), 0u)
        << label << " @ " << threads << " threads:\n"
        << sim::CheckReport::instance().summary();
    const auto preds = model.predict(d.x);
    if (threads == 1) {
      base = preds;
    } else {
      ASSERT_EQ(base.size(), preds.size()) << label;
      EXPECT_EQ(std::memcmp(base.data(), preds.data(),
                            base.size() * sizeof(float)),
                0)
          << label << ": predictions differ between 1 and 4 threads";
    }
  }
}

TEST(SimChecker, HistGlobalClean) {
  auto cfg = small_config();
  cfg.hist_method = core::HistMethod::kGlobal;
  expect_clean_training(cfg, "gmem");
}

TEST(SimChecker, HistSharedClean) {
  auto cfg = small_config();
  cfg.hist_method = core::HistMethod::kShared;
  expect_clean_training(cfg, "smem");
}

TEST(SimChecker, HistSortReduceClean) {
  auto cfg = small_config();
  cfg.hist_method = core::HistMethod::kSortReduce;
  expect_clean_training(cfg, "sort-reduce");
}

TEST(SimChecker, CscLevelSweepClean) {
  auto cfg = small_config();
  cfg.csc_level_sweep = true;
  expect_clean_training(cfg, "csc-sweep");
}

TEST(SimChecker, FeatureParallelMultiGpuClean) {
  auto cfg = small_config();
  cfg.n_devices = 2;
  cfg.multi_gpu = core::MultiGpuMode::kFeatureParallel;
  expect_clean_training(cfg, "feature-parallel x2");
}

TEST(SimChecker, PredictTreesCleanBothVariants) {
  core::Model model;
  {
    // Train unchecked; the predict launches are the units under test.
    const auto d = small_data();
    core::GbmoBooster booster(small_config());
    model = booster.fit(d);
  }
  const auto d = small_data();
  std::vector<float> scores(d.x.n_rows() *
                            static_cast<std::size_t>(model.n_outputs));
  for (bool tree_parallel : {false, true}) {
    for (int threads : {1, 4}) {
      CheckGuard guard(sim::CheckMode::kFail, threads);
      sim::Device dev(sim::DeviceSpec::rtx4090());
      core::predict_scores_device(dev, model.trees, d.x, scores,
                                  tree_parallel);
      EXPECT_EQ(sim::CheckReport::instance().total_violations(), 0u)
          << "predict_trees tree_parallel=" << tree_parallel << " @ "
          << threads << " threads:\n"
          << sim::CheckReport::instance().summary();
    }
  }
}

// TrainConfig::sim_check arms report mode, and the per-kernel violation
// counts (zero here) flow to the profiler through the normal charge path.
TEST(SimChecker, ConfigArmsCheckerAndProfilerSeesCounts) {
  CheckGuard guard(sim::CheckMode::kOff);
  sim::reset_sim_check();  // let the config's arming take effect
  auto cfg = small_config();
  cfg.sim_check = true;
  const auto d = small_data();
  core::GbmoBooster booster(cfg);
  obs::Profiler profiler(/*capture_trace=*/false);
  booster.set_sink(&profiler);
  booster.fit(d);
  EXPECT_TRUE(sim::sim_check_enabled());
  EXPECT_EQ(profiler.total_check_violations(), 0u);
  ASSERT_FALSE(profiler.kernels().empty());
  for (const auto& [name, prof] : profiler.kernels()) {
    EXPECT_EQ(prof.stats.check_violations, 0u) << name;
  }
  EXPECT_EQ(sim::CheckReport::instance().summary(),
            "sim-check: clean (0 violations)\n");
}

// --- negative tests: deliberately broken toy kernels ------------------------

// Missing __syncthreads: lanes write their slot and read a neighbour's in
// the same epoch. The fixed variant separates the phases with blk.sync().
void run_neighbor_kernel(bool with_sync) {
  sim::Device dev(sim::DeviceSpec::rtx4090());
  constexpr int kLanes = 8;
  std::vector<float> stage(kLanes, 0.0f);
  float out = 0.0f;
  sim::launch(dev, "toy_missing_sync", 1, kLanes, [&](sim::BlockCtx& blk) {
    auto sv = blk.shared_view(stage, "stage", sim::SharedInit::kZeroed);
    blk.threads([&](int tid) {
      sv.store(static_cast<std::size_t>(tid), static_cast<float>(tid));
    });
    if (with_sync) blk.sync();
    blk.threads([&](int tid) {
      out += sv.load(static_cast<std::size_t>((tid + 1) % kLanes));
    });
  });
}

TEST(SimChecker, MissingSyncFlagged) {
  CheckGuard guard(sim::CheckMode::kReport, /*threads=*/1);
  run_neighbor_kernel(/*with_sync=*/false);
  auto& report = sim::CheckReport::instance();
  EXPECT_GT(report.kernel_violations("toy_missing_sync"), 0u);
  EXPECT_GT(report.kind_violations(sim::ViolationKind::kSharedRace), 0u);
  const auto offenders = report.first_offenders();
  ASSERT_FALSE(offenders.empty());
  EXPECT_EQ(offenders.front().kernel, "toy_missing_sync");
  EXPECT_EQ(offenders.front().site, "stage");
}

TEST(SimChecker, SyncSeparatedPhasesClean) {
  CheckGuard guard(sim::CheckMode::kFail, /*threads=*/1);
  run_neighbor_kernel(/*with_sync=*/true);
  EXPECT_EQ(sim::CheckReport::instance().total_violations(), 0u)
      << sim::CheckReport::instance().summary();
}

TEST(SimChecker, OutOfBoundsFlaggedAndSuppressed) {
  CheckGuard guard(sim::CheckMode::kReport, /*threads=*/1);
  sim::Device dev(sim::DeviceSpec::rtx4090());
  std::vector<float> gmem(16, 0.0f);
  std::vector<float> smem(4, 0.0f);
  float sink = 0.0f;
  sim::launch(dev, "toy_oob", 1, 4, [&](sim::BlockCtx& blk) {
    auto gv = blk.global_view(std::span<float>(gmem), "gbuf");
    auto sv = blk.shared_view(smem, "sbuf", sim::SharedInit::kZeroed);
    gv.store(gmem.size() + 3, 1.0f);   // suppressed, flagged
    sink += gv.load(gmem.size());      // suppressed, flagged, returns 0
    sink += sv.load(smem.size() + 1);  // suppressed, flagged, returns 0
    // Bulk adds straddling the end: in-bounds words add, the rest are
    // suppressed and flagged word by word.
    const auto one = [](std::size_t) { return 1.0f; };
    blk.commit([&] { gv.atomic_add_n(gmem.size() - 1, 3, one); });
    sv.atomic_add_n(smem.size() - 2, 3, one);
  });
  EXPECT_EQ(sink, 0.0f);
  EXPECT_EQ(gmem.back(), 1.0f);
  EXPECT_EQ(smem, (std::vector<float>{0.0f, 0.0f, 1.0f, 1.0f}));
  auto& report = sim::CheckReport::instance();
  EXPECT_EQ(report.kernel_violations("toy_oob"), 6u);
  EXPECT_EQ(report.kind_violations(sim::ViolationKind::kGlobalOob), 4u);
  EXPECT_EQ(report.kind_violations(sim::ViolationKind::kSharedOob), 2u);
  const auto offenders = report.first_offenders();
  ASSERT_FALSE(offenders.empty());
  EXPECT_EQ(offenders.front().site, "gbuf");
  EXPECT_EQ(offenders.front().index, 19u);
}

// Non-atomic contention: every lane read-modify-writes the same shared word.
// The atomic variant is exempt (same-epoch atomic/atomic is serialized on
// hardware); the plain variant races.
void run_contention_kernel(const char* name, bool atomic) {
  sim::Device dev(sim::DeviceSpec::rtx4090());
  std::vector<float> counter(1, 0.0f);
  sim::launch(dev, name, 1, 8, [&](sim::BlockCtx& blk) {
    auto sv = blk.shared_view(counter, "counter", sim::SharedInit::kZeroed);
    blk.threads([&](int) {
      if (atomic) {
        sv.atomic_add(0, 1.0f);
      } else {
        sv.add(0, 1.0f);
      }
    });
  });
}

TEST(SimChecker, NonAtomicContentionFlagged) {
  CheckGuard guard(sim::CheckMode::kReport, /*threads=*/1);
  run_contention_kernel("toy_contention", /*atomic=*/false);
  auto& report = sim::CheckReport::instance();
  EXPECT_GT(report.kernel_violations("toy_contention"), 0u);
  EXPECT_GT(report.kind_violations(sim::ViolationKind::kSharedRace), 0u);
  const auto offenders = report.first_offenders();
  ASSERT_FALSE(offenders.empty());
  EXPECT_EQ(offenders.front().site, "counter");
  EXPECT_EQ(offenders.front().index, 0u);
}

TEST(SimChecker, AtomicContentionExempt) {
  CheckGuard guard(sim::CheckMode::kFail, /*threads=*/1);
  run_contention_kernel("toy_atomic", /*atomic=*/true);
  EXPECT_EQ(sim::CheckReport::instance().total_violations(), 0u)
      << sim::CheckReport::instance().summary();
}

TEST(SimChecker, BarrierDivergenceFlagged) {
  CheckGuard guard(sim::CheckMode::kReport, /*threads=*/1);
  sim::Device dev(sim::DeviceSpec::rtx4090());
  sim::launch(dev, "toy_divergence", 1, 8, [&](sim::BlockCtx& blk) {
    blk.threads([&](int tid) {
      if (tid < 4) blk.sync();  // half the lanes skip the barrier
    });
  });
  auto& report = sim::CheckReport::instance();
  EXPECT_EQ(report.kernel_violations("toy_divergence"), 1u);
  EXPECT_EQ(report.kind_violations(sim::ViolationKind::kBarrierDivergence), 1u);
  const auto offenders = report.first_offenders();
  ASSERT_FALSE(offenders.empty());
  EXPECT_EQ(offenders.front().site, "threads");
}

TEST(SimChecker, UninitializedReadFlagged) {
  CheckGuard guard(sim::CheckMode::kReport, /*threads=*/1);
  sim::Device dev(sim::DeviceSpec::rtx4090());
  std::vector<float> scratch(8, -1.0f);  // backing data exists; the kernel
                                         // never wrote it
  float sink = 0.0f;
  sim::launch(dev, "toy_uninit", 1, 4, [&](sim::BlockCtx& blk) {
    auto sv = blk.shared_view(scratch, "scratch", sim::SharedInit::kUndefined);
    sv.store(0, 2.0f);
    sink += sv.load(0);  // fine: written above
    sink += sv.load(5);  // never written -> flagged
  });
  auto& report = sim::CheckReport::instance();
  EXPECT_EQ(report.kernel_violations("toy_uninit"), 1u);
  EXPECT_EQ(report.kind_violations(sim::ViolationKind::kSharedUninit), 1u);
  const auto offenders = report.first_offenders();
  ASSERT_FALSE(offenders.empty());
  EXPECT_EQ(offenders.front().index, 5u);
}

// Commit discipline: several blocks read-modify-write the same global word
// outside blk.commit() — nondeterministic under the parallel scheduler, so
// the checker flags it; the commit variant is clean.
void run_commit_kernel(const char* name, bool inside_commit) {
  sim::Device dev(sim::DeviceSpec::rtx4090());
  std::vector<float> total(1, 0.0f);
  sim::launch(dev, name, 4, 4, [&](sim::BlockCtx& blk) {
    auto gv = blk.global_view(std::span<float>(total), "total");
    if (inside_commit) {
      blk.commit([&] { gv.atomic_add(0, 1.0f); });
    } else {
      gv.atomic_add(0, 1.0f);
    }
  });
}

TEST(SimChecker, WriteOutsideCommitFlagged) {
  CheckGuard guard(sim::CheckMode::kReport, /*threads=*/1);
  run_commit_kernel("toy_no_commit", /*inside_commit=*/false);
  auto& report = sim::CheckReport::instance();
  EXPECT_EQ(report.kernel_violations("toy_no_commit"), 1u);
  EXPECT_EQ(report.kind_violations(sim::ViolationKind::kGlobalRace), 1u);
  const auto offenders = report.first_offenders();
  ASSERT_FALSE(offenders.empty());
  EXPECT_EQ(offenders.front().site, "total");
}

TEST(SimChecker, WriteInsideCommitClean) {
  CheckGuard guard(sim::CheckMode::kFail, /*threads=*/1);
  run_commit_kernel("toy_commit", /*inside_commit=*/true);
  EXPECT_EQ(sim::CheckReport::instance().total_violations(), 0u)
      << sim::CheckReport::instance().summary();
}

TEST(SimChecker, BlockPartitionedWritesOutsideCommitClean) {
  CheckGuard guard(sim::CheckMode::kFail, /*threads=*/1);
  sim::Device dev(sim::DeviceSpec::rtx4090());
  std::vector<float> out(4, 0.0f);
  sim::launch(dev, "toy_partitioned", 4, 4, [&](sim::BlockCtx& blk) {
    auto gv = blk.global_view(std::span<float>(out), "out");
    // Each block writes only its own word: legal without commit.
    gv.store(static_cast<std::size_t>(blk.block_id()),
             static_cast<float>(blk.block_id()));
  });
  EXPECT_EQ(sim::CheckReport::instance().total_violations(), 0u)
      << sim::CheckReport::instance().summary();
}

TEST(SimChecker, HardFailThrowsWithFirstOffender) {
  CheckGuard guard(sim::CheckMode::kFail, /*threads=*/1);
  sim::Device dev(sim::DeviceSpec::rtx4090());
  std::vector<float> buf(2, 0.0f);
  try {
    sim::launch(dev, "toy_hard_fail", 1, 4, [&](sim::BlockCtx& blk) {
      auto sv = blk.shared_view(buf, "buf", sim::SharedInit::kZeroed);
      blk.threads([&](int) { sv.add(0, 1.0f); });
    });
    FAIL() << "expected SimCheckError";
  } catch (const sim::SimCheckError& e) {
    EXPECT_GT(e.total(), 0u);
    EXPECT_EQ(e.first().kernel, "toy_hard_fail");
    EXPECT_EQ(e.first().site, "buf");
    EXPECT_NE(std::string(e.what()).find("toy_hard_fail"), std::string::npos);
  }
  // The stats were charged before the throw, so the device still carries
  // the violation count.
  EXPECT_GT(dev.check_violations(), 0u);
}

// Checker output is scheduler-independent: out-of-bounds findings (safe to
// produce from concurrent blocks — the access is suppressed) reported at 1
// and 4 workers yield the identical summary.
TEST(SimChecker, ReportIdenticalAcrossThreadCounts) {
  std::string base;
  for (int threads : {1, 4}) {
    CheckGuard guard(sim::CheckMode::kReport, threads);
    sim::Device dev(sim::DeviceSpec::rtx4090());
    std::vector<float> buf(8, 0.0f);
    std::vector<float> sink(16, 0.0f);  // per-block slot: blocks run on
                                        // parallel workers here
    sim::launch(dev, "toy_oob_parallel", 16, 4, [&](sim::BlockCtx& blk) {
      auto gv = blk.global_view(std::span<float>(buf), "buf");
      // Every block makes one out-of-bounds load (suppressed, returns 0).
      sink[static_cast<std::size_t>(blk.block_id())] =
          gv.load(buf.size() + static_cast<std::size_t>(blk.block_id()));
    });
    const auto summary = sim::CheckReport::instance().summary();
    EXPECT_EQ(sim::CheckReport::instance().total_violations(), 16u)
        << "@ " << threads << " threads";
    if (threads == 1) {
      base = summary;
    } else {
      EXPECT_EQ(base, summary) << "checker output depends on worker count";
    }
  }
}

// GBMO_SIM_CHECK value parsing (the cached default itself is process-wide;
// the parser is exercised directly).
TEST(SimChecker, EnvParsing) {
  EXPECT_EQ(sim::parse_check_env(nullptr), sim::CheckMode::kOff);
  EXPECT_EQ(sim::parse_check_env(""), sim::CheckMode::kOff);
  EXPECT_EQ(sim::parse_check_env("0"), sim::CheckMode::kOff);
  EXPECT_EQ(sim::parse_check_env("off"), sim::CheckMode::kOff);
  EXPECT_EQ(sim::parse_check_env("1"), sim::CheckMode::kReport);
  EXPECT_EQ(sim::parse_check_env("on"), sim::CheckMode::kReport);
  EXPECT_EQ(sim::parse_check_env("report"), sim::CheckMode::kReport);
  EXPECT_EQ(sim::parse_check_env("2"), sim::CheckMode::kFail);
  EXPECT_EQ(sim::parse_check_env("fail"), sim::CheckMode::kFail);
  EXPECT_EQ(sim::parse_check_env("bogus"), sim::CheckMode::kOff);
}

}  // namespace
}  // namespace gbmo
