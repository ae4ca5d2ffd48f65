// Determinism of the parallel block scheduler (sim/scheduler.h, sim/launch.h):
// training the same configuration at 1, 2 and 4 scheduler threads must produce
// bit-identical models, identical modeled seconds and an identical per-kernel
// profiler table — for every histogram strategy, the CSC level sweep and the
// multi-GPU feature-parallel path. Also covers the launch-level scheduling
// contract directly (ordered launches inline in block order, commit-free ones
// fanned out, lowest-block exception), and that a fit's scheduler width does
// not outlive the fit.
#include <chrono>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/booster.h"
#include "data/synthetic.h"
#include "obs/profiler.h"
#include "sim/faults.h"
#include "sim/launch.h"
#include "sim/scheduler.h"
#include "sim/sink.h"

namespace gbmo {
namespace {

// Restores the process-default scheduler thread count when a test exits,
// including on assertion failure.
struct SimThreadsGuard {
  ~SimThreadsGuard() { sim::set_sim_threads(0); }
};

core::TrainConfig small_config() {
  core::TrainConfig cfg;
  cfg.n_trees = 5;
  cfg.max_depth = 4;
  cfg.learning_rate = 0.5f;
  cfg.min_instances_per_node = 5;
  cfg.max_bins = 32;
  return cfg;
}

data::Dataset make_data() {
  data::MulticlassSpec spec;
  spec.n_instances = 300;
  spec.n_features = 10;
  spec.n_classes = 4;
  spec.cluster_sep = 2.0;
  return data::make_multiclass(spec);
}

struct RunResult {
  std::vector<float> predictions;
  double modeled_seconds = 0.0;
  std::map<std::string, obs::KernelProfile> kernels;
};

RunResult run_once(const core::TrainConfig& cfg, int threads) {
  sim::set_sim_threads(threads);
  const auto d = make_data();
  core::GbmoBooster booster(cfg);
  obs::Profiler profiler(/*capture_trace=*/false);
  booster.set_sink(&profiler);
  const auto model = booster.fit(d);
  RunResult r;
  r.predictions = model.predict(d.x);
  r.modeled_seconds = booster.report().modeled_seconds;
  r.kernels = profiler.kernels();
  return r;
}

void expect_stats_equal(const sim::KernelStats& a, const sim::KernelStats& b,
                        const std::string& where) {
  EXPECT_EQ(a.gmem_coalesced_bytes, b.gmem_coalesced_bytes) << where;
  EXPECT_EQ(a.gmem_random_accesses, b.gmem_random_accesses) << where;
  EXPECT_EQ(a.atomic_global_ops, b.atomic_global_ops) << where;
  EXPECT_EQ(a.atomic_global_conflicts, b.atomic_global_conflicts) << where;
  EXPECT_EQ(a.atomic_shared_ops, b.atomic_shared_ops) << where;
  EXPECT_EQ(a.atomic_shared_conflicts, b.atomic_shared_conflicts) << where;
  EXPECT_EQ(a.smem_bytes, b.smem_bytes) << where;
  EXPECT_EQ(a.flops, b.flops) << where;
  EXPECT_EQ(a.blocks, b.blocks) << where;
  EXPECT_EQ(a.threads, b.threads) << where;
  EXPECT_EQ(a.barriers, b.barriers) << where;
  EXPECT_EQ(a.sort_pairs_bytes, b.sort_pairs_bytes) << where;
  EXPECT_EQ(a.scan_bytes, b.scan_bytes) << where;
  EXPECT_EQ(a.check_violations, b.check_violations) << where;
}

// Bitwise comparison: EXPECT_EQ on floats would already be exact, but memcmp
// additionally distinguishes -0.0f/0.0f and catches NaN payload changes.
void expect_runs_identical(const RunResult& base, const RunResult& other,
                           const std::string& label) {
  ASSERT_EQ(base.predictions.size(), other.predictions.size()) << label;
  EXPECT_EQ(std::memcmp(base.predictions.data(), other.predictions.data(),
                        base.predictions.size() * sizeof(float)),
            0)
      << label << ": predictions differ bitwise";
  EXPECT_EQ(base.modeled_seconds, other.modeled_seconds) << label;

  ASSERT_EQ(base.kernels.size(), other.kernels.size()) << label;
  for (const auto& [name, prof] : base.kernels) {
    const auto it = other.kernels.find(name);
    ASSERT_NE(it, other.kernels.end()) << label << ": kernel " << name;
    EXPECT_EQ(prof.events, it->second.events) << label << ": " << name;
    EXPECT_EQ(prof.seconds, it->second.seconds) << label << ": " << name;
    expect_stats_equal(prof.stats, it->second.stats, label + ": " + name);
  }
}

void check_config(core::TrainConfig cfg, const std::string& label) {
  SimThreadsGuard guard;
  const auto base = run_once(cfg, 1);
  for (int threads : {2, 4}) {
    const auto other = run_once(cfg, threads);
    expect_runs_identical(base, other,
                          label + " @ " + std::to_string(threads) + " threads");
  }
}

TEST(SimParallel, GlobalHistDeterministic) {
  auto cfg = small_config();
  cfg.hist_method = core::HistMethod::kGlobal;
  check_config(cfg, "gmem");
}

TEST(SimParallel, SharedHistDeterministic) {
  auto cfg = small_config();
  cfg.hist_method = core::HistMethod::kShared;
  check_config(cfg, "smem");
}

TEST(SimParallel, SortReduceHistDeterministic) {
  auto cfg = small_config();
  cfg.hist_method = core::HistMethod::kSortReduce;
  check_config(cfg, "sort-reduce");
}

TEST(SimParallel, AdaptiveHistDeterministic) {
  auto cfg = small_config();
  cfg.hist_method = core::HistMethod::kAuto;
  check_config(cfg, "adaptive");
}

TEST(SimParallel, CscLevelSweepDeterministic) {
  auto cfg = small_config();
  cfg.csc_level_sweep = true;
  check_config(cfg, "csc-sweep");
}

TEST(SimParallel, FeatureParallelMultiGpuDeterministic) {
  auto cfg = small_config();
  cfg.n_devices = 2;
  cfg.multi_gpu = core::MultiGpuMode::kFeatureParallel;
  check_config(cfg, "feature-parallel x2");
}

// Launch-level scheduling contract at 4 workers. A launch whose block 0
// commits is ordered: every block runs on the calling thread in block-id
// order, so a deliberately order-sensitive floating-point accumulation is
// bit-identical to the 1-worker run — and so are the merged counters.
TEST(SimParallel, OrderedLaunchRunsInlineInBlockOrder) {
  SimThreadsGuard guard;
  constexpr int kGrid = 64;

  struct Run {
    float total = 0.0f;
    sim::KernelStats stats;
    std::vector<int> order;
    std::vector<std::thread::id> thread_of_block;
  };
  const auto run = [&](int threads) {
    sim::set_sim_threads(threads);
    sim::Device dev(sim::DeviceSpec::rtx4090());
    Run r;
    r.thread_of_block.resize(kGrid);
    r.stats = sim::launch(dev, "ordered_sum", kGrid, /*block_dim=*/32,
                          [&](sim::BlockCtx& blk) {
                // Written without a lock: ordered blocks never overlap.
                r.thread_of_block[static_cast<std::size_t>(blk.block_id())] =
                    std::this_thread::get_id();
                // Mix of magnitudes so any reordering of the adds changes
                // the rounding.
                const float contrib =
                    (blk.block_id() % 2 == 0 ? 1.0e-4f : 3.0e3f) *
                    (1.0f + static_cast<float>(blk.block_id()) * 0.37f);
                blk.stats().flops += 2;
                blk.commit([&] {
                  r.total += contrib;
                  r.order.push_back(blk.block_id());
                });
              }).stats;
    return r;
  };

  const Run base = run(1);
  const Run par = run(4);
  EXPECT_EQ(std::memcmp(&base.total, &par.total, sizeof(float)), 0)
      << "commit accumulation reordered: " << base.total << " vs " << par.total;
  expect_stats_equal(base.stats, par.stats, "launch stats");
  std::vector<int> ids(kGrid);
  std::iota(ids.begin(), ids.end(), 0);
  EXPECT_EQ(par.order, ids);
  for (int b = 0; b < kGrid; ++b) {
    EXPECT_EQ(par.thread_of_block[static_cast<std::size_t>(b)],
              std::this_thread::get_id())
        << "ordered block " << b << " left the calling thread";
  }
}

// A launch whose block 0 does not commit is commit-free: its blocks fan out
// over the scheduler's workers, each block writing only its own words.
TEST(SimParallel, CommitFreeLaunchFansOut) {
  SimThreadsGuard guard;
  sim::set_sim_threads(4);
  constexpr int kGrid = 16;
  sim::Device dev(sim::DeviceSpec::rtx4090());
  std::vector<std::thread::id> thread_of_block(kGrid);
  sim::launch(dev, "fan_out", kGrid, /*block_dim=*/32, [&](sim::BlockCtx& blk) {
    // Heavy enough that a grain policy would still fan it out.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    thread_of_block[static_cast<std::size_t>(blk.block_id())] =
        std::this_thread::get_id();
  });
  EXPECT_EQ(thread_of_block[0], std::this_thread::get_id());
  const std::set<std::thread::id> distinct(thread_of_block.begin(),
                                           thread_of_block.end());
  EXPECT_GT(distinct.size(), 1u);
}

// Committing is all-or-nothing per launch: a commit from a block of a
// commit-free launch is a contract violation at any worker count.
TEST(SimParallel, CommitFromFannedOutBlockFails) {
  SimThreadsGuard guard;
  for (int threads : {1, 4}) {
    sim::set_sim_threads(threads);
    sim::Device dev(sim::DeviceSpec::rtx4090());
    float total = 0.0f;
    EXPECT_THROW(
        sim::launch(dev, "late_commit", /*grid_dim=*/16, /*block_dim=*/8,
                    [&](sim::BlockCtx& blk) {
                      if (blk.block_id() == 3) blk.commit([&] { total += 1.0f; });
                    }),
        Error)
        << threads << " threads";
    EXPECT_EQ(total, 0.0f) << threads << " threads";
  }
}

// TrainConfig::sim_threads holds for its own fit only: the previous width
// comes back when fit() returns or throws, so a booster configured for one
// thread does not serialize later fits or compiled-engine batches.
TEST(SimParallel, FitScopesSchedulerWidth) {
  SimThreadsGuard guard;
  struct WidthProbe : sim::StatsSink {
    int width = 0;
    void on_event(const sim::KernelEvent&) override {
      width = sim::sim_threads();
    }
    void on_span_begin(const std::string&, double) override {}
    void on_span_end(double) override {}
  };
  const auto d = make_data();
  auto cfg = small_config();
  cfg.n_trees = 1;
  cfg.sim_threads = 1;

  sim::set_sim_threads(3);
  WidthProbe probe;
  core::GbmoBooster booster(cfg);
  booster.set_sink(&probe);
  booster.fit(d);
  EXPECT_EQ(probe.width, 1) << "the config's width applies during the fit";
  EXPECT_EQ(sim::sim_threads(), 3);

  sim::set_sim_threads(0);
  core::GbmoBooster(cfg).fit(d);
  EXPECT_EQ(sim::sim_threads(), sim::default_sim_threads());

  cfg.faults = "transient=1.0;retries=1";
  sim::set_sim_threads(3);
  EXPECT_THROW(core::GbmoBooster(cfg).fit(d), sim::SimFaultError);
  EXPECT_EQ(sim::sim_threads(), 3);
}

// The exception of the lowest failing block id wins, deterministically, in
// ordered and commit-free launches alike — including when block 0 fails.
TEST(SimParallel, LaunchPropagatesKernelException) {
  SimThreadsGuard guard;
  sim::set_sim_threads(4);
  sim::Device dev(sim::DeviceSpec::rtx4090());
  const auto expect_failure = [&](bool ordered, std::vector<int> failing,
                                  const char* expected) {
    try {
      sim::launch(dev, "failing_blocks", /*grid_dim=*/32, /*block_dim=*/8,
                  [&](sim::BlockCtx& blk) {
                    if (ordered) blk.commit([] {});
                    for (int b : failing) {
                      if (blk.block_id() == b) {
                        throw std::runtime_error("block " + std::to_string(b));
                      }
                    }
                  });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), expected) << (ordered ? "ordered" : "commit-free");
    }
  };
  for (bool ordered : {false, true}) {
    expect_failure(ordered, {5}, "block 5");
    expect_failure(ordered, {29, 17, 5, 6}, "block 5");
    expect_failure(ordered, {0, 3}, "block 0");
  }
  // The scheduler is reusable after a failed launch.
  sim::launch(dev, "empty", 8, 8, [](sim::BlockCtx&) {});
}

}  // namespace
}  // namespace gbmo
