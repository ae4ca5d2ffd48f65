// Chaos suite for the deterministic fault-injection substrate (sim/faults.h)
// and the recovery layers built on it: the launch fault gate's retries,
// device-loss failover, checkpoint/resume, and collective-timeout
// absorption.
//
// The load-bearing property throughout: an armed fault plan may change
// modeled time (the "retry" phase) but never the trained model — every
// comparison against a clean run is exact (bitwise node fields and leaf
// values), at every --sim-threads value and for every histogram strategy.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/system.h"
#include "common/error.h"
#include "core/booster.h"
#include "core/model_io.h"
#include "data/synthetic.h"
#include "obs/profiler.h"
#include "sim/faults.h"
#include "sim/launch.h"
#include "sim/scheduler.h"

namespace gbmo {
namespace {

// RAII process-wide arming; every test that arms directly restores the env
// default on exit so suites can run in any order.
struct ScopedFaults {
  explicit ScopedFaults(const std::string& spec) { sim::set_sim_faults(spec); }
  ~ScopedFaults() { sim::reset_sim_faults(); }
};

struct ScopedThreads {
  explicit ScopedThreads(int n) : prev_(sim::sim_threads()) {
    sim::set_sim_threads(n);
  }
  ~ScopedThreads() { sim::set_sim_threads(prev_); }
  int prev_;
};

data::Dataset make_data(std::uint64_t seed = 7) {
  data::MulticlassSpec spec;
  spec.n_instances = 300;
  spec.n_features = 12;
  spec.n_classes = 4;
  spec.cluster_sep = 1.6;
  spec.seed = seed;
  return data::make_multiclass(spec);
}

core::TrainConfig cfg_base() {
  core::TrainConfig cfg;
  cfg.n_trees = 8;
  cfg.max_depth = 4;
  cfg.learning_rate = 0.5f;
  cfg.min_instances_per_node = 8;
  cfg.max_bins = 32;
  return cfg;
}

// Exact structural equality: same splits, same thresholds, same leaf floats.
void expect_models_identical(const core::Model& a, const core::Model& b) {
  ASSERT_EQ(a.trees.size(), b.trees.size());
  for (std::size_t t = 0; t < a.trees.size(); ++t) {
    ASSERT_EQ(a.trees[t].n_nodes(), b.trees[t].n_nodes()) << "tree " << t;
    for (std::size_t n = 0; n < a.trees[t].n_nodes(); ++n) {
      const auto& na = a.trees[t].node(n);
      const auto& nb = b.trees[t].node(n);
      EXPECT_EQ(na.feature, nb.feature) << "tree " << t << " node " << n;
      EXPECT_EQ(na.split_bin, nb.split_bin) << "tree " << t << " node " << n;
      EXPECT_EQ(na.threshold, nb.threshold) << "tree " << t << " node " << n;
    }
    const auto va = a.trees[t].all_leaf_values();
    const auto vb = b.trees[t].all_leaf_values();
    ASSERT_EQ(va.size(), vb.size()) << "tree " << t;
    EXPECT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(float)), 0)
        << "tree " << t;
  }
}

// Identical modeled phase breakdown except the injected "retry" phase.
void expect_phases_equal_modulo_retry(const core::TrainReport& clean,
                                      const core::TrainReport& faulty) {
  for (const auto& [phase, seconds] : clean.phase_seconds) {
    ASSERT_TRUE(faulty.phase_seconds.count(phase)) << phase;
    EXPECT_DOUBLE_EQ(faulty.phase_seconds.at(phase), seconds) << phase;
  }
  for (const auto& [phase, seconds] : faulty.phase_seconds) {
    if (phase == "retry") continue;
    EXPECT_TRUE(clean.phase_seconds.count(phase)) << phase;
  }
}

// ---------------------------------------------------------------------------
// FaultPlan spec grammar

TEST(FaultPlan, ParseReadsEveryKey) {
  const auto plan = sim::FaultPlan::parse(
      "transient=0.25;timeout=0.5;seed=99;kernel=hist;device=1;"
      "fail=0@7;kill=1@42;retries=5;backoff=1e-5;timeout-cost=2e-4");
  EXPECT_DOUBLE_EQ(plan.transient_rate, 0.25);
  EXPECT_DOUBLE_EQ(plan.timeout_rate, 0.5);
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_EQ(plan.kernel_filter, "hist");
  EXPECT_EQ(plan.device_filter, 1);
  ASSERT_EQ(plan.script.size(), 2u);
  EXPECT_EQ(plan.script[0].device, 0);
  EXPECT_EQ(plan.script[0].launch, 7u);
  EXPECT_EQ(plan.script[0].kind, sim::FaultKind::kTransient);
  EXPECT_EQ(plan.script[1].device, 1);
  EXPECT_EQ(plan.script[1].launch, 42u);
  EXPECT_EQ(plan.script[1].kind, sim::FaultKind::kDeviceLoss);
  EXPECT_EQ(plan.max_retries, 5);
  EXPECT_DOUBLE_EQ(plan.backoff_seconds, 1e-5);
  EXPECT_DOUBLE_EQ(plan.timeout_seconds, 2e-4);
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlan, DisabledSpecs) {
  EXPECT_FALSE(sim::FaultPlan::parse("").enabled());
  EXPECT_FALSE(sim::FaultPlan::parse("0").enabled());
  EXPECT_FALSE(sim::FaultPlan::parse("off").enabled());
}

TEST(FaultPlan, BadSpecThrows) {
  EXPECT_THROW(sim::FaultPlan::parse("bogus=1"), Error);
  EXPECT_THROW(sim::FaultPlan::parse("transient=2.0"), Error);
  EXPECT_THROW(sim::FaultPlan::parse("kill=1"), Error);
  EXPECT_THROW(sim::FaultPlan::parse("fail=-1@3"), Error);
  // Every value must parse whole: no prefix reads, no empty values.
  for (const char* spec :
       {"kill=x@1", "kill=1x@1", "kill=1@5x", "kill=@5", "kill=1@",
        "kill-node=1@x", "transient=abc", "transient=0.1x", "timeout=",
        "seed=12z", "seed=-1", "device=1x", "retries=2x", "backoff=1e-4s",
        "timeout-cost=x"}) {
    EXPECT_THROW(sim::FaultPlan::parse(spec), Error) << spec;
  }
}

// ---------------------------------------------------------------------------
// Substrate-level determinism and retry mechanics

// Which launch ordinals fault is a pure function of (seed, device id,
// ordinal): two fresh devices replay the identical fault sequence. With no
// retries, every drawn fault surfaces as a SimFaultError.
TEST(Faults, DeterministicFiringForFixedSeed) {
  ScopedFaults armed("transient=0.3;seed=42;retries=0");
  const auto run = [] {
    sim::Device dev(sim::DeviceSpec::rtx4090());
    std::vector<int> fired;
    for (int i = 0; i < 64; ++i) {
      try {
        sim::launch(dev, "chaos_probe", 4, 32, [](sim::BlockCtx& blk) {
          blk.threads([](int) {});
        });
      } catch (const sim::SimFaultError&) {
        fired.push_back(i);
      }
    }
    return fired;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_LT(a.size(), 64u);
  EXPECT_EQ(a, b);
}

// The launch redraws a transient fault at entry and charges one backoff per
// retry. Faults target random blocks, yet a faulted attempt runs none of
// them, so every block runs exactly once per launch with nothing restaged.
TEST(Faults, WithRetryRecoversAndChargesBackoff) {
  ScopedFaults armed("transient=0.5;seed=5;retries=20;backoff=1e-4");
  sim::Device dev(sim::DeviceSpec::rtx4090());
  std::vector<int> hits(8 * 32, 0);
  for (int i = 0; i < 16; ++i) {
    sim::launch(dev, "chaos_probe", 8, 32, [&](sim::BlockCtx& blk) {
      blk.threads([&](int tid) { ++hits[blk.block_id() * 32 + tid]; });
    });
  }
  for (int h : hits) EXPECT_EQ(h, 16);
  EXPECT_GT(dev.total_stats().faults_injected, 0u);
  EXPECT_EQ(dev.total_stats().fault_retries,
            dev.total_stats().faults_injected);
  ASSERT_TRUE(dev.phase_seconds().count("retry"));
  EXPECT_GT(dev.phase_seconds().at("retry"), 0.0);
}

TEST(Faults, RetryBudgetExhaustionThrows) {
  ScopedFaults armed("transient=1.0;retries=2");
  sim::Device dev(sim::DeviceSpec::rtx4090());
  EXPECT_THROW(sim::launch(dev, "chaos_probe", 1, 32,
                           [](sim::BlockCtx& blk) { blk.threads([](int) {}); }),
               sim::SimFaultError);
  // Budget of 2 retries after the first failure: 2 charged backoffs (the
  // final, budget-exceeding failure propagates instead of charging).
  EXPECT_EQ(dev.total_stats().faults_injected, 2u);
  EXPECT_EQ(dev.total_stats().fault_retries, 2u);
}

TEST(Faults, DeviceLossIsSticky) {
  ScopedFaults armed("kill=0@1");
  sim::Device dev(sim::DeviceSpec::rtx4090());
  const auto probe = [&] {
    sim::launch(dev, "chaos_probe", 1, 32,
                [](sim::BlockCtx& blk) { blk.threads([](int) {}); });
  };
  probe();  // ordinal 0 survives
  EXPECT_THROW(probe(), sim::SimDeviceLost);
  EXPECT_TRUE(dev.is_lost());
  EXPECT_THROW(probe(), sim::SimDeviceLost);  // every later launch too
}

// ---------------------------------------------------------------------------
// Training under transient faults: bitwise-identical models

class TransientBitwise
    : public ::testing::TestWithParam<std::tuple<core::HistMethod, int>> {};

TEST_P(TransientBitwise, ModelMatchesCleanRun) {
  const auto [method, threads] = GetParam();
  ScopedThreads scoped(threads);
  const auto d = make_data();

  auto cfg = cfg_base();
  cfg.hist_method = method;
  core::GbmoBooster clean(cfg);
  const auto ref = clean.fit(d);

  cfg.faults = "transient=0.08;seed=11";
  core::GbmoBooster faulty(cfg);
  const auto got = faulty.fit(d);

  expect_models_identical(ref, got);
  expect_phases_equal_modulo_retry(clean.report(), faulty.report());
  ASSERT_TRUE(faulty.report().phase_seconds.count("retry"));
  EXPECT_GT(faulty.report().phase_seconds.at("retry"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransientBitwise,
    ::testing::Combine(::testing::Values(core::HistMethod::kAuto,
                                         core::HistMethod::kGlobal,
                                         core::HistMethod::kShared,
                                         core::HistMethod::kSortReduce),
                       ::testing::Values(1, 4)),
    [](const auto& info) {
      std::string name = core::hist_method_name(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_t" + std::to_string(std::get<1>(info.param));
    });

TEST(TrainFaults, CscLevelSweepBitwise) {
  const auto d = make_data();
  auto cfg = cfg_base();
  cfg.csc_level_sweep = true;
  core::GbmoBooster clean(cfg);
  const auto ref = clean.fit(d);

  cfg.faults = "transient=0.08;seed=13";
  core::GbmoBooster faulty(cfg);
  expect_models_identical(ref, faulty.fit(d));
}

TEST(TrainFaults, SubsampledTrainingBitwise) {
  // Retry/redo paths must not consume extra draws from the sampling RNG.
  const auto d = make_data();
  auto cfg = cfg_base();
  cfg.subsample = 0.7;
  cfg.colsample_bytree = 0.8;
  cfg.seed = 5;
  core::GbmoBooster clean(cfg);
  const auto ref = clean.fit(d);

  cfg.faults = "transient=0.1;seed=17";
  core::GbmoBooster faulty(cfg);
  expect_models_identical(ref, faulty.fit(d));
}

TEST(TrainFaults, MultiGpuTransientBitwise) {
  const auto d = make_data();
  auto cfg = cfg_base();
  cfg.n_devices = 2;
  cfg.multi_gpu = core::MultiGpuMode::kFeatureParallel;
  core::GbmoBooster clean(cfg);
  const auto ref = clean.fit(d);

  cfg.faults = "transient=0.05;seed=23";
  core::GbmoBooster faulty(cfg);
  expect_models_identical(ref, faulty.fit(d));
}

TEST(TrainFaults, CollectiveTimeoutsChargeButDontPerturb) {
  const auto d = make_data();
  auto cfg = cfg_base();
  cfg.n_devices = 2;
  cfg.multi_gpu = core::MultiGpuMode::kFeatureParallel;
  core::GbmoBooster clean(cfg);
  const auto ref = clean.fit(d);

  cfg.faults = "timeout=1.0;timeout-cost=1e-4";
  core::GbmoBooster faulty(cfg);
  expect_models_identical(ref, faulty.fit(d));
  ASSERT_TRUE(faulty.report().phase_seconds.count("retry"));
  EXPECT_GT(faulty.report().phase_seconds.at("retry"), 0.0);
  expect_phases_equal_modulo_retry(clean.report(), faulty.report());
}

TEST(TrainFaults, TransientExhaustionPropagatesOutOfFit) {
  const auto d = make_data();
  auto cfg = cfg_base();
  cfg.faults = "transient=1.0;retries=1";
  core::GbmoBooster booster(cfg);
  EXPECT_THROW(booster.fit(d), sim::SimFaultError);
}

// ---------------------------------------------------------------------------
// Device-loss failover (feature-parallel)

TEST(TrainFaults, DeviceLossFailoverMatchesSingleDeviceModel) {
  const auto d = make_data();
  auto single_cfg = cfg_base();
  core::GbmoBooster single(single_cfg);
  const auto ref = single.fit(d);

  auto cfg = cfg_base();
  cfg.n_devices = 2;
  cfg.multi_gpu = core::MultiGpuMode::kFeatureParallel;
  cfg.faults = "kill=1@25";  // mid-training, mid-round
  core::GbmoBooster failover(cfg);
  const auto got = failover.fit(d);

  // After losing device 1 the survivors own the full feature set again, so
  // the finished forest must equal the single-device forest exactly.
  expect_models_identical(ref, got);
  const auto px = ref.predict(d.x);
  const auto py = got.predict(d.x);
  ASSERT_EQ(px.size(), py.size());
  EXPECT_EQ(std::memcmp(px.data(), py.data(), px.size() * sizeof(float)), 0);
}

TEST(TrainFaults, DeviceLossWithNoSurvivorsAborts) {
  const auto d = make_data();
  auto cfg = cfg_base();
  cfg.faults = "kill=0@5";
  core::GbmoBooster booster(cfg);
  EXPECT_THROW(booster.fit(d), Error);
}

TEST(TrainFaults, DataParallelDeviceLossFailsOver) {
  // Row-partitioned failover re-shards rows over the survivors and rewinds
  // to the tree snapshot; since the canonical histogram is built in 1-device
  // accumulation order regardless of the shard layout, the finished forest
  // must equal the single-device forest exactly.
  const auto d = make_data();
  auto single_cfg = cfg_base();
  core::GbmoBooster single(single_cfg);
  const auto ref = single.fit(d);

  auto cfg = cfg_base();
  cfg.n_devices = 2;
  cfg.multi_gpu = core::MultiGpuMode::kDataParallel;
  cfg.faults = "kill=1@25";  // mid-training, mid-round
  core::GbmoBooster failover(cfg);
  const auto got = failover.fit(d);
  expect_models_identical(ref, got);
  const auto px = ref.predict(d.x);
  const auto py = got.predict(d.x);
  ASSERT_EQ(px.size(), py.size());
  EXPECT_EQ(std::memcmp(px.data(), py.data(), px.size() * sizeof(float)), 0);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume

TEST(Checkpoint, ResumeIsBitwiseIdentical) {
  const auto d = make_data();
  const auto valid = make_data(/*seed=*/8);
  const std::string path = ::testing::TempDir() + "gbmo_faults_resume.ckpt";
  std::remove(path.c_str());

  auto cfg = cfg_base();
  cfg.n_trees = 10;
  cfg.subsample = 0.8;  // checkpoints must capture the sampler RNG
  cfg.seed = 3;
  cfg.early_stopping_rounds = 50;  // ... and the early-stopping trackers
  core::GbmoBooster full(cfg);
  const auto ref = full.fit(d, nullptr, &valid);

  // "Kill" after 5 trees: a separate booster only gets that far, leaving a
  // checkpoint behind; the resumed booster must finish the identical model.
  auto part_cfg = cfg;
  part_cfg.n_trees = 5;
  part_cfg.checkpoint_path = path;
  part_cfg.checkpoint_every = 1;
  core::GbmoBooster partial(part_cfg);
  (void)partial.fit(d, nullptr, &valid);

  auto resume_cfg = cfg;
  resume_cfg.checkpoint_path = path;
  resume_cfg.checkpoint_every = 1;
  resume_cfg.resume = true;
  core::GbmoBooster resumed(resume_cfg);
  const auto got = resumed.fit(d, nullptr, &valid);

  expect_models_identical(ref, got);
  EXPECT_EQ(resumed.report().valid_metric_per_tree.size(),
            full.report().valid_metric_per_tree.size());
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeWithMissingFileStartsFresh) {
  const auto d = make_data();
  const std::string path = ::testing::TempDir() + "gbmo_faults_missing.ckpt";
  std::remove(path.c_str());

  auto cfg = cfg_base();
  core::GbmoBooster clean(cfg);
  const auto ref = clean.fit(d);

  cfg.checkpoint_path = path;
  cfg.checkpoint_every = 4;
  cfg.resume = true;  // nothing on disk yet: identical full run
  core::GbmoBooster booster(cfg);
  expect_models_identical(ref, booster.fit(d));
  std::remove(path.c_str());
}

TEST(Checkpoint, CheckpointFileRoundTrips) {
  core::Checkpoint ck;
  ck.trees_completed = 0;
  ck.rng_state = {1, 2, 3, 4};
  ck.scores = {0.5f, -1.25f};
  ck.valid_scores = {2.0f};
  ck.valid_metric_per_tree = {0.125};
  ck.best_valid = 0.0625;
  ck.rounds_since_best = 2;
  ck.best_tree_count = 0;
  ck.model.task = data::TaskKind::kMultiregression;
  ck.model.n_outputs = 2;

  const std::string path = ::testing::TempDir() + "gbmo_faults_rt.ckpt";
  core::save_checkpoint(path, ck);
  const auto back = core::load_checkpoint(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->trees_completed, ck.trees_completed);
  EXPECT_EQ(back->rng_state, ck.rng_state);
  EXPECT_EQ(back->scores, ck.scores);
  EXPECT_EQ(back->valid_scores, ck.valid_scores);
  EXPECT_EQ(back->valid_metric_per_tree, ck.valid_metric_per_tree);
  EXPECT_EQ(back->best_valid, ck.best_valid);
  EXPECT_EQ(back->rounds_since_best, ck.rounds_since_best);
  EXPECT_EQ(back->best_tree_count, ck.best_tree_count);
  EXPECT_FALSE(core::load_checkpoint(path + ".nope").has_value());
  std::remove(path.c_str());
}

// The score and validation counts size nothing before their elements are
// read: a count of 2^40 runs into the end of the input and throws
// gbmo::Error, not std::bad_alloc.
TEST(Checkpoint, RejectsCountsPastTheEndOfTheInput) {
  core::Checkpoint ck;
  ck.rng_state = {1, 2, 3, 4};
  ck.scores = {0.5f, -1.25f};
  ck.valid_scores = {2.0f};
  ck.valid_metric_per_tree = {0.125};
  ck.model.task = data::TaskKind::kMultiregression;
  ck.model.n_outputs = 2;
  std::ostringstream os;
  core::write_checkpoint(os, ck);
  for (const std::string tag : {"scores", "validscores", "validmetrics"}) {
    std::string text = os.str();
    const std::size_t start = text.find("\n" + tag + " ") + tag.size() + 2;
    text.replace(start, text.find_first_of(" \n", start) - start,
                 "1099511627776");
    std::istringstream is(text);
    EXPECT_THROW(core::read_checkpoint(is), Error) << tag;
  }
}

// Every registry system that claims checkpoint support must honour it with
// exact resume equality (the ISSUE's acceptance bar).
TEST(Checkpoint, RegistrySystemsResumeExactly) {
  const auto d = make_data();
  auto base = cfg_base();
  base.n_trees = 6;

  int covered = 0;
  for (const auto& info : registered_systems()) {
    {
      const auto probe = make_system(info.name, base, sim::DeviceSpec::rtx4090());
      if (!probe->supports_checkpoint()) continue;
    }
    ++covered;
    const std::string path =
        ::testing::TempDir() + "gbmo_faults_" + info.name + ".ckpt";
    std::remove(path.c_str());

    auto full = make_system(info.name, base, sim::DeviceSpec::rtx4090());
    full->fit(d);
    const auto ref = full->predict(d.x);

    auto part_cfg = base;
    part_cfg.n_trees = 3;
    part_cfg.checkpoint_path = path;
    part_cfg.checkpoint_every = 1;
    make_system(info.name, part_cfg, sim::DeviceSpec::rtx4090())->fit(d);

    auto resume_cfg = base;
    resume_cfg.checkpoint_path = path;
    resume_cfg.checkpoint_every = 1;
    resume_cfg.resume = true;
    auto resumed = make_system(info.name, resume_cfg, sim::DeviceSpec::rtx4090());
    resumed->fit(d);
    const auto got = resumed->predict(d.x);

    ASSERT_EQ(got.size(), ref.size()) << info.name;
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), got.size() * sizeof(float)),
              0)
        << info.name;
    std::remove(path.c_str());
  }
  EXPECT_GE(covered, 3);  // ours + both cpu-mo flavours at minimum
}

// ---------------------------------------------------------------------------
// Observability

TEST(Faults, ProfilerSeesInjectionAndRetryCounters) {
  const auto d = make_data();
  auto cfg = cfg_base();
  cfg.faults = "transient=0.08;seed=11";
  core::GbmoBooster booster(cfg);
  obs::Profiler profiler(/*capture_trace=*/false);
  booster.set_sink(&profiler);
  (void)booster.fit(d);

  EXPECT_GT(profiler.total_faults_injected(), 0u);
  // Default budget recovered every injection: one backoff per fault.
  EXPECT_EQ(profiler.total_fault_retries(), profiler.total_faults_injected());
}

// Every modeled charge of a faulted fit, as hexfloats: where a retry's
// backoff lands, in which phase, and how many faults and retries the
// profiler counts. A change to the retry loop, its draw order or its phase
// attribution fails here even when the model stays bitwise.
struct PinnedFaultCharges {
  double modeled_seconds;
  std::map<std::string, double> phase_seconds;  // every phase, retry included
  std::uint64_t faults_injected;
  std::uint64_t fault_retries;
};

void expect_fault_charges(const core::TrainConfig& cfg,
                          const PinnedFaultCharges& pin) {
  core::GbmoBooster booster(cfg);
  obs::Profiler profiler(/*capture_trace=*/false);
  booster.set_sink(&profiler);
  (void)booster.fit(make_data());
  const auto& r = booster.report();
  EXPECT_EQ(r.modeled_seconds, pin.modeled_seconds)
      << std::hexfloat << r.modeled_seconds;
  EXPECT_EQ(r.phase_seconds.size(), pin.phase_seconds.size());
  for (const auto& [phase, seconds] : r.phase_seconds) {
    ASSERT_TRUE(pin.phase_seconds.count(phase)) << phase;
    EXPECT_EQ(seconds, pin.phase_seconds.at(phase))
        << phase << " " << std::hexfloat << seconds;
  }
  EXPECT_EQ(profiler.total_faults_injected(), pin.faults_injected);
  EXPECT_EQ(profiler.total_fault_retries(), pin.fault_retries);
}

TEST(Faults, RetryChargesArePinned) {
  struct Case {
    core::HistMethod method;
    PinnedFaultCharges pin;
  };
  const Case cases[] = {
      {core::HistMethod::kAuto,
       {0x1.5a6601c53422bp-9,
        {{"gradient", 0x1.8e7fb30b64e1p-15},
         {"histogram", 0x1.1680eda4cd856p-10},
         {"leaf", 0x1.0123ce067aa5p-15},
         {"partition", 0x1.aa8829e55f6b7p-12},
         {"retry", 0x1.bda5119ce0762p-12},
         {"setup", 0x1.c68aef754f938p-14},
         {"split", 0x1.e9bdc96f3df7cp-12},
         {"update", 0x1.8ea89a95753d7p-14}},
        15, 15}},
      {core::HistMethod::kSortReduce,
       {0x1.8d8e1db1e6937p-8,
        {{"gradient", 0x1.8e7fb30b64e1p-15},
         {"histogram", 0x1.2457ea09ce1f7p-8},
         {"leaf", 0x1.0123ce067aa5p-15},
         {"partition", 0x1.aa8829e55f6b7p-12},
         {"retry", 0x1.d7dbf487fcb95p-12},
         {"setup", 0x1.c68aef754f938p-14},
         {"split", 0x1.e9bdc96f3df7cp-12},
         {"update", 0x1.8ea89a95753d7p-14}},
        16, 16}},
  };
  for (const auto& c : cases) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(core::hist_method_name(c.method)) + " t" +
                   std::to_string(threads));
      ScopedThreads scoped(threads);
      auto cfg = cfg_base();
      cfg.hist_method = c.method;
      cfg.faults = "transient=0.08;seed=11";
      expect_fault_charges(cfg, c.pin);
    }
  }

  SCOPED_TRACE("out-of-core");
  auto cfg = cfg_base();
  cfg.stream_chunk_rows = 64;
  cfg.device_budget_bytes = 2048;
  cfg.faults = "transient=0.3;kernel=block_h2d;retries=10";
  expect_fault_charges(cfg, {0x1.af0c18a10ebacp-4,
                             {{"gradient", 0x1.8e7fb30b64e1p-15},
                              {"histogram", 0x1.1680eda4cd856p-10},
                              {"leaf", 0x1.0123ce067aa5p-15},
                              {"page", 0x1.be696f5778f64p-5},
                              {"partition", 0x1.aa8829e55f6b7p-12},
                              {"retry", 0x1.8e56041893724p-5},
                              {"setup", 0x1.0ed50b225443ep-17},
                              {"split", 0x1.e9bdc96f3df7cp-12},
                              {"update", 0x1.8ea89a95753d7p-14}},
                             1148, 1148});
}

TEST(Faults, KernelFilterConfinesFaultsToMatchingKernels) {
  const auto d = make_data();
  auto cfg = cfg_base();
  cfg.faults = "transient=0.3;kernel=hist;seed=3;retries=10";
  core::GbmoBooster booster(cfg);
  obs::Profiler profiler(/*capture_trace=*/false);
  booster.set_sink(&profiler);
  (void)booster.fit(d);

  ASSERT_GT(profiler.total_faults_injected(), 0u);
  for (const auto& [name, k] : profiler.kernels()) {
    if (k.stats.faults_injected > 0) {
      EXPECT_NE(name.find("hist"), std::string::npos) << name;
    }
  }
}

}  // namespace
}  // namespace gbmo
