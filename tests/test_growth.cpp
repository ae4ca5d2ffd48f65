// Growth policies & sampling (DESIGN.md §11): leaf-wise determinism and leaf
// budgets, exclusive feature bundling round-trips and training equivalence,
// GOSS selection, histogram-pool budget fallback, and config validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "cli.h"
#include "common/error.h"
#include "core/booster.h"
#include "core/histogram.h"
#include "data/bundling.h"
#include "data/quantize.h"
#include "data/synthetic.h"
#include "obs/profiler.h"

namespace gbmo::core {
namespace {

data::Dataset sparse_data(std::uint64_t seed = 11) {
  data::MultilabelSpec spec;
  spec.n_instances = 400;
  spec.n_features = 30;
  spec.n_outputs = 6;
  spec.sparsity = 0.85;  // bag-of-words-like: most entries exactly zero
  spec.seed = seed;
  return data::make_multilabel(spec);
}

data::Dataset dense_data(std::uint64_t seed = 7) {
  data::MulticlassSpec spec;
  spec.n_instances = 500;
  spec.n_features = 14;
  spec.n_classes = 6;
  spec.cluster_sep = 1.8;
  spec.seed = seed;
  return data::make_multiclass(spec);
}

TrainConfig cfg_base() {
  TrainConfig cfg;
  cfg.n_trees = 6;
  cfg.max_depth = 5;
  cfg.learning_rate = 0.4f;
  cfg.min_instances_per_node = 4;
  cfg.max_bins = 32;
  return cfg;
}

void expect_same_model(const Model& a, const Model& b, const char* what) {
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
    // Bitwise: the determinism guarantee is exact, not approximate.
    EXPECT_EQ(std::memcmp(av.data(), bv.data(), av.size() * sizeof(float)), 0)
        << what << " tree " << t << " leaf values differ";
  }
}

// --- leaf-wise growth -------------------------------------------------------

TEST(LeafWise, RespectsLeafBudgetAndTrains) {
  const auto d = dense_data();
  auto cfg = cfg_base();
  cfg.growth = GrowthPolicy::kLeafWise;
  cfg.max_leaves = 12;
  cfg.max_depth = 20;  // leaf budget, not depth, is the binding constraint
  GbmoBooster booster(cfg);
  const auto model = booster.fit(d);
  ASSERT_EQ(model.trees.size(), static_cast<std::size_t>(cfg.n_trees));
  for (const auto& tree : model.trees) {
    EXPECT_LE(tree.n_leaves(), 12u);
    EXPECT_GE(tree.n_leaves(), 2u);  // the data is splittable
  }
  // The learned function is sane.
  const auto acc = accuracy(model.predict(d.x), d.y);
  EXPECT_GT(acc, 0.5);
}

TEST(LeafWise, UnboundedMatchesDepthLimit) {
  // With no leaf budget, leaf-wise must still respect max_depth.
  const auto d = dense_data();
  auto cfg = cfg_base();
  cfg.growth = GrowthPolicy::kLeafWise;
  cfg.max_leaves = 0;
  cfg.max_depth = 3;
  GbmoBooster booster(cfg);
  const auto model = booster.fit(d);
  for (const auto& tree : model.trees) {
    EXPECT_LE(tree.n_leaves(), 8u);  // 2^3
  }
}

TEST(LeafWise, BitwiseDeterministicAcrossSimThreads) {
  const auto d = dense_data();
  Model ref;
  for (const int threads : {1, 2, 4}) {
    auto cfg = cfg_base();
    cfg.growth = GrowthPolicy::kLeafWise;
    cfg.max_leaves = 15;
    cfg.sim_threads = threads;
    GbmoBooster booster(cfg);
    auto model = booster.fit(d);
    if (threads == 1) {
      ref = std::move(model);
    } else {
      expect_same_model(ref, model, "sim-threads");
    }
  }
}

TEST(LeafWise, FeatureParallelMatchesSingleDevice) {
  const auto d = dense_data();
  auto cfg = cfg_base();
  cfg.growth = GrowthPolicy::kLeafWise;
  cfg.max_leaves = 15;
  GbmoBooster single(cfg);
  const auto ref = single.fit(d);

  cfg.n_devices = 3;
  cfg.multi_gpu = MultiGpuMode::kFeatureParallel;
  GbmoBooster multi(cfg);
  const auto got = multi.fit(d);
  // Column partitioning does not change per-feature accumulation order.
  expect_same_model(ref, got, "feature-parallel");
  EXPECT_GT(multi.report().modeled_seconds, 0.0);
}

TEST(LevelWise, MaxLeavesTrimsTopGainSplits) {
  const auto d = dense_data();
  auto cfg = cfg_base();
  cfg.max_leaves = 8;
  cfg.max_depth = 10;
  GbmoBooster booster(cfg);
  const auto model = booster.fit(d);
  for (const auto& tree : model.trees) {
    EXPECT_LE(tree.n_leaves(), 8u);
  }
}

// --- exclusive feature bundling ---------------------------------------------

// Sibling subtraction runs in place: the larger child takes its parent's
// histogram, so the host allocates one histogram per active node of the
// widest level (of any tree: the free list carries buffers across trees).
// The modeled device frees a level only after the next level's split
// search, so its peak is the widest level plus its parent level.
TEST(LevelWise, HostHoldsOneHistogramPerActiveNode) {
  const auto d = dense_data();
  const auto cfg = cfg_base();
  GbmoBooster booster(cfg);
  const auto model = booster.fit(d);

  // A node is active (gets a histogram) when it sits above max_depth and
  // has rows enough for two children. Children are numbered after their
  // parents, so one pass in id order knows every node's depth.
  std::size_t widest = 0;
  const auto min_rows = 2 * static_cast<std::uint32_t>(cfg.min_instances_per_node);
  for (const Tree& tree : model.trees) {
    std::vector<int> depth(tree.n_nodes(), 0);
    std::vector<std::size_t> active(static_cast<std::size_t>(cfg.max_depth), 0);
    for (std::size_t id = 0; id < tree.n_nodes(); ++id) {
      const TreeNode& n = tree.node(id);
      if (!n.is_leaf()) {
        depth[static_cast<std::size_t>(n.left)] = depth[id] + 1;
        depth[static_cast<std::size_t>(n.right)] = depth[id] + 1;
      }
      if (depth[id] < cfg.max_depth && n.n_instances >= min_rows) {
        ++active[static_cast<std::size_t>(depth[id])];
      }
    }
    widest = std::max(widest, *std::max_element(active.begin(), active.end()));
  }
  ASSERT_GE(widest, 4u) << "trees too narrow for the premise of this test";

  const TrainReport& report = booster.report();
  const std::size_t hist_bytes =
      HistogramLayout(model.cuts, model.n_outputs).byte_size();
  EXPECT_EQ(report.peak_host_hist_bytes, widest * hist_bytes);
  EXPECT_LT(report.peak_host_hist_bytes, report.peak_device_bytes);
  EXPECT_EQ(report.peak_device_bytes, 364848u);  // in-place subtraction keeps it
}

TEST(Efb, PlanPartitionsFeaturesExclusively) {
  const auto ds = sparse_data();
  const auto cuts = data::BinCuts::build(ds.x, 32);
  const data::BinnedMatrix bins(ds.x, cuts);
  const auto plan = data::FeatureBundling::plan(bins, cuts);

  // Every feature lands in exactly one bundle, at a consistent member index.
  ASSERT_EQ(plan.bundle_of_feature.size(), bins.n_cols());
  std::set<std::uint32_t> seen;
  for (std::uint32_t bi = 0; bi < plan.bundles.size(); ++bi) {
    const auto& b = plan.bundles[bi];
    ASSERT_EQ(b.features.size(), b.bin_starts.size());
    ASSERT_LE(b.n_bins, 256);
    for (std::size_t j = 0; j < b.features.size(); ++j) {
      const std::uint32_t f = b.features[j];
      EXPECT_TRUE(seen.insert(f).second) << "feature " << f << " in 2 bundles";
      EXPECT_EQ(plan.bundle_of_feature[f], bi);
      EXPECT_EQ(plan.member_index[f], j);
    }
  }
  EXPECT_EQ(seen.size(), bins.n_cols());
  // Sparse bag-of-words features must actually merge (the point of EFB).
  EXPECT_GT(plan.n_merged(), 0u);

  // Mutual exclusivity on the actual data: within a bundle, at most one
  // member per row is away from its default bin.
  for (const auto& b : plan.bundles) {
    for (std::size_t r = 0; r < bins.n_rows(); ++r) {
      int nondefault = 0;
      for (std::uint32_t f : b.features) {
        if (bins.bin(r, f) != cuts.bin_for(f, 0.0f)) ++nondefault;
      }
      EXPECT_LE(nondefault, 1);
    }
  }
}

TEST(Efb, BundledMatrixRoundTripsEveryBin) {
  const auto ds = sparse_data(23);
  const auto cuts = data::BinCuts::build(ds.x, 32);
  const data::BinnedMatrix bins(ds.x, cuts);
  const auto plan = data::FeatureBundling::plan(bins, cuts);
  const auto bundled = data::build_bundled_matrix(bins, cuts, plan);
  ASSERT_EQ(bundled.n_cols(), plan.bundles.size());
  ASSERT_EQ(bundled.n_rows(), bins.n_rows());

  // Decode every (row, feature) from the bundled bin and compare with the
  // original: bundled 0 = default; start + local with local skipping the
  // member's zero bin.
  for (std::uint32_t bi = 0; bi < plan.bundles.size(); ++bi) {
    const auto& b = plan.bundles[bi];
    for (std::size_t r = 0; r < bins.n_rows(); ++r) {
      const int v = bundled.bin(r, bi);
      for (std::size_t j = 0; j < b.features.size(); ++j) {
        const std::uint32_t f = b.features[j];
        const int zb = cuts.bin_for(f, 0.0f);
        const int start = b.bin_starts[j];
        const int n_local = cuts.n_bins(f) - 1;
        int decoded = zb;  // default unless this member owns the bundled bin
        if (v >= start && v < start + n_local) {
          const int local = v - start;
          decoded = local < zb ? local : local + 1;
        }
        ASSERT_EQ(decoded, bins.bin(r, f))
            << "row " << r << " feature " << f << " bundle " << bi;
      }
    }
  }
}

TEST(Efb, TrainingIsBitwiseIdenticalToUnbundled) {
  const auto d = sparse_data(31);
  auto cfg = cfg_base();
  cfg.n_trees = 5;
  GbmoBooster plain(cfg);
  const auto ref = plain.fit(d);

  cfg.efb = true;
  obs::Profiler profiler(/*capture_trace=*/false);
  GbmoBooster bundled_b(cfg);
  bundled_b.set_sink(&profiler);
  const auto got = bundled_b.fit(d);

  // Same addends in the same order per histogram slot: identical trees.
  expect_same_model(ref, got, "efb");
  // And the bundled path actually ran.
  EXPECT_GT(profiler.kernels().count("efb_expand"), 0u);
}

TEST(Efb, WorksWithLeafWiseAndColsample) {
  const auto d = sparse_data(47);
  auto cfg = cfg_base();
  cfg.efb = true;
  cfg.growth = GrowthPolicy::kLeafWise;
  cfg.max_leaves = 10;
  cfg.colsample_bytree = 0.6;
  cfg.seed = 5;
  GbmoBooster booster(cfg);
  const auto model = booster.fit(d);
  ASSERT_EQ(model.trees.size(), static_cast<std::size_t>(cfg.n_trees));
  // Splits decode to original feature ids, never bundle ids.
  for (const auto& tree : model.trees) {
    for (std::size_t n = 0; n < tree.n_nodes(); ++n) {
      const auto f = tree.node(n).feature;
      if (f >= 0) {
        EXPECT_LT(static_cast<std::size_t>(f), d.x.n_cols());
      }
    }
  }
  for (const float s : model.predict(d.x)) EXPECT_TRUE(std::isfinite(s));
}

// --- GOSS -------------------------------------------------------------------

TEST(Goss, TrainsAndChargesSelectionKernels) {
  const auto d = dense_data();
  auto cfg = cfg_base();
  cfg.goss_a = 0.3;
  cfg.goss_b = 0.3;
  obs::Profiler profiler(/*capture_trace=*/false);
  GbmoBooster booster(cfg);
  booster.set_sink(&profiler);
  const auto model = booster.fit(d);
  ASSERT_EQ(model.trees.size(), static_cast<std::size_t>(cfg.n_trees));
  EXPECT_GT(profiler.kernels().count("goss_grad_norms"), 0u);
  EXPECT_GT(profiler.kernels().count("goss_topk"), 0u);
  EXPECT_GT(profiler.kernels().count("goss_amplify"), 0u);
  // Unselected rows are routed by traversal so score updates cover all rows.
  EXPECT_GT(profiler.kernels().count("route_unsampled"), 0u);
  const auto acc = accuracy(model.predict(d.x), d.y);
  EXPECT_GT(acc, 0.5);
}

TEST(Goss, BitwiseDeterministicAcrossSimThreads) {
  const auto d = dense_data(9);
  Model ref;
  for (const int threads : {1, 4}) {
    auto cfg = cfg_base();
    cfg.goss_a = 0.2;
    cfg.goss_b = 0.2;
    cfg.sim_threads = threads;
    cfg.seed = 13;
    GbmoBooster booster(cfg);
    auto model = booster.fit(d);
    if (threads == 1) {
      ref = std::move(model);
    } else {
      expect_same_model(ref, model, "goss sim-threads");
    }
  }
}

// --- histogram pool budget --------------------------------------------------

class HistBudget : public ::testing::TestWithParam<GrowthPolicy> {};

TEST_P(HistBudget, TinyBudgetForcesSubtractionFreeFallback) {
  // A layout bigger than 1 MB: 100 dense features x 128 bins x 10 outputs
  // is ~1.07 MB of GradPair sums per node histogram.
  data::MultiregressionSpec spec;
  spec.n_instances = 400;
  spec.n_features = 100;
  spec.n_outputs = 10;
  spec.seed = 3;
  const auto d = data::make_multiregression(spec);

  auto cfg = cfg_base();
  cfg.n_trees = 2;
  cfg.max_bins = 128;
  cfg.growth = GetParam();
  if (GetParam() == GrowthPolicy::kLeafWise) cfg.max_leaves = 12;

  // Default budget: sibling subtraction fires.
  obs::Profiler with_pool(false);
  GbmoBooster roomy(cfg);
  roomy.set_sink(&with_pool);
  const auto ref = roomy.fit(d);
  EXPECT_GT(with_pool.kernels().count("hist_subtract"), 0u)
      << "layout too small for the premise of this test";

  // 1 MB budget: no histogram can be kept, so every node builds directly and
  // no subtraction is ever charged — the out-of-memory-avoidance fallback.
  cfg.hist_budget_mb = 1;
  obs::Profiler no_pool(false);
  GbmoBooster tight(cfg);
  tight.set_sink(&no_pool);
  const auto got = tight.fit(d);
  EXPECT_EQ(no_pool.kernels().count("hist_subtract"), 0u);

  // The fallback trades memory for rebuild work, not model quality. Direct
  // builds and parent-minus-sibling subtraction round differently in the
  // last ulp, which can flip a near-tie split to the adjacent bin, so the
  // comparison is on the learned function, not bitwise tree structure.
  EXPECT_LT(tight.report().peak_device_bytes, roomy.report().peak_device_bytes);
  const auto m_ref = ref.evaluate(d);
  const auto m_got = got.evaluate(d);
  EXPECT_NEAR(m_got.value, m_ref.value,
              0.05 * std::abs(m_ref.value) + 0.02);
  for (const float s : got.predict(d.x)) ASSERT_TRUE(std::isfinite(s));
}

INSTANTIATE_TEST_SUITE_P(Policies, HistBudget,
                         ::testing::Values(GrowthPolicy::kLevelWise,
                                           GrowthPolicy::kLeafWise));

// --- config validation ------------------------------------------------------

TEST(ConfigValidation, RejectsBadConfigsAtConstruction) {
  auto expect_invalid = [](TrainConfig cfg, const char* what) {
    EXPECT_THROW(GbmoBooster{cfg}, Error) << what;
  };
  {
    auto cfg = cfg_base();
    cfg.max_bins = 300;
    expect_invalid(cfg, "max_bins > 256");
  }
  {
    auto cfg = cfg_base();
    cfg.max_bins = 1;
    expect_invalid(cfg, "max_bins < 2");
  }
  {
    auto cfg = cfg_base();
    cfg.max_leaves = 1;
    expect_invalid(cfg, "max_leaves == 1");
  }
  {
    auto cfg = cfg_base();
    cfg.n_trees = 0;
    expect_invalid(cfg, "n_trees == 0");
  }
  {
    auto cfg = cfg_base();
    cfg.goss_a = 0.8;
    cfg.goss_b = 0.5;
    expect_invalid(cfg, "goss_a + goss_b > 1");
  }
  {
    auto cfg = cfg_base();
    cfg.goss_a = 0.2;
    cfg.goss_b = 0.0;
    expect_invalid(cfg, "goss_a without goss_b");
  }
  {
    auto cfg = cfg_base();
    cfg.goss_a = 0.2;
    cfg.goss_b = 0.2;
    cfg.subsample = 0.5;
    expect_invalid(cfg, "goss + subsample");
  }
  {
    auto cfg = cfg_base();
    cfg.hist_budget_mb = 0;
    expect_invalid(cfg, "hist_budget_mb == 0");
  }
  // And the happy path still constructs.
  EXPECT_NO_THROW(GbmoBooster{cfg_base()});
}

TEST(ConfigValidation, CliRejectsBadFlagsWithNonzeroExit) {
  std::ostringstream out, err;
  const int code = cli::run(
      {"train", "--data", "/nonexistent.csv", "--features", "8", "--model",
       "/tmp/never.model", "--bins", "300"},
      out, err);
  EXPECT_NE(code, 0);
  EXPECT_NE(err.str().find("max_bins"), std::string::npos) << err.str();

  std::ostringstream out2, err2;
  const int code2 = cli::run(
      {"train", "--data", "/nonexistent.csv", "--features", "8", "--model",
       "/tmp/never.model", "--goss", "0.9,0.9"},
      out2, err2);
  EXPECT_NE(code2, 0);
  EXPECT_NE(err2.str().find("goss"), std::string::npos) << err2.str();

  std::ostringstream out3, err3;
  const int code3 = cli::run(
      {"train", "--data", "/nonexistent.csv", "--features", "8", "--model",
       "/tmp/never.model", "--growth", "sideways"},
      out3, err3);
  EXPECT_NE(code3, 0);
  EXPECT_NE(err3.str().find("growth"), std::string::npos) << err3.str();

  std::ostringstream out4, err4;
  const int code4 = cli::run(
      {"train", "--data", "/nonexistent.csv", "--features", "8", "--model",
       "/tmp/never.model", "--max-device-mb", "-1"},
      out4, err4);
  EXPECT_EQ(code4, 1);
  EXPECT_NE(err4.str().find("--max-device-mb"), std::string::npos)
      << err4.str();
}

}  // namespace
}  // namespace gbmo::core
