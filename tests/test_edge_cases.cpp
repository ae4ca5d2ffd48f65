// Degenerate and boundary inputs the training pipeline must survive:
// constant features, duplicate rows, single features, minimum-size nodes,
// identical targets, and the adaptive builder's selection behavior.
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "core/booster.h"
#include "core/histogram.h"
#include "data/synthetic.h"

namespace gbmo::core {
namespace {

TrainConfig tiny_cfg() {
  TrainConfig cfg;
  cfg.n_trees = 4;
  cfg.max_depth = 3;
  cfg.max_bins = 16;
  cfg.min_instances_per_node = 5;
  return cfg;
}

TEST(EdgeCases, AllConstantFeaturesProduceSingleLeafTrees) {
  data::Dataset d;
  d.x = data::DenseMatrix(100, 3, 7.0f);  // every feature constant
  std::vector<float> targets(100 * 2);
  Rng rng(1);
  for (auto& t : targets) t = rng.normal_f();
  d.y = data::Labels::multiregression(std::move(targets), 100, 2);

  GbmoBooster booster(tiny_cfg());
  const auto model = booster.fit(d);
  for (const auto& tree : model.trees) {
    EXPECT_EQ(tree.n_leaves(), 1u) << "no feature can split";
  }
  // The single leaf still fits the mean: loss decreases vs zero prediction.
  const auto scores = model.predict(d.x);
  std::vector<float> zeros(scores.size(), 0.0f);
  EXPECT_LT(rmse(scores, d.y), rmse(zeros, d.y));
}

TEST(EdgeCases, DuplicateRowsTrainCleanly) {
  data::Dataset d;
  d.x = data::DenseMatrix(60, 2);
  std::vector<std::int32_t> ids(60);
  for (std::size_t i = 0; i < 60; ++i) {
    // Only 3 distinct rows, each repeated 20 times.
    d.x.at(i, 0) = static_cast<float>(i % 3);
    d.x.at(i, 1) = static_cast<float>((i % 3) * 2);
    ids[i] = static_cast<std::int32_t>(i % 3);
  }
  d.y = data::Labels::multiclass(std::move(ids), 3);

  GbmoBooster booster(tiny_cfg());
  const auto model = booster.fit(d);
  EXPECT_EQ(model.evaluate(d).value, 100.0);  // perfectly separable
}

TEST(EdgeCases, SingleFeatureSingleOutput) {
  data::Dataset d;
  d.x = data::DenseMatrix(80, 1);
  std::vector<float> targets(80);
  for (std::size_t i = 0; i < 80; ++i) {
    d.x.at(i, 0) = static_cast<float>(i);
    targets[i] = i < 40 ? -1.0f : 1.0f;
  }
  d.y = data::Labels::multiregression(std::move(targets), 80, 1);

  GbmoBooster booster(tiny_cfg());
  const auto model = booster.fit(d);
  const auto scores = model.predict(d.x);
  EXPECT_LT(rmse(scores, d.y), 0.1);  // a single threshold solves it
}

TEST(EdgeCases, IdenticalTargetsGiveZeroGainTrees) {
  data::MultiregressionSpec spec;
  spec.n_instances = 100;
  spec.n_features = 5;
  spec.n_outputs = 3;
  auto d = data::make_multiregression(spec);
  // Overwrite all targets with a constant.
  std::vector<float> targets(100 * 3, 2.5f);
  d.y = data::Labels::multiregression(std::move(targets), 100, 3);

  GbmoBooster booster(tiny_cfg());
  const auto model = booster.fit(d);
  // Tree 1 fits the constant; later trees find no gain (all leaves ~0).
  const auto scores = model.predict(d.x);
  for (float s : scores) EXPECT_NEAR(s, 2.5f, 0.05f);
}

TEST(EdgeCases, ExactlyMinimumSplittableNode) {
  data::MultiregressionSpec spec;
  spec.n_instances = 10;  // exactly 2 * min_instances_per_node
  spec.n_features = 4;
  spec.n_outputs = 2;
  const auto d = data::make_multiregression(spec);
  auto cfg = tiny_cfg();
  cfg.min_instances_per_node = 5;
  GbmoBooster booster(cfg);
  const auto model = booster.fit(d);
  // The root may split 5/5 at most once; children are unsplittable.
  for (const auto& tree : model.trees) {
    EXPECT_LE(tree.n_leaves(), 2u);
    for (std::size_t i = 0; i < tree.n_nodes(); ++i) {
      if (tree.node(i).is_leaf()) {
        EXPECT_GE(tree.node(i).n_instances, 5u);
      }
    }
  }
}

TEST(EdgeCases, SmallerThanMinimumIsASingleLeaf) {
  data::MultiregressionSpec spec;
  spec.n_instances = 7;
  spec.n_features = 3;
  spec.n_outputs = 2;
  const auto d = data::make_multiregression(spec);
  auto cfg = tiny_cfg();
  cfg.min_instances_per_node = 5;
  GbmoBooster booster(cfg);
  const auto model = booster.fit(d);
  for (const auto& tree : model.trees) EXPECT_EQ(tree.n_nodes(), 1u);
}

TEST(AdaptiveBuilder, PrefersSharedUnderHighContentionHighD) {
  // Large nodes over very few occupied bins with a wide output dimension:
  // the selector's gmem collision estimate should exceed the smem tile
  // penalty; tiny nodes flip back to gmem ("training stage" behavior).
  data::DenseMatrix x(4096, 2);
  Rng rng(3);
  for (std::size_t i = 0; i < x.n_rows(); ++i) {
    x.at(i, 0) = static_cast<float>(rng.next_below(4));  // 4 occupied bins
    x.at(i, 1) = static_cast<float>(rng.next_below(4));
  }
  const auto cuts = data::BinCuts::build(x, 16);
  const data::BinnedMatrix binned(x, cuts);
  const int d = 32;
  const HistogramLayout layout(cuts, d);
  std::vector<float> g(x.n_rows() * d, 0.1f), h(g.size(), 1.0f);
  std::vector<std::uint32_t> rows(x.n_rows());
  std::iota(rows.begin(), rows.end(), 0u);
  std::vector<std::uint32_t> features = {0, 1};
  std::vector<sim::GradPair> totals(d, {0.1f * x.n_rows(), 1.0f * x.n_rows()});

  HistBuildInput in;
  in.bins = &binned;
  in.node_rows = rows;
  in.g = g;
  in.h = h;
  in.layout = &layout;
  in.features = features;
  in.sparsity_aware = false;
  in.node_totals = totals;
  in.node_count = static_cast<std::uint32_t>(rows.size());

  // Whatever it picks, results must match the scalar reference (covered by
  // BuilderEquivalence); here we check the *time* is never much worse than
  // the best fixed choice — the point of adaptivity.
  auto time_of = [&](HistMethod m) {
    sim::Device dev(sim::DeviceSpec::rtx4090());
    NodeHistogram hist;
    hist.resize(layout);
    build_histogram(dev, m, in, hist);
    return dev.modeled_seconds();
  };
  const double t_auto = time_of(HistMethod::kAuto);
  const double t_best =
      std::min(time_of(HistMethod::kGlobal), time_of(HistMethod::kShared));
  EXPECT_LE(t_auto, t_best * 1.15);
}

TEST(EdgeCases, DepthZeroTreesAreSingleLeaves) {
  data::MultiregressionSpec spec;
  spec.n_instances = 100;
  spec.n_features = 4;
  spec.n_outputs = 2;
  const auto d = data::make_multiregression(spec);
  auto cfg = tiny_cfg();
  cfg.max_depth = 0;
  GbmoBooster booster(cfg);
  const auto model = booster.fit(d);
  for (const auto& tree : model.trees) EXPECT_EQ(tree.n_nodes(), 1u);
}

TEST(EdgeCases, SingleInstancePerOutputDimensionHuge) {
  // d > n: more outputs than instances — must not crash or divide by zero.
  data::MultilabelSpec spec;
  spec.n_instances = 30;
  spec.n_features = 4;
  spec.n_outputs = 64;
  const auto d = data::make_multilabel(spec);
  auto cfg = tiny_cfg();
  cfg.min_instances_per_node = 2;
  GbmoBooster booster(cfg);
  const auto model = booster.fit(d);
  EXPECT_EQ(model.n_outputs, 64);
  const auto scores = model.predict(d.x);
  for (float s : scores) EXPECT_TRUE(std::isfinite(s));
}

}  // namespace
}  // namespace gbmo::core
