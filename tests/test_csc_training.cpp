// The §3.2 CSC training path: BinnedCscMatrix storage invariants, the
// level-sweep histogram construction vs the dense builders, and full
// training equivalence (csc_level_sweep on == off, tree for tree).
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "core/booster.h"
#include "core/histogram.h"
#include "data/binned_csc.h"
#include "data/synthetic.h"

namespace gbmo::core {
namespace {

data::Dataset sparse_data(double sparsity, std::uint64_t seed = 17) {
  data::MultiregressionSpec spec;
  spec.n_instances = 400;
  spec.n_features = 10;
  spec.n_outputs = 3;
  spec.sparsity = sparsity;
  spec.seed = seed;
  return data::make_multiregression(spec);
}

TEST(BinnedCscTest, StorageInvariants) {
  const auto d = sparse_data(0.6);
  const auto cuts = data::BinCuts::build(d.x, 32);
  const data::BinnedMatrix binned(d.x, cuts);
  const data::BinnedCscMatrix csc(binned, cuts);

  EXPECT_EQ(csc.n_rows(), d.n_instances());
  EXPECT_EQ(csc.n_cols(), d.n_features());
  EXPECT_LT(csc.density(), 0.55);  // ~60% of entries fall in the zero bin

  std::size_t stored = 0;
  for (std::size_t f = 0; f < csc.n_cols(); ++f) {
    const auto rows = csc.col_rows(f);
    const auto bins = csc.col_bins(f);
    ASSERT_EQ(rows.size(), bins.size());
    stored += rows.size();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i + 1 < rows.size()) {
        EXPECT_LT(rows[i], rows[i + 1]);
      }
      // Every stored entry matches the dense bin and is not the zero bin.
      EXPECT_EQ(bins[i], binned.bin(rows[i], f));
      EXPECT_NE(bins[i], csc.zero_bin(f));
    }
    // Every dense non-zero-bin entry is stored.
    std::size_t dense_nonzero = 0;
    for (std::size_t r = 0; r < csc.n_rows(); ++r) {
      dense_nonzero += (binned.bin(r, f) != csc.zero_bin(f)) ? 1 : 0;
    }
    EXPECT_EQ(rows.size(), dense_nonzero);
  }
  EXPECT_EQ(stored, csc.nnz());
}

TEST(CscLevelSweepTest, MatchesDenseBuilderAcrossNodes) {
  const auto d = sparse_data(0.5, 23);
  const auto cuts = data::BinCuts::build(d.x, 32);
  const data::BinnedMatrix binned(d.x, cuts);
  const data::BinnedCscMatrix csc(binned, cuts);
  const HistogramLayout layout(cuts, 3);
  const int dims = 3;

  Rng rng(5);
  std::vector<float> g(d.n_instances() * dims), h(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = rng.uniform(-1.0f, 1.0f);
    h[i] = rng.uniform(0.2f, 1.0f);
  }

  // Three "nodes": rows split by i % 3; node 2 is marked inactive (-1).
  std::vector<std::int32_t> node_slot(d.n_instances());
  std::vector<std::vector<std::uint32_t>> node_rows(2);
  for (std::uint32_t r = 0; r < d.n_instances(); ++r) {
    const int m = static_cast<int>(r % 3);
    node_slot[r] = m == 2 ? -1 : m;
    if (m != 2) node_rows[static_cast<std::size_t>(m)].push_back(r);
  }

  std::vector<std::uint32_t> features(d.n_features());
  std::iota(features.begin(), features.end(), 0u);

  auto totals_of = [&](std::span<const std::uint32_t> rows) {
    std::vector<sim::GradPair> totals(dims);
    for (auto r : rows) {
      for (int k = 0; k < dims; ++k) {
        totals[static_cast<std::size_t>(k)].g += g[r * dims + static_cast<std::size_t>(k)];
        totals[static_cast<std::size_t>(k)].h += h[r * dims + static_cast<std::size_t>(k)];
      }
    }
    return totals;
  };
  const auto totals0 = totals_of(node_rows[0]);
  const auto totals1 = totals_of(node_rows[1]);

  NodeHistogram sweep0, sweep1;
  sweep0.resize(layout);
  sweep1.resize(layout);
  std::vector<LevelNodeInput> inputs = {
      {&sweep0, totals0, static_cast<std::uint32_t>(node_rows[0].size())},
      {&sweep1, totals1, static_cast<std::uint32_t>(node_rows[1].size())}};
  sim::Device dev(sim::DeviceSpec::rtx4090());
  build_level_histograms_csc(dev, csc, node_slot, inputs, g, h, layout, features);
  EXPECT_GT(dev.modeled_seconds(), 0.0);

  // Dense reference per node.
  auto dense_build = [&](std::span<const std::uint32_t> rows,
                         std::span<const sim::GradPair> totals) {
    NodeHistogram hist;
    hist.resize(layout);
    HistBuildInput in;
    in.bins = &binned;
    in.node_rows = rows;
    in.g = g;
    in.h = h;
    in.layout = &layout;
    in.features = features;
    in.sparsity_aware = true;
    in.node_totals = totals;
    in.node_count = static_cast<std::uint32_t>(rows.size());
    sim::Device ref_dev(sim::DeviceSpec::rtx4090());
    build_histogram(ref_dev, HistMethod::kGlobal, in, hist);
    return hist;
  };
  const auto ref0 = dense_build(node_rows[0], totals0);
  const auto ref1 = dense_build(node_rows[1], totals1);

  for (std::size_t f = 0; f < layout.n_features(); ++f) {
    for (int b = 0; b < layout.n_bins(f); ++b) {
      EXPECT_EQ(sweep0.counts[layout.bin_index(f, b)],
                ref0.counts[layout.bin_index(f, b)]);
      EXPECT_EQ(sweep1.counts[layout.bin_index(f, b)],
                ref1.counts[layout.bin_index(f, b)]);
      for (int k = 0; k < dims; ++k) {
        EXPECT_NEAR(sweep0.sums[layout.slot(f, b, k)].g,
                    ref0.sums[layout.slot(f, b, k)].g, 1e-3f);
        EXPECT_NEAR(sweep1.sums[layout.slot(f, b, k)].h,
                    ref1.sums[layout.slot(f, b, k)].h, 1e-3f);
      }
    }
  }
}

class CscTrainingEquivalence : public ::testing::TestWithParam<double> {};

TEST_P(CscTrainingEquivalence, SameTreesAsDensePath) {
  const auto d = sparse_data(GetParam(), 31);
  TrainConfig cfg;
  cfg.n_trees = 6;
  cfg.max_depth = 4;
  cfg.learning_rate = 0.5f;
  cfg.min_instances_per_node = 8;
  cfg.max_bins = 32;

  GbmoBooster dense(cfg);
  const auto ref = dense.fit(d);

  cfg.csc_level_sweep = true;
  GbmoBooster sparse(cfg);
  const auto got = sparse.fit(d);

  ASSERT_EQ(got.trees.size(), ref.trees.size());
  for (std::size_t t = 0; t < ref.trees.size(); ++t) {
    ASSERT_EQ(got.trees[t].n_nodes(), ref.trees[t].n_nodes()) << "tree " << t;
    for (std::size_t n = 0; n < ref.trees[t].n_nodes(); ++n) {
      EXPECT_EQ(got.trees[t].node(n).feature, ref.trees[t].node(n).feature);
      EXPECT_EQ(got.trees[t].node(n).split_bin, ref.trees[t].node(n).split_bin);
    }
  }
  EXPECT_EQ(got.predict(d.x), ref.predict(d.x));
}

INSTANTIATE_TEST_SUITE_P(Sweep, CscTrainingEquivalence,
                         ::testing::Values(0.0, 0.5, 0.9));

TEST(CscTrainingCost, SweepCheaperOnSparseData) {
  const auto d = sparse_data(0.9, 37);
  TrainConfig cfg;
  cfg.n_trees = 6;
  cfg.max_depth = 4;
  cfg.max_bins = 32;
  cfg.min_instances_per_node = 8;

  GbmoBooster dense(cfg);
  dense.fit(d);
  cfg.csc_level_sweep = true;
  GbmoBooster sparse(cfg);
  sparse.fit(d);

  // On 90%-sparse data the sweep's nnz-proportional reads beat the dense
  // builders' n*m reads.
  EXPECT_LT(sparse.report().phase_seconds.at("histogram"),
            dense.report().phase_seconds.at("histogram"));
}

}  // namespace
}  // namespace gbmo::core
