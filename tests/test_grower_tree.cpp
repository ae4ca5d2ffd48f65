// Tree structure and grower invariants: leaf coverage, routing consistency,
// depth/min-instance limits, the §2.1 single-output equivalence, and
// transparency of sibling subtraction and of reused (pooled) histograms.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "core/grower.h"
#include "data/synthetic.h"

namespace gbmo::core {
namespace {

struct GrowSetup {
  data::Dataset dataset;
  data::BinCuts cuts;
  data::BinnedMatrix binned;
  GrowerContext ctx;
  std::vector<float> g, h;

  GrowSetup(int d, TrainConfig cfg, std::uint64_t seed = 5) {
    data::MultiregressionSpec spec;
    spec.n_instances = 400;
    spec.n_features = 8;
    spec.n_outputs = d;
    spec.seed = seed;
    dataset = data::make_multiregression(spec);
    cuts = data::BinCuts::build(dataset.x, cfg.max_bins);
    binned = data::BinnedMatrix(dataset.x, cuts);
    if (cfg.warp_opt) binned.pack();
    ctx = GrowerContext::create(binned, cuts, d, cfg);

    Rng rng(seed + 1);
    g.resize(dataset.n_instances() * static_cast<std::size_t>(d));
    h.resize(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] = rng.uniform(-1.0f, 1.0f);
      h[i] = rng.uniform(0.5f, 1.5f);
    }
  }
};

TrainConfig grow_config() {
  TrainConfig cfg;
  cfg.max_depth = 4;
  cfg.min_instances_per_node = 10;
  cfg.max_bins = 32;
  return cfg;
}

TEST(TreeTest, ConstructionInvariants) {
  Tree tree(3);
  const auto root = tree.add_root(100);
  const auto [l, r] = tree.split_node(root, 2, 5, 0.5f, 1.0f, 60, 40, 1);
  const float left_vals[] = {1.0f, 2.0f, 3.0f};
  const float right_vals[] = {-1.0f, 0.0f, 1.0f};
  tree.set_leaf(l, left_vals);
  tree.set_leaf(r, right_vals);

  EXPECT_EQ(tree.n_nodes(), 3u);
  EXPECT_EQ(tree.n_leaves(), 2u);
  EXPECT_EQ(tree.max_depth_reached(), 1);
  EXPECT_FALSE(tree.node(0).is_leaf());
  EXPECT_TRUE(tree.node(1).is_leaf());

  // Routing: feature 2 <= 0.5 goes left.
  std::vector<float> row = {9.0f, 9.0f, 0.4f};
  EXPECT_EQ(tree.find_leaf(row), l);
  row[2] = 0.6f;
  EXPECT_EQ(tree.find_leaf(row), r);

  EXPECT_THROW(tree.set_leaf(root, left_vals), Error);  // internal node
  EXPECT_THROW(tree.set_leaf(l, left_vals), Error);     // already finalized
}

TEST(GrowerTest, LeafAssignmentsCoverAllRowsConsistently) {
  const auto cfg = grow_config();
  GrowSetup s(3, cfg);
  sim::DeviceGroup group(sim::DeviceSpec::rtx4090(), 1);
  TreeGrower grower(group, s.ctx);
  const auto grown = grower.grow(s.g, s.h);

  ASSERT_EQ(grown.leaf_of_row.size(), s.dataset.n_instances());
  for (std::size_t i = 0; i < grown.leaf_of_row.size(); ++i) {
    const auto leaf = grown.leaf_of_row[i];
    ASSERT_GE(leaf, 0) << "row " << i << " unassigned";
    ASSERT_TRUE(grown.tree.node(static_cast<std::size_t>(leaf)).is_leaf());
    // The recorded leaf must equal a fresh binned traversal.
    const auto traversed = grown.tree.find_leaf_binned(
        [&](std::int32_t f) { return s.binned.bin(i, static_cast<std::size_t>(f)); });
    EXPECT_EQ(traversed, leaf) << "row " << i;
  }

  // Leaf instance counts sum to n, and every internal node's children sum up.
  std::size_t leaf_total = 0;
  for (std::size_t id = 0; id < grown.tree.n_nodes(); ++id) {
    const auto& node = grown.tree.node(id);
    if (node.is_leaf()) {
      leaf_total += node.n_instances;
    } else {
      EXPECT_EQ(node.n_instances,
                grown.tree.node(static_cast<std::size_t>(node.left)).n_instances +
                    grown.tree.node(static_cast<std::size_t>(node.right)).n_instances);
      EXPECT_GT(node.gain, 0.0f);
    }
  }
  EXPECT_EQ(leaf_total, s.dataset.n_instances());
}

TEST(GrowerTest, RespectsDepthAndMinInstances) {
  auto cfg = grow_config();
  cfg.max_depth = 2;
  cfg.min_instances_per_node = 30;
  GrowSetup s(2, cfg);
  sim::DeviceGroup group(sim::DeviceSpec::rtx4090(), 1);
  TreeGrower grower(group, s.ctx);
  const auto grown = grower.grow(s.g, s.h);

  EXPECT_LE(grown.tree.max_depth_reached(), 2);
  EXPECT_LE(grown.tree.n_leaves(), 4u);
  for (std::size_t id = 0; id < grown.tree.n_nodes(); ++id) {
    const auto& node = grown.tree.node(id);
    if (node.is_leaf()) {
      EXPECT_GE(node.n_instances, 30u / 2);
    }
  }
}

// §2.1: for single-output regression, GBDT-MO and GBDT-SO produce identical
// tree structures — d = 1 must behave exactly like a single-output learner.
TEST(GrowerTest, SingleOutputMatchesMultiOutputWithD1) {
  auto cfg = grow_config();
  GrowSetup s(1, cfg);
  sim::DeviceGroup g1(sim::DeviceSpec::rtx4090(), 1);
  TreeGrower grower(g1, s.ctx);
  const auto grown = grower.grow(s.g, s.h);
  EXPECT_GT(grown.tree.n_leaves(), 1u);
  EXPECT_EQ(grown.tree.n_outputs(), 1);
  // Every leaf value equals -lr * G/(H+λ) recomputed from its rows.
  for (std::size_t i = 0; i < s.dataset.n_instances(); ++i) {
    const auto leaf = grown.leaf_of_row[i];
    ASSERT_GE(leaf, 0);
  }
}

TEST(GrowerTest, SiblingSubtractionDoesNotChangeTheTree) {
  auto cfg = grow_config();
  cfg.sibling_subtraction = true;
  GrowSetup s1(4, cfg, 9);
  sim::DeviceGroup ga(sim::DeviceSpec::rtx4090(), 1);
  const auto with = TreeGrower(ga, s1.ctx).grow(s1.g, s1.h);

  cfg.sibling_subtraction = false;
  GrowSetup s2(4, cfg, 9);
  sim::DeviceGroup gb(sim::DeviceSpec::rtx4090(), 1);
  const auto without = TreeGrower(gb, s2.ctx).grow(s2.g, s2.h);

  ASSERT_EQ(with.tree.n_nodes(), without.tree.n_nodes());
  for (std::size_t id = 0; id < with.tree.n_nodes(); ++id) {
    EXPECT_EQ(with.tree.node(id).feature, without.tree.node(id).feature);
    EXPECT_EQ(with.tree.node(id).split_bin, without.tree.node(id).split_bin);
  }
  EXPECT_EQ(with.leaf_of_row, without.leaf_of_row);
}

TEST(GrowerTest, HistogramStrategiesAgreeOnTheTree) {
  for (auto method : {HistMethod::kGlobal, HistMethod::kShared,
                      HistMethod::kSortReduce, HistMethod::kAuto}) {
    auto cfg = grow_config();
    cfg.hist_method = method;
    GrowSetup s(3, cfg, 21);
    sim::DeviceGroup group(sim::DeviceSpec::rtx4090(), 1);
    const auto grown = TreeGrower(group, s.ctx).grow(s.g, s.h);
    // All strategies must produce the same structure as the default.
    static std::vector<std::int32_t> reference;
    if (method == HistMethod::kGlobal) {
      reference = grown.leaf_of_row;
    } else {
      EXPECT_EQ(grown.leaf_of_row, reference)
          << "strategy " << hist_method_name(method);
    }
  }
}

// Node histograms are pooled and reused without zero-filling, so a tree
// grown after another one finds stale sums in every slot outside its
// feature view (colsample_bytree). Split search must never read them: a
// grower whose pool holds a full-view tree's histograms grows the same tree,
// bit for bit, as a fresh grower — level-wise, leaf-wise and on the
// memory-bounded scratch path alike.
TEST(GrowerTest, ReusedHistogramsMatchFreshOnesUnderColsample) {
  const std::vector<std::uint32_t> view = {1, 4, 6};
  for (int variant = 0; variant < 3; ++variant) {
    auto cfg = grow_config();
    if (variant == 1) {
      cfg.growth = GrowthPolicy::kLeafWise;
      cfg.max_leaves = 10;
    }
    GrowSetup s(3, cfg, 33);
    if (variant == 2) s.ctx.hist_pool_budget = 1;  // no subtraction
    const std::string where = "variant " + std::to_string(variant);

    sim::DeviceGroup ga(sim::DeviceSpec::rtx4090(), 1);
    const auto fresh = TreeGrower(ga, s.ctx).grow(s.g, s.h, {}, view);

    sim::DeviceGroup gb(sim::DeviceSpec::rtx4090(), 1);
    TreeGrower reused(gb, s.ctx);
    std::vector<float> other_g(s.g.size());
    for (std::size_t i = 0; i < s.g.size(); ++i) other_g[i] = 3.0f - 2.0f * s.g[i];
    reused.grow(other_g, s.h);  // full view: writes every slot
    const auto again = reused.grow(s.g, s.h, {}, view);

    ASSERT_EQ(fresh.tree.n_nodes(), again.tree.n_nodes()) << where;
    for (std::size_t id = 0; id < fresh.tree.n_nodes(); ++id) {
      const TreeNode& a = fresh.tree.node(id);
      const TreeNode& b = again.tree.node(id);
      EXPECT_EQ(a.feature, b.feature) << where << " node " << id;
      EXPECT_EQ(a.split_bin, b.split_bin) << where << " node " << id;
      EXPECT_EQ(std::memcmp(&a.gain, &b.gain, sizeof(float)), 0)
          << where << " node " << id;
      EXPECT_EQ(a.n_instances, b.n_instances) << where << " node " << id;
    }
    const auto va = fresh.tree.all_leaf_values();
    const auto vb = again.tree.all_leaf_values();
    ASSERT_EQ(va.size(), vb.size()) << where;
    EXPECT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(float)), 0)
        << where << ": leaf values differ bitwise";
    EXPECT_EQ(fresh.leaf_of_row, again.leaf_of_row) << where;
  }
}

TEST(GrowerTest, TinyNodeBecomesSingleLeaf) {
  auto cfg = grow_config();
  cfg.min_instances_per_node = 500;  // larger than the dataset
  GrowSetup s(2, cfg);
  sim::DeviceGroup group(sim::DeviceSpec::rtx4090(), 1);
  const auto grown = TreeGrower(group, s.ctx).grow(s.g, s.h);
  EXPECT_EQ(grown.tree.n_leaves(), 1u);
  EXPECT_EQ(grown.tree.n_nodes(), 1u);
}

}  // namespace
}  // namespace gbmo::core
