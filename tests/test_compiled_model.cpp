// CompiledModel: SoA compilation and the batched predict_compiled kernels
// must be bit-identical to the scalar reference predict_scores — including
// rows with missing or infinite values, trees renumbered at compile time,
// lockstep groups mixing root-only and deep trees, through save/load, and at
// any scheduler thread count — and degrade gracefully (unstaged traversal)
// when a device has no room to stage a tree group in shared memory. The
// kernels' charges are pinned field by field, and a batch narrower than the
// model's split features is rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <sstream>
#include <string>

#include "core/booster.h"
#include "core/compiled_model.h"
#include "core/model_io.h"
#include "core/predictor.h"
#include "data/quantize.h"
#include "data/synthetic.h"
#include "kernel_log.h"
#include "sim/faults.h"
#include "sim/scheduler.h"
#include "sim/sink.h"

namespace gbmo::core {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

data::Dataset make_data(int d, std::uint64_t seed = 17, double nan_frac = 0.0) {
  data::MultiregressionSpec spec;
  spec.n_instances = 400;
  spec.n_features = 12;
  spec.n_outputs = d;
  spec.seed = seed;
  auto ds = data::make_multiregression(spec);
  if (nan_frac > 0.0) {
    const auto stride = static_cast<std::size_t>(1.0 / nan_frac);
    auto vals = ds.x.values();
    for (std::size_t i = 0; i < vals.size(); i += stride) vals[i] = kNaN;
  }
  return ds;
}

TrainConfig small_cfg(int trees = 8) {
  TrainConfig cfg;
  cfg.n_trees = trees;
  cfg.max_depth = 4;
  cfg.learning_rate = 0.4f;
  cfg.min_instances_per_node = 8;
  cfg.max_bins = 32;
  return cfg;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

constexpr int kEdgeCols = 6;

// A hand-built d-output tree of exactly `depth` levels: the all-left spine
// always splits, every other node stops early one time in four. Split
// features, thresholds, default-left flags and leaf values are random.
Tree hand_tree(int depth, int d, std::mt19937& rng) {
  std::uniform_real_distribution<float> u(-1.0f, 1.0f);
  Tree tree(d);
  tree.add_root(0);
  struct Open {
    std::int32_t id;
    int level;
    bool spine;
  };
  std::vector<Open> open = {{0, 0, true}};
  while (!open.empty()) {
    const Open o = open.back();
    open.pop_back();
    if (o.level == depth || (!o.spine && rng() % 4 == 0)) {
      std::vector<float> values(static_cast<std::size_t>(d));
      for (auto& v : values) v = u(rng);
      tree.set_leaf(o.id, values);
      continue;
    }
    const auto feature = static_cast<std::int32_t>(rng() % kEdgeCols);
    const auto [l, r] = tree.split_node(o.id, feature, /*split_bin=*/0, u(rng),
                                        /*gain=*/1.0f, 0, 0, o.level + 1);
    tree.node(static_cast<std::size_t>(o.id)).default_left = rng() % 2 == 0;
    open.push_back({r, o.level + 1, false});
    open.push_back({l, o.level + 1, o.spine});
  }
  return tree;
}

// The same tree with every node but the root at a shuffled id, as a model
// file may lay it out: siblings are no longer adjacent.
Tree permuted(const Tree& tree, std::mt19937& rng) {
  const auto src = tree.raw_nodes();
  std::vector<std::int32_t> new_id(src.size());
  std::iota(new_id.begin(), new_id.end(), 0);
  std::shuffle(new_id.begin() + 1, new_id.end(), rng);
  std::vector<TreeNode> nodes(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    TreeNode n = src[i];
    if (!n.is_leaf()) {
      n.left = new_id[static_cast<std::size_t>(n.left)];
      n.right = new_id[static_cast<std::size_t>(n.right)];
    }
    nodes[static_cast<std::size_t>(new_id[i])] = n;
  }
  const auto lv = tree.all_leaf_values();
  Tree out(tree.n_outputs());
  out.set_raw(std::move(nodes), std::vector<float>(lv.begin(), lv.end()),
              tree.n_outputs());
  return out;
}

struct RoutingCase {
  std::string name;
  std::vector<Tree> trees;
  int n_outputs = 0;
  data::DenseMatrix x;
};

// Inputs the trained models never produce: a loaded tree whose siblings are
// not adjacent, root-only trees in the same lockstep group as depth-7 trees,
// a tree count that is not a multiple of four, ±inf cells and NaN cells
// reaching splits whose default_left is false.
RoutingCase routing_edge_case() {
  constexpr int kD = 3;
  std::mt19937 rng(2024);
  RoutingCase c{"edge forest", {}, kD, data::DenseMatrix(300, kEdgeCols)};
  for (int depth : {0, 7, 7, 0, 3, -1, 0, 7, 2, 0, 7}) {
    if (depth < 0) {
      c.trees.push_back(permuted(hand_tree(5, kD, rng), rng));
    } else {
      c.trees.push_back(hand_tree(depth, kD, rng));
    }
  }
  std::uniform_real_distribution<float> u(-1.5f, 1.5f);
  auto vals = c.x.values();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = i % 7 == 0    ? kNaN
              : i % 11 == 0 ? std::numeric_limits<float>::infinity()
              : i % 13 == 0 ? -std::numeric_limits<float>::infinity()
                            : u(rng);
  }
  return c;
}

// A seeded trained model on a batch with NaN cells, plus the edge forest.
std::vector<RoutingCase> routing_cases() {
  const auto d = make_data(6);
  GbmoBooster booster(small_cfg());
  auto model = booster.fit(d);
  auto batch = make_data(6, /*seed=*/91, /*nan_frac=*/0.07);
  std::vector<RoutingCase> cases;
  cases.push_back({"trained", std::move(model.trees), model.n_outputs,
                   std::move(batch.x)});
  cases.push_back(routing_edge_case());
  return cases;
}

TEST(CompiledModel, HostTraversalMatchesReference) {
  const auto d = make_data(5);
  GbmoBooster booster(small_cfg());
  const auto model = booster.fit(d);

  const auto compiled = CompiledModel::compile(model.trees, model.n_outputs);
  EXPECT_EQ(compiled.n_trees(), model.trees.size());
  std::size_t nodes = 0;
  for (const auto& t : model.trees) nodes += t.n_nodes();
  EXPECT_EQ(compiled.n_nodes(), nodes);
  EXPECT_EQ(compiled.node_base(compiled.n_trees()),
            static_cast<std::int32_t>(nodes));

  const auto reference = predict_scores(model.trees, d.x, model.n_outputs);
  EXPECT_TRUE(bitwise_equal(compiled.predict_host(d.x), reference));

  for (const auto& c : routing_cases()) {
    const auto host = CompiledModel::compile(c.trees, c.n_outputs).predict_host(c.x);
    EXPECT_TRUE(bitwise_equal(host, predict_scores(c.trees, c.x, c.n_outputs)))
        << c.name;
  }
}

TEST(CompiledModel, DeviceBitIdenticalAcrossSimThreads) {
  // Each case's batch carries NaN cells (missing values on the hot path).
  for (const auto& c : routing_cases()) {
    const auto reference = predict_scores(c.trees, c.x, c.n_outputs);
    const auto compiled = CompiledModel::compile(c.trees, c.n_outputs);
    for (int threads : {1, 2, 4}) {
      sim::set_sim_threads(threads);
      sim::Device dev(sim::DeviceSpec::rtx4090());
      std::vector<float> scores(reference.size());
      predict_compiled(dev, compiled, c.x, scores);
      EXPECT_TRUE(bitwise_equal(scores, reference))
          << c.name << " threads=" << threads;
      EXPECT_GT(dev.modeled_seconds(), 0.0);
    }
  }
  sim::set_sim_threads(0);
}

// The reduction accumulates in place into the score rows, so a retried
// reduce must leave no partial sums behind: every retried batch is
// bit-identical to a clean one.
TEST(CompiledModel, RetriedReduceMatchesCleanRun) {
  const auto d = make_data(5);
  GbmoBooster booster(small_cfg());
  const auto model = booster.fit(d);
  auto batch = make_data(5, /*seed=*/23);
  const auto reference = predict_scores(model.trees, batch.x, model.n_outputs);
  const auto compiled = CompiledModel::compile(model.trees, model.n_outputs);

  for (int threads : {1, 4}) {
    sim::set_sim_threads(threads);
    sim::set_sim_faults("kernel=predict_compiled_reduce;transient=0.6;retries=40;seed=" +
                        std::to_string(threads));
    sim::Device dev(sim::DeviceSpec::rtx4090());
    std::vector<float> scores(reference.size());
    predict_compiled(dev, compiled, batch.x, scores);
    sim::reset_sim_faults();
    EXPECT_TRUE(bitwise_equal(scores, reference)) << "threads=" << threads;
    EXPECT_GT(dev.phase_seconds().count("retry"), 0u)
        << "no retry fired at threads=" << threads;
  }
  sim::set_sim_threads(0);
}

TEST(CompiledModel, NaNEndToEndThroughSaveLoad) {
  // Quantize -> train -> save -> load -> predict on data containing NaN:
  // the binned training partition, the raw reference traversal and the
  // compiled engine must all route missing values identically.
  const auto d = make_data(4, /*seed=*/5, /*nan_frac=*/0.08);
  GbmoBooster booster(small_cfg());
  const auto model = booster.fit(d);

  std::stringstream buf;
  write_model(buf, model);
  const auto loaded = read_model(buf);
  ASSERT_EQ(loaded.trees.size(), model.trees.size());

  // Raw traversal (NaN follows default_left) lands on the same leaves the
  // binned partition (NaN -> bin 0) chose during training.
  const data::BinnedMatrix binned(d.x, model.cuts);
  for (std::size_t t = 0; t < loaded.trees.size(); ++t) {
    for (std::size_t i = 0; i < d.n_instances(); ++i) {
      const auto raw_leaf = loaded.trees[t].find_leaf(d.x.row(i));
      const auto bin_leaf = loaded.trees[t].find_leaf_binned(
          [&](std::int32_t f) { return binned.bin(i, static_cast<std::size_t>(f)); });
      ASSERT_EQ(raw_leaf, bin_leaf) << "tree " << t << " row " << i;
    }
  }

  const auto reference = predict_scores(model.trees, d.x, model.n_outputs);
  EXPECT_TRUE(bitwise_equal(predict_scores(loaded.trees, d.x, model.n_outputs),
                            reference));

  const auto compiled = CompiledModel::compile(loaded.trees, loaded.n_outputs);
  sim::Device dev(sim::DeviceSpec::rtx4090());
  std::vector<float> scores(reference.size());
  predict_compiled(dev, compiled, d.x, scores);
  EXPECT_TRUE(bitwise_equal(scores, reference));
}

TEST(CompiledModel, DefaultLeftFlagRoundTripsAndOldFilesReadAsLeft) {
  // A hand-built tree with default_left=false must survive save/load; the
  // same file with the trailing flag stripped (a pre-flag vintage file)
  // must read back as default-left.
  Tree tree(1);
  tree.add_root(10);
  const auto [left, right] =
      tree.split_node(0, /*feature=*/0, /*split_bin=*/3, /*threshold=*/0.5f,
                      /*gain=*/1.0f, 5, 5, 1);
  tree.set_leaf(left, std::vector<float>{-1.0f});
  tree.set_leaf(right, std::vector<float>{+1.0f});
  tree.node(0).default_left = false;

  Model model;
  model.task = data::TaskKind::kMultiregression;
  model.n_outputs = 1;
  model.cuts = data::BinCuts::from_cut_arrays({{0.5f}}, 4);
  model.trees.push_back(tree);

  std::stringstream buf;
  write_model(buf, model);
  const std::string text = buf.str();

  std::istringstream is(text);
  const auto loaded = read_model(is);
  EXPECT_FALSE(loaded.trees[0].node(0).default_left);
  const float nan_row[] = {kNaN};
  EXPECT_EQ(loaded.trees[0].find_leaf(nan_row), right);

  // Strip the trailing default-left field from every node line.
  std::istringstream lines(text);
  std::ostringstream stripped;
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("node ", 0) == 0) {
      line = line.substr(0, line.find_last_of(' '));
    }
    stripped << line << '\n';
  }
  std::istringstream old_is(stripped.str());
  const auto vintage = read_model(old_is);
  EXPECT_TRUE(vintage.trees[0].node(0).default_left);
  EXPECT_EQ(vintage.trees[0].find_leaf(nan_row), left);
}

TEST(CompiledModel, EmptyModelPredictsZeroEverywhere) {
  const auto d = make_data(3);
  const std::vector<Tree> no_trees;

  sim::Device dev(sim::DeviceSpec::rtx4090());
  std::vector<float> scores(d.n_instances() * 3, 7.0f);
  predict_scores_device(dev, no_trees, d.x, scores);  // must not abort
  for (float s : scores) EXPECT_EQ(s, 0.0f);

  const auto compiled = CompiledModel::compile(no_trees, 3);
  EXPECT_TRUE(compiled.empty());
  std::fill(scores.begin(), scores.end(), 7.0f);
  predict_compiled(dev, compiled, d.x, scores);
  for (float s : scores) EXPECT_EQ(s, 0.0f);
}

TEST(CompiledModel, TinySharedMemoryFallsBackToUnstagedTraversal) {
  const auto d = make_data(4, /*seed=*/23, /*nan_frac=*/0.1);
  GbmoBooster booster(small_cfg(/*trees=*/5));
  const auto model = booster.fit(d);
  const auto reference = predict_scores(model.trees, d.x, model.n_outputs);
  const auto compiled = CompiledModel::compile(model.trees, model.n_outputs);

  // No tree fits a 64-byte budget: every group takes the unstaged path.
  auto spec = sim::DeviceSpec::rtx4090();
  spec.shared_mem_per_block = 64;
  sim::Device dev(spec);
  std::vector<float> scores(reference.size());
  predict_compiled(dev, compiled, d.x, scores);
  EXPECT_TRUE(bitwise_equal(scores, reference));
  // The fallback charges scattered node fetches, not shared-memory traffic.
  EXPECT_GT(dev.total_stats().gmem_random_accesses, 0u);

  const auto edge = routing_edge_case();
  const auto edge_reference = predict_scores(edge.trees, edge.x, edge.n_outputs);
  std::vector<float> edge_scores(edge_reference.size());
  predict_compiled(dev, CompiledModel::compile(edge.trees, edge.n_outputs),
                   edge.x, edge_scores);
  EXPECT_TRUE(bitwise_equal(edge_scores, edge_reference));
}

using test::fields;
using test::KernelLog;

// The engine's host loop may change; what it charges may not. Every
// KernelStats field of both kernels and their modeled seconds are pinned for
// a seeded model on a batch with NaN cells, staged (RTX 4090) and unstaged
// (64-byte shared memory), at 1 and 4 scheduler threads.
TEST(CompiledModel, KernelChargesArePinned) {
  const auto d = make_data(5);
  GbmoBooster booster(small_cfg());
  const auto model = booster.fit(d);
  const auto batch = make_data(5, /*seed=*/91, /*nan_frac=*/0.07);
  const auto compiled = CompiledModel::compile(model.trees, model.n_outputs);

  struct Pinned {
    std::size_t smem;
    std::array<std::uint64_t, 16> route, reduce;
    double route_s, reduce_s, total_s;
  };
  // Fields in fields() order.
  const Pinned pinned[] = {
      {0,
       {21496, 0, 0, 0, 0, 0, 171781, 0, 2, 512, 0, 0, 0, 0, 0, 0},
       {84800, 3200, 0, 0, 0, 0, 0, 16000, 2, 512, 0, 0, 0, 0, 0, 0},
       6.2296507936507936e-06, 8.253492063492064e-05, 8.8764571428571432e-05},
      {64,
       {12800, 25090, 0, 0, 0, 0, 0, 0, 16, 4096, 0, 0, 0, 0, 0, 0},
       {84800, 3200, 0, 0, 0, 0, 0, 16000, 2, 512, 0, 0, 0, 0, 0, 0},
       7.060984126984128e-05, 8.253492063492064e-05, 0.00015314476190476191},
  };
  for (int threads : {1, 4}) {
    sim::set_sim_threads(threads);
    for (const auto& p : pinned) {
      auto spec = sim::DeviceSpec::rtx4090();
      if (p.smem != 0) spec.shared_mem_per_block = p.smem;
      sim::Device dev(spec);
      KernelLog log;
      dev.set_sink(&log);
      std::vector<float> scores(batch.x.n_rows() * 5);
      predict_compiled(dev, compiled, batch.x, scores);
      const auto where = "smem=" + std::to_string(p.smem) +
                         " threads=" + std::to_string(threads);
      EXPECT_EQ(fields(log.stats["predict_compiled_route"]), p.route) << where;
      EXPECT_EQ(fields(log.stats["predict_compiled_reduce"]), p.reduce) << where;
      EXPECT_EQ(log.seconds["predict_compiled_route"], p.route_s) << where;
      EXPECT_EQ(log.seconds["predict_compiled_reduce"], p.reduce_s) << where;
      EXPECT_EQ(dev.modeled_seconds(), p.total_s) << where;
    }
  }
  sim::set_sim_threads(0);
}

// A batch narrower than the model's widest split feature is an input error,
// not an out-of-bounds read.
TEST(CompiledModel, RejectsBatchNarrowerThanSplitFeatures) {
  Tree tree(1);
  tree.add_root(10);
  const auto [left, right] =
      tree.split_node(0, /*feature=*/5, /*split_bin=*/3, /*threshold=*/0.5f,
                      /*gain=*/1.0f, 5, 5, 1);
  tree.set_leaf(left, std::vector<float>{-1.0f});
  tree.set_leaf(right, std::vector<float>{+1.0f});
  const std::vector<Tree> trees = {tree};
  const auto compiled = CompiledModel::compile(trees, 1);

  sim::Device dev(sim::DeviceSpec::rtx4090());
  const data::DenseMatrix narrow(4, 3, 1.0f);
  std::vector<float> scores(4);
  EXPECT_THROW(predict_compiled(dev, compiled, narrow, scores), gbmo::Error);
  EXPECT_THROW((void)compiled.predict_host(narrow), gbmo::Error);

  const data::DenseMatrix wide(4, 6, 1.0f);
  predict_compiled(dev, compiled, wide, scores);
  EXPECT_TRUE(bitwise_equal(scores, predict_scores(trees, wide, 1)));
  EXPECT_TRUE(bitwise_equal(compiled.predict_host(wide), scores));
}

// Compilation walks each tree from its root at most once per node, so a
// child link out of range or back to a visited node fails instead of
// looping or reading out of bounds.
TEST(CompiledModel, CompileRejectsBrokenChildLinks) {
  std::mt19937 rng(7);
  std::vector<Tree> trees = {hand_tree(3, 2, rng)};
  trees[0].node(0).right = 100000;
  EXPECT_THROW(CompiledModel::compile(trees, 2), gbmo::Error);
  trees[0] = hand_tree(3, 2, rng);
  trees[0].node(static_cast<std::size_t>(trees[0].node(0).left)).left = 0;
  EXPECT_THROW(CompiledModel::compile(trees, 2), gbmo::Error);
}

}  // namespace
}  // namespace gbmo::core
