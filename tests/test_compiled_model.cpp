// CompiledModel: SoA compilation and the batched predict_compiled kernels
// must be bit-identical to the scalar reference predict_scores — including
// rows with missing values, through save/load, and at any scheduler thread
// count — and degrade gracefully (unstaged traversal) when a device has no
// room to stage a tree group in shared memory.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "core/booster.h"
#include "core/compiled_model.h"
#include "core/model_io.h"
#include "core/predictor.h"
#include "data/quantize.h"
#include "data/synthetic.h"
#include "sim/faults.h"
#include "sim/scheduler.h"

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
}

TEST(CompiledModel, DeviceBitIdenticalAcrossSimThreads) {
  const auto d = make_data(6);
  GbmoBooster booster(small_cfg());
  const auto model = booster.fit(d);

  // Predict a batch with injected NaN cells (missing values on the hot path).
  auto batch = make_data(6, /*seed=*/91, /*nan_frac=*/0.07);
  const auto reference = predict_scores(model.trees, batch.x, model.n_outputs);
  const auto compiled = CompiledModel::compile(model.trees, model.n_outputs);

  for (int threads : {1, 2, 4}) {
    sim::set_sim_threads(threads);
    sim::Device dev(sim::DeviceSpec::rtx4090());
    std::vector<float> scores(reference.size());
    predict_compiled(dev, compiled, batch.x, scores);
    EXPECT_TRUE(bitwise_equal(scores, reference)) << "threads=" << threads;
    EXPECT_GT(dev.modeled_seconds(), 0.0);
  }
  sim::set_sim_threads(0);
}

// The reduction accumulates in place into the score rows, so a transient
// fault part-way through a launch leaves partial sums behind; the restage
// must re-zero them so every retried batch is bit-identical to a clean one.
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
}

}  // namespace
}  // namespace gbmo::core
