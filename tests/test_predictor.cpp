// Prediction paths must agree: the incremental leaf-map update (§3.1.1),
// instance-parallel device traversal and the host-side convenience
// predictor.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "core/booster.h"
#include "core/predictor.h"
#include "data/synthetic.h"

namespace gbmo::core {
namespace {

data::Dataset make_data(int d, std::uint64_t seed = 31) {
  data::MultiregressionSpec spec;
  spec.n_instances = 300;
  spec.n_features = 10;
  spec.n_outputs = d;
  spec.seed = seed;
  return data::make_multiregression(spec);
}

TrainConfig small_cfg() {
  TrainConfig cfg;
  cfg.n_trees = 6;
  cfg.max_depth = 4;
  cfg.learning_rate = 0.4f;
  cfg.min_instances_per_node = 8;
  cfg.max_bins = 32;
  return cfg;
}

TEST(PredictorTest, DeviceKernelsMatchHostTraversal) {
  const auto d = make_data(5);
  GbmoBooster booster(small_cfg());
  const auto model = booster.fit(d);

  const auto host = predict_scores(model.trees, d.x, 5);

  sim::Device dev(sim::DeviceSpec::rtx4090());
  std::vector<float> instance_par(host.size());
  predict_scores_device(dev, model.trees, d.x, instance_par);

  for (std::size_t i = 0; i < host.size(); ++i) {
    EXPECT_NEAR(instance_par[i], host[i], 1e-5f);
  }
  EXPECT_GT(dev.modeled_seconds(), 0.0);
}

TEST(PredictorTest, IncrementalUpdateEqualsFullTraversalOnTrainingData) {
  // The booster accumulates scores via the training-time leaf map; a fresh
  // traversal over the final model must land on the same values (§3.1.1:
  // "skip traversal altogether and directly retrieve the leaf weights").
  const auto d = make_data(4);
  GbmoBooster booster(small_cfg());
  const auto model = booster.fit(d);

  const auto traversed = model.predict(d.x);
  // Reconstruct the incremental accumulation path.
  std::vector<float> incremental(traversed.size(), 0.0f);
  sim::Device dev(sim::DeviceSpec::rtx4090());
  for (const auto& tree : model.trees) {
    std::vector<std::int32_t> leaf_of_row(d.n_instances());
    for (std::size_t i = 0; i < d.n_instances(); ++i) {
      leaf_of_row[i] = tree.find_leaf(d.x.row(i));
    }
    update_scores_from_leaves(dev, tree, leaf_of_row, incremental);
  }
  for (std::size_t i = 0; i < traversed.size(); ++i) {
    EXPECT_NEAR(incremental[i], traversed[i], 1e-4f);
  }
}

TEST(PredictorTest, BinnedAndRawTraversalAgree) {
  const auto d = make_data(3, 77);
  GbmoBooster booster(small_cfg());
  const auto model = booster.fit(d);

  const data::BinnedMatrix binned(d.x, model.cuts);
  for (const auto& tree : model.trees) {
    for (std::size_t i = 0; i < d.n_instances(); ++i) {
      const auto raw_leaf = tree.find_leaf(d.x.row(i));
      const auto bin_leaf = tree.find_leaf_binned([&](std::int32_t f) {
        return binned.bin(i, static_cast<std::size_t>(f));
      });
      EXPECT_EQ(raw_leaf, bin_leaf) << "row " << i;
    }
  }
}

TEST(PredictorTest, NaNRoutesLikeTheBinnedTrainingPartition) {
  // Regression test for the train/predict routing divergence: quantization
  // sends NaN to bin 0 (left of every split), so raw-value traversal must
  // send NaN left too — `NaN <= threshold` alone would route it right.
  auto d = make_data(3, 55);
  auto vals = d.x.values();
  for (std::size_t i = 0; i < vals.size(); i += 9) {
    vals[i] = std::numeric_limits<float>::quiet_NaN();
  }
  GbmoBooster booster(small_cfg());
  const auto model = booster.fit(d);

  const data::BinnedMatrix binned(d.x, model.cuts);
  for (const auto& tree : model.trees) {
    for (std::size_t i = 0; i < d.n_instances(); ++i) {
      const auto raw_leaf = tree.find_leaf(d.x.row(i));
      const auto bin_leaf = tree.find_leaf_binned([&](std::int32_t f) {
        return binned.bin(i, static_cast<std::size_t>(f));
      });
      ASSERT_EQ(raw_leaf, bin_leaf) << "row " << i;
    }
  }

  // The device path accumulates in ascending tree order per score word, so
  // on NaN rows it stays bit-identical to the host reference.
  const auto host = predict_scores(model.trees, d.x, 3);
  sim::Device dev(sim::DeviceSpec::rtx4090());
  std::vector<float> scores(host.size());
  predict_scores_device(dev, model.trees, d.x, scores);
  EXPECT_EQ(std::memcmp(scores.data(), host.data(),
                        host.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace gbmo::core
