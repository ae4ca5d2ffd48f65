// predict_proba and staged prediction.
#include <gtest/gtest.h>

#include <cmath>

#include "core/booster.h"
#include "data/synthetic.h"

namespace gbmo::core {
namespace {

Model train_multiclass(data::Dataset& out_data) {
  data::MulticlassSpec spec;
  spec.n_instances = 400;
  spec.n_features = 10;
  spec.n_classes = 4;
  spec.cluster_sep = 1.8;
  out_data = data::make_multiclass(spec);
  TrainConfig cfg;
  cfg.n_trees = 10;
  cfg.max_depth = 4;
  cfg.learning_rate = 0.5f;
  cfg.max_bins = 32;
  cfg.min_instances_per_node = 8;
  GbmoBooster booster(cfg);
  return booster.fit(out_data);
}

TEST(PredictProbaTest, MulticlassProbabilitiesSumToOne) {
  data::Dataset d;
  const auto model = train_multiclass(d);
  const auto proba = model.predict_proba(d.x);
  for (std::size_t i = 0; i < d.n_instances(); ++i) {
    float sum = 0.0f;
    for (int k = 0; k < 4; ++k) {
      const float p = proba[i * 4 + static_cast<std::size_t>(k)];
      EXPECT_GE(p, 0.0f);
      EXPECT_LE(p, 1.0f);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  // argmax of probabilities == argmax of raw scores.
  const auto raw = model.predict(d.x);
  for (std::size_t i = 0; i < d.n_instances(); ++i) {
    int best_p = 0, best_r = 0;
    for (int k = 1; k < 4; ++k) {
      if (proba[i * 4 + static_cast<std::size_t>(k)] >
          proba[i * 4 + static_cast<std::size_t>(best_p)]) best_p = k;
      if (raw[i * 4 + static_cast<std::size_t>(k)] >
          raw[i * 4 + static_cast<std::size_t>(best_r)]) best_r = k;
    }
    EXPECT_EQ(best_p, best_r);
  }
}

TEST(PredictProbaTest, MultilabelSigmoidRange) {
  data::MultilabelSpec spec;
  spec.n_instances = 200;
  spec.n_features = 12;
  spec.n_outputs = 5;
  const auto d = data::make_multilabel(spec);
  TrainConfig cfg;
  cfg.n_trees = 6;
  cfg.max_depth = 3;
  cfg.max_bins = 32;
  GbmoBooster booster(cfg);
  const auto model = booster.fit(d);
  for (const float p : model.predict_proba(d.x)) {
    EXPECT_GT(p, 0.0f);
    EXPECT_LT(p, 1.0f);
  }
}

TEST(StagedPredictTest, PrefixSumsMatchFullModel) {
  data::Dataset d;
  const auto model = train_multiclass(d);
  const auto full = model.predict(d.x);
  const auto all = model.predict_staged(d.x, model.trees.size());
  EXPECT_EQ(all, full);

  const auto none = model.predict_staged(d.x, 0);
  for (float v : none) EXPECT_EQ(v, 0.0f);

  // Staged prediction at k equals summing tree k's contribution onto k-1.
  const auto at3 = model.predict_staged(d.x, 3);
  const auto at4 = model.predict_staged(d.x, 4);
  const auto tree4_only = predict_scores({&model.trees[3], 1}, d.x, 4);
  for (std::size_t i = 0; i < at3.size(); ++i) {
    EXPECT_NEAR(at4[i], at3[i] + tree4_only[i], 1e-4f);
  }
}

}  // namespace
}  // namespace gbmo::core
