// Quickstart: train a multi-output GBDT on synthetic multiclass data,
// evaluate it, inspect the timing report, and round-trip the model file.
//
//   $ ./examples/quickstart
//
// This walks the same API a downstream user would use:
//   1. build (or load) a data::Dataset
//   2. configure core::TrainConfig
//   3. core::GbmoBooster::fit -> core::Model
//   4. Model::predict / Model::evaluate
//   5. core::save_model / core::load_model
#include <cstdio>

#include "core/booster.h"
#include "core/model_io.h"
#include "data/synthetic.h"

int main() {
  using namespace gbmo;

  // 1. A 6-class problem with correlated informative features.
  data::MulticlassSpec spec;
  spec.n_instances = 3000;
  spec.n_features = 30;
  spec.n_classes = 6;
  spec.cluster_sep = 1.8;
  spec.seed = 2025;
  const auto full = data::make_multiclass(spec);
  const auto split = data::split_dataset(full, /*test_fraction=*/0.2);
  std::printf("dataset: %zu train / %zu test instances, %zu features, %d classes\n",
              split.train.n_instances(), split.test.n_instances(),
              split.train.n_features(), split.train.n_outputs());

  // 2. Training configuration (defaults follow the paper's setup; scaled
  //    down here so the example runs in a blink). Designated initializers
  //    name the fields to change; every other field keeps its default.
  const core::TrainConfig cfg{
      .n_trees = 40, .max_depth = 6, .learning_rate = 0.5f, .max_bins = 64};

  // 3. Train. One booster call runs the full pipeline: quantization,
  //    gradients, adaptive histogram construction, split selection,
  //    partitioning, leaf fitting.
  core::GbmoBooster booster(cfg);
  const auto model = booster.fit(split.train);

  // 4. Evaluate.
  const auto train_eval = model.evaluate(split.train);
  const auto test_eval = model.evaluate(split.test);
  std::printf("train accuracy: %.2f%%\ntest accuracy:  %.2f%%\n",
              train_eval.value, test_eval.value);

  // The report carries the modeled device time, bucketed by pipeline phase
  // (Figure 4 of the paper comes from exactly this accounting).
  const auto& report = booster.report();
  std::printf("modeled training time on an RTX 4090: %.4f s (%d trees)\n",
              report.modeled_seconds, report.trees_trained);
  for (const auto& [phase, seconds] : report.phase_seconds) {
    std::printf("  %-10s %.4f s\n", phase.c_str(), seconds);
  }

  // 5. Persist and reload.
  core::save_model("/tmp/gbmo_quickstart.model", model);
  const auto loaded = core::load_model("/tmp/gbmo_quickstart.model");
  const auto reload_eval = loaded.evaluate(split.test);
  std::printf("reloaded model test accuracy: %.2f%% (must match)\n",
              reload_eval.value);
  return reload_eval.value == test_eval.value ? 0 : 1;
}
