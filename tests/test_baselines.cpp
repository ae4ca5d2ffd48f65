// Every system in the registry trains on the same data and reaches sane
// quality; relative quality and timing shapes follow the paper's story.
#include <gtest/gtest.h>

#include <algorithm>
#include <ios>
#include <map>
#include <string>
#include <vector>

#include "baselines/system.h"
#include "data/synthetic.h"
#include "obs/profiler.h"

namespace gbmo {
namespace {

data::Dataset easy_multiclass() {
  data::MulticlassSpec spec;
  spec.n_instances = 500;
  spec.n_features = 16;
  spec.n_classes = 5;
  spec.cluster_sep = 2.0;
  return data::make_multiclass(spec);
}

core::TrainConfig quick_config() {
  core::TrainConfig cfg;
  cfg.n_trees = 8;
  cfg.max_depth = 4;
  cfg.learning_rate = 0.6f;
  cfg.min_instances_per_node = 5;
  cfg.max_bins = 32;
  return cfg;
}

// Every registered system, by the paper's label (its first alias) where it
// has one, else by its canonical name.
std::vector<std::string> system_labels() {
  std::vector<std::string> labels;
  for (const auto& info : registered_systems()) {
    labels.push_back(info.aliases.empty() ? info.name : info.aliases.front());
  }
  return labels;
}

// Each system's modeled seconds on easy_multiclass() with quick_config(),
// pinned bitwise: naming or regrouping charges must not move the modeled
// clock.
const std::map<std::string, double>& pinned_modeled_seconds() {
  static const std::map<std::string, double> pins = {
      {"ours", 0x1.c05fba739cf8ap-9},
      {"ours-data", 0x1.72c57391d9ff5p-7},
      {"ours-voting", 0x1.e8a98adb24364p-8},
      {"xgboost", 0x1.c7d4e5c864014p-7},
      {"lightgbm", 0x1.56699f5bedce7p-4},
      {"catboost", 0x1.44b32abbbdc91p-5},
      {"sk-boost", 0x1.756cc0f4949adp-2},
      {"mo-fu", 0x1.8eb1544a6772bp-6},
      {"mo-sp", 0x1.d08bb60ab9ae7p-5},
  };
  return pins;
}

class AllSystemsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllSystemsTest, TrainsToReasonableAccuracy) {
  const auto d = easy_multiclass();
  auto system = baselines::make_system(GetParam(), quick_config());
  obs::Profiler prof(/*capture_trace=*/false);
  system->set_sink(&prof);
  system->fit(d);
  const auto result = system->evaluate(d);
  EXPECT_EQ(result.metric, "accuracy%");
  EXPECT_GT(result.value, 75.0) << GetParam() << " underfits separable blobs";
  EXPECT_GT(system->report().modeled_seconds, 0.0);
  EXPECT_EQ(system->report().per_tree_seconds.size(), 8u);
  // Every system books its resident device memory.
  EXPECT_GT(system->report().peak_device_bytes, 0u) << GetParam();

  ASSERT_TRUE(pinned_modeled_seconds().count(GetParam())) << "no pin";
  EXPECT_EQ(system->report().modeled_seconds,
            pinned_modeled_seconds().at(GetParam()))
      << std::hexfloat << system->report().modeled_seconds;

  // Every charge names its kernel, so the profile attributes all of the
  // system's time, setup included.
  EXPECT_FALSE(prof.kernels().count("unattributed"));
  EXPECT_TRUE(prof.kernels().count("quantize_bin"));
  EXPECT_TRUE(prof.kernels().count("h2d_transfer"));
}

INSTANTIATE_TEST_SUITE_P(Registry, AllSystemsTest,
                         ::testing::ValuesIn(system_labels()),
                         [](const auto& info) {
                           std::string n = info.param;
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

TEST(BaselineShapes, OursFasterThanCpuAndSoBaselines) {
  // GPU advantages need enough work per kernel to amortize launch overhead
  // and fill the device — the paper's smallest dataset has 60k instances;
  // this shape test uses the largest workload the unit-test budget allows.
  data::MulticlassSpec spec;
  spec.n_instances = 4000;
  spec.n_features = 40;
  spec.n_classes = 10;
  spec.cluster_sep = 2.0;
  const auto d = data::make_multiclass(spec);

  auto cfg = quick_config();
  cfg.n_trees = 4;
  cfg.max_depth = 5;

  auto ours = baselines::make_system("ours", cfg);
  auto mofu = baselines::make_system("mo-fu", cfg);
  auto xgb = baselines::make_system("xgboost", cfg);
  ours->fit(d);
  mofu->fit(d);
  xgb->fit(d);

  // The headline claims: GPU >> CPU, and the multi-output consolidation
  // beats d single-output ensembles.
  EXPECT_LT(ours->report().modeled_seconds * 5, mofu->report().modeled_seconds);
  EXPECT_LT(ours->report().modeled_seconds, xgb->report().modeled_seconds);
}

TEST(BaselineShapes, SketchBoostSketchSmallerThanOutputs) {
  data::MulticlassSpec spec;
  spec.n_instances = 400;
  spec.n_features = 12;
  spec.n_classes = 30;
  spec.cluster_sep = 2.0;
  const auto d = data::make_multiclass(spec);

  auto cfg = quick_config();
  auto sk = baselines::make_system("sk-boost", cfg);
  sk->fit(d);
  // Quality should survive sketching on separable data.
  EXPECT_GT(sk->evaluate(d).value, 60.0);
}

}  // namespace
}  // namespace gbmo
