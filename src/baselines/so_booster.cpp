#include "baselines/so_booster.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "core/gradients.h"
#include "core/split.h"
#include "sim/cost_model.h"
#include "sim/launch.h"

namespace gbmo::baselines {

namespace {

// LightGBM's GPU design keeps split finding on the host: after each split the
// fresh histograms cross PCIe and the host/device pipelines synchronize.
constexpr double kLgbSyncPerSplit = 3e-4;  // host<->device round trip + dispatch

// LightGBM's default num_leaves (the paper fixes depth=7 and otherwise uses
// recommended defaults, §4.1).
constexpr int kLgbNumLeaves = 31;

}  // namespace

SoBooster::SoBooster(core::TrainConfig config, SoVariant variant,
                     sim::DeviceSpec spec, sim::LinkSpec link)
    : config_(config), variant_(variant), spec_(std::move(spec)), link_(link) {
  // Single-output baselines run one ensemble per class. Both XGBoost and
  // LightGBM are sparsity-aware (XGBoost's default-direction trick,
  // LightGBM's EFB) and build histograms in shared memory; neither packs
  // bin ids, so every bin fetch is its own transaction.
  config_.warp_opt = false;
  config_.sparsity_aware = true;
  config_.hist_method = core::HistMethod::kShared;
}

void SoBooster::fit(const data::Dataset& train) {
  const std::size_t n = train.n_instances();
  const int d = train.n_outputs();
  n_outputs_ = d;

  sim::DeviceGroup group(spec_, std::max(1, config_.n_devices), link_);
  group.set_sink(sink_);
  report_ = core::TrainReport{};

  group.set_phase("setup");
  data::BinCuts cuts = data::BinCuts::build(train.x, config_.max_bins);
  data::BinnedMatrix binned(train.x, cuts);
  {
    const std::uint64_t bin_bytes = binned.byte_size();
    for (int i = 0; i < group.size(); ++i) {
      auto& dev = group.device(i);
      sim::KernelStats s;
      s.blocks = std::max<std::uint64_t>(1, n / 256);
      s.gmem_coalesced_bytes =
          static_cast<std::uint64_t>(n) * train.n_features() * (sizeof(float) + 1);
      s.flops = static_cast<std::uint64_t>(n) * train.n_features() * 8;
      sim::charge_kernel(dev, "quantize_bin", s);
      sim::charge_seconds(dev, "h2d_transfer",
                          static_cast<double>(bin_bytes) /
                              static_cast<double>(group.size()) /
                              dev.spec().pcie_bandwidth);
    }
  }

  // Single-output growers share one layout (n_outputs = 1). Multi-device
  // training splits classes across devices (the natural parallelism for d
  // independent ensembles) — approximated by dividing per-class work.
  // The XGBoost-like baseline grows level-wise; the LightGBM-like one uses
  // the core grower's leaf-wise policy with num_leaves = 31 (its default).
  core::TrainConfig grow_cfg = config_;
  grow_cfg.n_devices = 1;
  grow_cfg.n_nodes = 1;
  grow_cfg.growth = core::GrowthPolicy::kLevelWise;
  core::GrowerContext ctx =
      core::GrowerContext::create(binned, cuts, 1, grow_cfg);
  core::TrainConfig lgb_cfg = grow_cfg;
  lgb_cfg.growth = core::GrowthPolicy::kLeafWise;
  lgb_cfg.max_leaves = config_.max_depth < 30
                           ? std::min(kLgbNumLeaves, 1 << config_.max_depth)
                           : kLgbNumLeaves;
  core::GrowerContext lgb_ctx =
      core::GrowerContext::create(binned, cuts, 1, lgb_cfg);
  sim::DeviceGroup solo(spec_, 1, link_);
  solo.set_sink(sink_);

  auto default_loss = core::Loss::default_for(train.task());

  std::vector<float> scores(n * static_cast<std::size_t>(d), 0.0f);
  std::vector<float> g(scores.size()), h(scores.size());
  std::vector<float> gk(n), hk(n);

  trees_.assign(static_cast<std::size_t>(d), {});

  core::TreeGrower level_grower(solo, ctx);
  core::TreeGrower leaf_grower(solo, lgb_ctx);

  double prev_total = solo.device(0).modeled_seconds();
  report_.setup_seconds = group.max_modeled_seconds();

  for (int t = 0; t < config_.n_trees; ++t) {
    solo.set_phase("gradient");
    core::compute_gradients(solo.device(0), *default_loss, scores, train.y, g, h);

    for (int k = 0; k < d; ++k) {
      // Strided gather of output k's gradient columns.
      solo.set_phase("gradient");
      for (std::size_t i = 0; i < n; ++i) {
        gk[i] = g[i * static_cast<std::size_t>(d) + static_cast<std::size_t>(k)];
        hk[i] = h[i * static_cast<std::size_t>(d) + static_cast<std::size_t>(k)];
      }
      {
        sim::KernelStats s;
        s.blocks = std::max<std::uint64_t>(1, n / 256);
        s.gmem_random_accesses = 2 * n;
        s.gmem_coalesced_bytes = static_cast<std::uint64_t>(n) * 2 * sizeof(float);
        sim::charge_kernel(solo.device(0), "gather_output_grads", s);
      }

      core::GrownTree grown = variant_ == SoVariant::kXgbLike
                                  ? level_grower.grow(gk, hk)
                                  : leaf_grower.grow(gk, hk);
      if (variant_ == SoVariant::kLgbLike) {
        // LightGBM's GPU design keeps split finding on the host: each split
        // ships the two fresh child histograms over PCIe and synchronizes the
        // host/device pipelines (plus one round for the root histogram).
        solo.set_phase("transfer");
        auto& dev = solo.device(0);
        const auto n_splits =
            static_cast<double>(grown.tree.n_leaves() > 0
                                    ? grown.tree.n_leaves() - 1
                                    : 0);
        sim::charge_seconds(
            dev, "host_split_sync",
            (2.0 * n_splits + 1.0) * static_cast<double>(ctx.layout.byte_size()) /
                    dev.spec().pcie_bandwidth +
                (n_splits + 1.0) * kLgbSyncPerSplit);
      }

      // Update output k of the scores from the training-time leaf map.
      solo.set_phase("update");
      for (std::size_t i = 0; i < n; ++i) {
        const auto leaf = grown.leaf_of_row[i];
        scores[i * static_cast<std::size_t>(d) + static_cast<std::size_t>(k)] +=
            grown.tree.leaf_values(
                grown.tree.node(static_cast<std::size_t>(leaf)))[0];
      }
      {
        sim::KernelStats s;
        s.blocks = std::max<std::uint64_t>(1, n / 256);
        s.gmem_coalesced_bytes = static_cast<std::uint64_t>(n) * 3 * sizeof(float);
        s.gmem_random_accesses = n;
        sim::charge_kernel(solo.device(0), "update_output_scores", s);
      }

      trees_[static_cast<std::size_t>(k)].push_back(std::move(grown.tree));
    }

    const double total = solo.device(0).modeled_seconds();
    report_.per_tree_seconds.push_back(total - prev_total);
    prev_total = total;
  }

  // With g devices, the d independent ensembles are distributed class-wise;
  // the wall clock divides by min(g, d) with no synchronization needed.
  const double class_parallel =
      std::min<double>(group.size(), std::max(1, d));
  const double solo_seconds = solo.device(0).modeled_seconds();
  report_.modeled_seconds =
      report_.setup_seconds + solo_seconds / class_parallel;
  for (auto& s : report_.per_tree_seconds) s /= class_parallel;
  report_.trees_trained = config_.n_trees;
  report_.final_train_loss = default_loss->value(scores, train.y);
  report_.phase_seconds = solo.device(0).phase_seconds();
  for (auto& [phase, sec] : report_.phase_seconds) sec /= class_parallel;
  report_.peak_device_bytes = solo.device(0).peak_allocated_bytes();
  report_.peak_host_hist_bytes =
      level_grower.host_hist_bytes() + leaf_grower.host_hist_bytes();
}

std::vector<float> SoBooster::predict(const data::DenseMatrix& x) const {
  std::vector<float> scores(x.n_rows() * static_cast<std::size_t>(n_outputs_), 0.0f);
  for (int k = 0; k < n_outputs_; ++k) {
    for (const auto& tree : trees_[static_cast<std::size_t>(k)]) {
      for (std::size_t i = 0; i < x.n_rows(); ++i) {
        const auto leaf = tree.find_leaf(x.row(i));
        scores[i * static_cast<std::size_t>(n_outputs_) + static_cast<std::size_t>(k)] +=
            tree.leaf_values(tree.node(static_cast<std::size_t>(leaf)))[0];
      }
    }
  }
  return scores;
}

}  // namespace gbmo::baselines
