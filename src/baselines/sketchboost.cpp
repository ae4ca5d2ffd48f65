#include "baselines/sketchboost.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"
#include "core/gradients.h"
#include "sim/cost_model.h"
#include "sim/launch.h"

namespace gbmo::baselines {

namespace {
// py-boost is a Python/CuPy framework; each boosting round pays interpreter
// and kernel-dispatch overhead independent of the data size. This constant
// reproduces its high flat baseline on small datasets (Table 2's Otto row).
constexpr double kPyBoostPerRound = 0.045;
}  // namespace

SketchBoostSystem::SketchBoostSystem(core::TrainConfig config,
                                     sim::DeviceSpec spec, sim::LinkSpec link,
                                     int top_k)
    : config_(config), spec_(std::move(spec)), link_(link), top_k_(top_k) {
  // SketchBoost quantizes like the others but has no zero-bin subtraction or
  // bin packing; py-boost's CuPy kernels accumulate in shared memory.
  config_.warp_opt = false;
  config_.sparsity_aware = false;
  config_.hist_method = core::HistMethod::kShared;
}

void SketchBoostSystem::fit(const data::Dataset& train) {
  const std::size_t n = train.n_instances();
  const int d = train.n_outputs();
  n_outputs_ = d;
  const int k_dims = std::min(top_k_, d);

  sim::DeviceGroup group(spec_, std::max(1, config_.n_devices), link_);
  group.set_sink(sink_);
  report_ = core::TrainReport{};

  group.set_phase("setup");
  data::BinCuts cuts = data::BinCuts::build(train.x, config_.max_bins);
  data::BinnedMatrix binned(train.x, cuts);
  {
    for (int i = 0; i < group.size(); ++i) {
      auto& dev = group.device(i);
      sim::KernelStats s;
      s.blocks = std::max<std::uint64_t>(1, n / 256);
      s.gmem_coalesced_bytes =
          static_cast<std::uint64_t>(n) * train.n_features() * (sizeof(float) + 1);
      sim::charge_kernel(dev, "quantize_bin", s);
      sim::charge_seconds(dev, "h2d_transfer",
                          static_cast<double>(binned.byte_size()) /
                              static_cast<double>(group.size()) /
                              dev.spec().pcie_bandwidth);
    }
  }

  // Split search runs on a k_dims-output layout; growth is single-device
  // (py-boost), with multi-GPU dividing rows for histogram work.
  core::TrainConfig grow_cfg = config_;
  grow_cfg.n_devices = 1;
  grow_cfg.n_nodes = 1;
  core::GrowerContext ctx = core::GrowerContext::create(binned, cuts, k_dims, grow_cfg);
  sim::DeviceGroup solo(spec_, 1, link_);
  solo.set_sink(sink_);
  core::TreeGrower grower(solo, ctx);

  auto loss = core::Loss::default_for(train.task());

  std::vector<float> scores(n * static_cast<std::size_t>(d), 0.0f);
  std::vector<float> g(scores.size()), h(scores.size());
  std::vector<float> gk(n * static_cast<std::size_t>(k_dims));
  std::vector<float> hk(gk.size());
  const float lr = config_.learning_rate;
  const float lambda = config_.lambda_l2;

  report_.setup_seconds = group.max_modeled_seconds();
  double prev_total = solo.device(0).modeled_seconds();

  for (int t = 0; t < config_.n_trees; ++t) {
    solo.set_phase("gradient");
    core::compute_gradients(solo.device(0), *loss, scores, train.y, g, h);

    // --- sketch: Top-K outputs by total |g| -------------------------------
    solo.set_phase("sketch");
    std::vector<double> magnitude(static_cast<std::size_t>(d), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (int k = 0; k < d; ++k) {
        magnitude[static_cast<std::size_t>(k)] +=
            std::fabs(g[i * static_cast<std::size_t>(d) + static_cast<std::size_t>(k)]);
      }
    }
    std::vector<int> order(static_cast<std::size_t>(d));
    std::iota(order.begin(), order.end(), 0);
    std::partial_sort(order.begin(), order.begin() + k_dims, order.end(),
                      [&](int a, int b) {
                        return magnitude[static_cast<std::size_t>(a)] >
                               magnitude[static_cast<std::size_t>(b)];
                      });
    // Gather the sketched gradient columns.
    for (std::size_t i = 0; i < n; ++i) {
      for (int kk = 0; kk < k_dims; ++kk) {
        const auto src = i * static_cast<std::size_t>(d) +
                         static_cast<std::size_t>(order[static_cast<std::size_t>(kk)]);
        gk[i * static_cast<std::size_t>(k_dims) + static_cast<std::size_t>(kk)] = g[src];
        hk[i * static_cast<std::size_t>(k_dims) + static_cast<std::size_t>(kk)] = h[src];
      }
    }
    {
      sim::KernelStats s;
      s.blocks = std::max<std::uint64_t>(1, n / 256);
      s.gmem_coalesced_bytes = static_cast<std::uint64_t>(n) *
                               static_cast<std::uint64_t>(d) * 2 * sizeof(float);
      s.gmem_random_accesses = n * static_cast<std::uint64_t>(k_dims);
      s.flops = n * static_cast<std::uint64_t>(d);
      sim::charge_kernel(solo.device(0), "sketch_topk", s);
    }

    // --- grow on the sketch ------------------------------------------------
    core::GrownTree grown = grower.grow(gk, hk);

    // --- refit leaves on all d outputs -------------------------------------
    solo.set_phase("leaf");
    std::vector<std::vector<sim::GradPair>> leaf_totals;
    std::vector<std::int32_t> leaf_slot(grown.tree.n_nodes(), -1);
    for (std::size_t node_id = 0; node_id < grown.tree.n_nodes(); ++node_id) {
      if (grown.tree.node(node_id).is_leaf()) {
        leaf_slot[node_id] = static_cast<std::int32_t>(leaf_totals.size());
        leaf_totals.emplace_back(static_cast<std::size_t>(d), sim::GradPair{});
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      auto& totals =
          leaf_totals[static_cast<std::size_t>(leaf_slot[static_cast<std::size_t>(
              grown.leaf_of_row[i])])];
      for (int k = 0; k < d; ++k) {
        const auto idx = i * static_cast<std::size_t>(d) + static_cast<std::size_t>(k);
        totals[static_cast<std::size_t>(k)].g += g[idx];
        totals[static_cast<std::size_t>(k)].h += h[idx];
      }
    }
    {
      sim::KernelStats s;
      s.blocks = std::max<std::uint64_t>(1, n / 256);
      s.gmem_coalesced_bytes = static_cast<std::uint64_t>(n) *
                               static_cast<std::uint64_t>(d) * 2 * sizeof(float);
      s.atomic_global_ops = n;
      s.flops = n * static_cast<std::uint64_t>(d) * 2;
      sim::charge_kernel(solo.device(0), "leaf_refit", s);
    }

    // Rebuild the tree with d-dimensional leaves.
    core::Tree full_tree(d);
    {
      std::vector<core::TreeNode> nodes(grown.tree.raw_nodes().begin(),
                                        grown.tree.raw_nodes().end());
      std::vector<float> values;
      values.reserve(leaf_totals.size() * static_cast<std::size_t>(d));
      for (auto& node : nodes) {
        if (node.feature >= 0) continue;
        const auto& totals =
            leaf_totals[static_cast<std::size_t>(leaf_slot[static_cast<std::size_t>(
                &node - nodes.data())])];
        node.leaf_offset = static_cast<std::int32_t>(values.size());
        for (int k = 0; k < d; ++k) {
          const auto& tt = totals[static_cast<std::size_t>(k)];
          values.push_back(-lr * tt.g / (tt.h + lambda));
        }
      }
      full_tree.set_raw(std::move(nodes), std::move(values), d);
    }

    // Score update from the leaf map.
    solo.set_phase("update");
    core::update_scores_from_leaves(solo.device(0), full_tree, grown.leaf_of_row,
                                    scores);
    sim::charge_seconds(solo.device(0), "pyboost_round", kPyBoostPerRound);

    trees_.push_back(std::move(full_tree));
    const double total = solo.device(0).modeled_seconds();
    report_.per_tree_seconds.push_back(total - prev_total);
    prev_total = total;
  }

  // Multi-GPU: rows divide across devices for the histogram-dominated work;
  // the fixed py-boost overhead does not.
  const int devs = group.size();
  double seconds = solo.device(0).modeled_seconds();
  if (devs > 1) {
    const double fixed = kPyBoostPerRound * config_.n_trees;
    seconds = fixed + (seconds - fixed) / devs;
    for (auto& s : report_.per_tree_seconds) {
      s = kPyBoostPerRound + (s - kPyBoostPerRound) / devs;
    }
  }
  report_.modeled_seconds = report_.setup_seconds + seconds;
  report_.trees_trained = config_.n_trees;
  report_.final_train_loss = loss->value(scores, train.y);
  report_.phase_seconds = solo.device(0).phase_seconds();
  report_.peak_device_bytes = solo.device(0).peak_allocated_bytes();
  report_.peak_host_hist_bytes = grower.host_hist_bytes();
}

std::vector<float> SketchBoostSystem::predict(const data::DenseMatrix& x) const {
  return core::predict_scores(trees_, x, n_outputs_);
}

}  // namespace gbmo::baselines
