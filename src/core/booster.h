// GbmoBooster: the end-to-end GBDT-MO training system (Figure 2).
//
// fit() runs the three-stage pipeline — gradient computation, histogram
// construction / split-candidate generation, split selection + partitioning —
// for every tree on a simulated device group, and returns the trained Model
// together with a TrainReport carrying modeled per-phase timings, per-tree
// timings (for extrapolation to larger tree counts) and memory peaks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/grower.h"
#include "core/loss.h"
#include "core/metrics.h"
#include "core/predictor.h"
#include "core/tree.h"
#include "data/categorical.h"
#include "data/matrix.h"
#include "data/quantize.h"
#include "sim/collectives.h"

namespace gbmo::core {

struct Model {
  data::TaskKind task = data::TaskKind::kMultiregression;
  int n_outputs = 0;
  data::BinCuts cuts;
  std::vector<Tree> trees;
  // Final per-column category -> ordered-statistic tables (empty for a
  // fully numeric model). Predict-time inputs are encoded through these
  // before tree traversal; serialized as a tolerant trailing model section.
  std::vector<data::CategoryTable> categoricals;

  bool has_categoricals() const { return !categoricals.empty(); }
  // Copy of `x` with every categorical column replaced by its final
  // statistic (NaN stays NaN, unseen categories encode as the prior).
  data::DenseMatrix encode(const data::DenseMatrix& x) const;

  // Raw additive scores for a feature matrix (host-side convenience).
  std::vector<float> predict(const data::DenseMatrix& x) const {
    if (has_categoricals()) return predict_scores(trees, encode(x), n_outputs);
    return predict_scores(trees, x, n_outputs);
  }
  // Scores of the first `n_trees` trees only (learning-curve inspection).
  std::vector<float> predict_staged(const data::DenseMatrix& x,
                                    std::size_t n_trees) const;
  // Task-appropriate probabilities: softmax over classes (multiclass) or
  // per-output sigmoid (multilabel); identity for regression.
  std::vector<float> predict_proba(const data::DenseMatrix& x) const;
  // Primary metric on a labelled dataset.
  EvalResult evaluate(const data::Dataset& d) const {
    const auto scores = predict(d.x);
    return evaluate_primary(scores, d.y);
  }
};

struct TrainReport {
  double modeled_seconds = 0.0;  // max over devices (devices run concurrently)
  std::map<std::string, double> phase_seconds;
  std::vector<double> per_tree_seconds;
  double setup_seconds = 0.0;    // quantization + transfers before tree 0
  std::size_t peak_device_bytes = 0;
  // Host bytes of the node-histogram buffers the tree grower allocated
  // (TreeGrower::host_hist_bytes): the widest level's histograms, where
  // the modeled device also keeps that level's parent level.
  std::size_t peak_host_hist_bytes = 0;
  double final_train_loss = 0.0;
  int trees_trained = 0;
  // Validation trace (one entry per tree) when fit() received a validation
  // set; early stopping reads this.
  std::vector<double> valid_metric_per_tree;
  bool early_stopped = false;

  // Out-of-core paging traffic, summed over devices (all zero in in-core
  // mode). Transfer time lives in phase_seconds["page"]; per-transfer events
  // reach the profiler as kernel "block_h2d". See data/paged_dataset.h.
  std::uint64_t page_hits = 0;
  std::uint64_t page_misses = 0;
  std::uint64_t page_evictions = 0;
  std::uint64_t page_bytes_transferred = 0;

  // Collective traffic by link class (sim/collectives.h): payload bytes the
  // cost model moved over intra-node links vs the inter-node network. The
  // data-parallel vs voting-parallel crossover benches read these.
  std::uint64_t comm_intra_bytes = 0;
  std::uint64_t comm_inter_bytes = 0;
  // Voting-parallel diagnostics: exchanges run, and exchanges whose
  // canonical best feature was not among the globally-elected columns.
  std::uint64_t vote_rounds = 0;
  std::uint64_t vote_misses = 0;
  // Devices permanently lost during the fit (kill= / kill-node= faults):
  // the group size minus the devices still alive at the end. Training
  // failed over to the survivors, so the model is unchanged.
  int devices_lost = 0;

  // Extrapolates the modeled time to `n_trees` from the steady-state
  // per-tree cost (tree time is constant across boosting rounds: every tree
  // processes all instances at every level).
  double extrapolate_seconds(int n_trees) const;
  double histogram_fraction() const;  // Fig. 4's ratio
};

class GbmoBooster {
 public:
  explicit GbmoBooster(TrainConfig config,
                       sim::DeviceSpec spec = sim::DeviceSpec::rtx4090(),
                       sim::LinkSpec link = sim::LinkSpec::pcie4());

  // Trains on the dataset with the task's default loss (or a caller-supplied
  // one) and returns the model. The report refers to the latest fit.
  // With a validation set and config.early_stopping_rounds > 0, training
  // stops once the primary validation metric fails to improve for that many
  // consecutive trees, returning the best-so-far prefix of trees.
  Model fit(const data::Dataset& train, const Loss* loss = nullptr,
            const data::Dataset* valid = nullptr);

  const TrainReport& report() const { return report_; }
  const TrainConfig& config() const { return config_; }

  // Optional observability sink (non-owning, e.g. obs::Profiler): attached to
  // every device of the training group for the duration of fit(), receiving
  // per-kernel events plus the setup/tree/level pipeline spans.
  void set_sink(sim::StatsSink* sink) { sink_ = sink; }

 private:
  TrainConfig config_;
  sim::DeviceSpec spec_;
  sim::LinkSpec link_;
  TrainReport report_;
  sim::StatsSink* sink_ = nullptr;
};

}  // namespace gbmo::core
