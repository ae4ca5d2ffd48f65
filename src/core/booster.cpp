#include "core/booster.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "core/goss.h"
#include "core/gradients.h"
#include "core/model_io.h"
#include "data/bundling.h"
#include "data/paged_dataset.h"
#include "data/sketch.h"
#include "sim/cost_model.h"
#include "sim/faults.h"
#include "sim/launch.h"

namespace gbmo::core {

namespace {

// Scopes the config's process-wide knobs to one fit() call: the fault plan
// (TrainConfig::faults) and the scheduler width (TrainConfig::sim_threads)
// are applied on entry and undone on every exit, return or throw, so a later
// fit or compiled-engine batch in the same process falls back to whatever
// --sim-faults / GBMO_SIM_FAULTS and --sim-threads / GBMO_SIM_THREADS set up.
class FitScope {
 public:
  explicit FitScope(const TrainConfig& cfg)
      : faults_(!cfg.faults.empty()), threads_(cfg.sim_threads > 0) {
    if (faults_) sim::set_sim_faults(cfg.faults);
    if (threads_) prev_threads_ = sim::set_sim_threads(cfg.sim_threads);
  }
  FitScope(const FitScope&) = delete;
  FitScope& operator=(const FitScope&) = delete;
  ~FitScope() {
    if (faults_) sim::reset_sim_faults();
    if (threads_) sim::set_sim_threads(prev_threads_);
  }

 private:
  bool faults_;
  bool threads_;
  int prev_threads_ = 0;
};

}  // namespace

data::DenseMatrix Model::encode(const data::DenseMatrix& x) const {
  data::DenseMatrix out = x;
  for (const auto& table : categoricals) {
    const auto col = static_cast<std::size_t>(table.col);
    GBMO_CHECK(col < x.n_cols())
        << "model categorical column " << table.col << " out of range for "
        << x.n_cols() << " features";
    for (std::size_t i = 0; i < x.n_rows(); ++i) {
      out.at(i, col) = table.value_for(x.at(i, col));
    }
  }
  return out;
}

std::vector<float> Model::predict_staged(const data::DenseMatrix& x,
                                         std::size_t n_trees) const {
  const std::span<const Tree> prefix(trees.data(), std::min(n_trees, trees.size()));
  if (prefix.empty()) {
    return std::vector<float>(x.n_rows() * static_cast<std::size_t>(n_outputs), 0.0f);
  }
  if (has_categoricals()) return predict_scores(prefix, encode(x), n_outputs);
  return predict_scores(prefix, x, n_outputs);
}

std::vector<float> Model::predict_proba(const data::DenseMatrix& x) const {
  auto scores = predict(x);
  const auto d = static_cast<std::size_t>(n_outputs);
  switch (task) {
    case data::TaskKind::kMulticlass:
      for (std::size_t i = 0; i < x.n_rows(); ++i) {
        float* s = scores.data() + i * d;
        float max_s = s[0];
        for (std::size_t k = 1; k < d; ++k) max_s = std::max(max_s, s[k]);
        float sum = 0.0f;
        for (std::size_t k = 0; k < d; ++k) {
          s[k] = std::exp(s[k] - max_s);
          sum += s[k];
        }
        for (std::size_t k = 0; k < d; ++k) s[k] /= sum;
      }
      break;
    case data::TaskKind::kMultilabel:
      for (auto& s : scores) s = 1.0f / (1.0f + std::exp(-s));
      break;
    case data::TaskKind::kMultiregression:
    case data::TaskKind::kRanking:
      break;  // raw scores are the predictions
  }
  return scores;
}

double TrainReport::extrapolate_seconds(int n_trees) const {
  if (per_tree_seconds.empty()) return modeled_seconds;
  // Skip the first tree (cold caches / first-touch effects are not modeled,
  // but root-level setup is) and average the rest.
  double sum = 0.0;
  std::size_t count = 0;
  const std::size_t skip = per_tree_seconds.size() > 1 ? 1 : 0;
  for (std::size_t i = skip; i < per_tree_seconds.size(); ++i) {
    sum += per_tree_seconds[i];
    ++count;
  }
  const double per_tree = count > 0 ? sum / static_cast<double>(count) : 0.0;
  return setup_seconds + per_tree * n_trees;
}

double TrainReport::histogram_fraction() const {
  double hist = 0.0;
  double total = 0.0;
  for (const auto& [phase, sec] : phase_seconds) {
    total += sec;
    if (phase == "histogram") hist += sec;
  }
  return total > 0 ? hist / total : 0.0;
}

GbmoBooster::GbmoBooster(TrainConfig config, sim::DeviceSpec spec,
                         sim::LinkSpec link)
    : config_(config), spec_(std::move(spec)), link_(link) {
  // Fail fast on nonsensical knobs (bad bin counts, GOSS fractions, ...)
  // instead of asserting deep inside quantization or the grower.
  validate_train_config(config_);
}

Model GbmoBooster::fit(const data::Dataset& train, const Loss* loss_override,
                       const data::Dataset* valid) {
  const std::size_t n = train.n_instances();
  const int d = train.n_outputs();
  GBMO_CHECK(n > 0 && d >= 1);

  // Arm the race/memory checker in report mode unless a stronger
  // process-wide mode (env or set_sim_check) is already active.
  if (config_.sim_check && !sim::sim_check_enabled()) {
    sim::set_sim_check(sim::CheckMode::kReport);
  }
  // Config-level fault plan and scheduler width, scoped to this fit (0
  // threads keeps the process default; results are identical either way).
  FitScope fit_scope(config_);

  // Topology (DESIGN.md §13): n_nodes × gpus-per-node, intra-node traffic on
  // the booster's link, inter-node traffic on the configured network link.
  // A single-node topology passes the intra link for both, which keeps the
  // cost model identical to the historical flat group bit-for-bit.
  const int n_devices = std::max(1, config_.n_devices);
  const int n_nodes = std::max(1, config_.n_nodes);
  const sim::Topology topo{n_nodes, n_devices / n_nodes};
  const sim::LinkSpec inter =
      n_nodes > 1 ? sim::LinkSpec{config_.inter_gbps * 1e9 / 8.0,
                                  config_.inter_latency_us * 1e-6}
                  : link_;
  sim::DeviceGroup group(spec_, topo, link_, inter);
  group.set_sink(sink_);
  report_ = TrainReport{};

  // --- setup: categorical encoding, quantization, binning, packing --------
  group.set_phase("setup");

  // Categorical columns (DESIGN.md §14): replace each configured column with
  // its ordered target statistic before anything downstream sees the matrix.
  // The encoding depends only on (x, y, cat_cols) — not on the topology, the
  // thread count or the fault schedule — so every training mode quantizes
  // identical floats and the bitwise-identity invariants carry over intact.
  data::CategoricalTrainEncoding cat_encoding;
  const data::DenseMatrix* train_x = &train.x;
  if (!config_.cat_cols.empty()) {
    sim::TraceSpan cat_span(group, "cat_encode");
    std::vector<sim::Device*> devs;
    devs.reserve(static_cast<std::size_t>(group.size()));
    for (int i = 0; i < group.size(); ++i) devs.push_back(&group.device(i));
    cat_encoding =
        data::encode_training_matrix(train.x, train.y, config_.cat_cols, devs);
    train_x = &cat_encoding.x;
  }
  const data::DenseMatrix& x_train = *train_x;

  const bool out_of_core = config_.out_of_core_enabled();
  data::BinCuts cuts;
  if (out_of_core) {
    // Streaming ingest (DESIGN.md §12): bin cuts from one pass of mergeable
    // quantile sketches over row chunks. In the sketch's exact regime (the
    // default) the cuts are bitwise-equal to BinCuts::build, which is what
    // makes every downstream artifact — bins, histograms, trees — identical
    // to in-core training.
    const std::size_t chunk_rows =
        config_.stream_chunk_rows > 0
            ? static_cast<std::size_t>(config_.stream_chunk_rows)
            : n;
    data::SketchSet sketches(train.n_features(), config_.max_bins);
    for (std::size_t start = 0; start < n; start += chunk_rows) {
      sketches.add_rows(x_train, start, std::min(n, start + chunk_rows));
    }
    cuts = sketches.finalize();
  } else {
    cuts = data::BinCuts::build(x_train, config_.max_bins);
  }
  data::BinnedMatrix binned(x_train, cuts);
  if (config_.warp_opt) binned.pack();

  {
    sim::TraceSpan setup_span(group, "setup");
    // Binning kernel + host->device transfer of the (packed) bin matrix and
    // labels, charged per device (feature-parallel replicates rows; a
    // device's share of columns is what it receives, approximated as the
    // full matrix divided evenly). Out-of-core mode skips the bulk bin-matrix
    // transfer and residency: tiles page in on demand during training (phase
    // "page"), and only the score/gradient buffers are resident up front.
    const std::uint64_t bin_bytes = binned.byte_size();
    for (int i = 0; i < group.size(); ++i) {
      auto& dev = group.device(i);
      sim::KernelStats s;
      s.blocks = std::max<std::uint64_t>(1, n / 256);
      s.gmem_coalesced_bytes =
          static_cast<std::uint64_t>(n) * train.n_features() * (sizeof(float) + 1);
      s.flops = static_cast<std::uint64_t>(n) * train.n_features() * 8;  // search
      sim::charge_kernel(dev, "quantize_bin", s);
      if (!out_of_core) {
        {
          sim::KernelTag tag(dev, "h2d_transfer");
          dev.add_modeled_time(static_cast<double>(bin_bytes) /
                                   static_cast<double>(group.size()) /
                                   dev.spec().pcie_bandwidth +
                               1e-4);
        }
        dev.note_alloc(bin_bytes / static_cast<std::size_t>(group.size()) +
                       n * static_cast<std::size_t>(d) * 4 * sizeof(float));
      } else {
        dev.note_alloc(n * static_cast<std::size_t>(d) * 4 * sizeof(float));
      }
    }
  }

  // Optional CSC view for the §3.2 level-sweep build path.
  std::unique_ptr<data::BinnedCscMatrix> csc;
  if (config_.csc_level_sweep) {
    sim::TraceSpan csc_span(group, "csc_build");
    csc = std::make_unique<data::BinnedCscMatrix>(binned, cuts);
    for (int i = 0; i < group.size(); ++i) {
      auto& dev = group.device(i);
      dev.note_alloc(csc->byte_size() / static_cast<std::size_t>(group.size()));
      sim::KernelTag tag(dev, "h2d_transfer");
      dev.add_modeled_time(static_cast<double>(csc->byte_size()) /
                           static_cast<double>(group.size()) /
                           dev.spec().pcie_bandwidth);
    }
  }

  GrowerContext ctx = GrowerContext::create(binned, cuts, d, config_);
  ctx.csc = csc.get();

  // Out-of-core tile partition: hands the grower the paging layer so it
  // stages every column it reads into a bounded per-device block cache.
  std::unique_ptr<data::PagedDataset> paged;
  if (out_of_core) {
    paged = std::make_unique<data::PagedDataset>(
        binned, static_cast<std::size_t>(std::max(0, config_.stream_chunk_rows)));
    ctx.paged = paged.get();
  }

  // Exclusive feature bundling (§EFB, DESIGN.md §11): plan once at setup,
  // materialize the bundled bin matrix, and hand both to the grower. The CSC
  // level sweep already touches only stored nonzeros, so bundling adds
  // nothing there (sweep wins precedence); an all-dense dataset yields no
  // merges and bundling stays off.
  std::unique_ptr<data::FeatureBundling> bundling;
  std::unique_ptr<data::BinnedMatrix> bundled;
  if (config_.efb && !config_.csc_level_sweep) {
    sim::TraceSpan efb_span(group, "efb_setup");
    auto plan = data::FeatureBundling::plan(binned, cuts);
    if (plan.n_merged() > 0) {
      bundling = std::make_unique<data::FeatureBundling>(std::move(plan));
      bundled = std::make_unique<data::BinnedMatrix>(
          data::build_bundled_matrix(binned, cuts, *bundling));
      // One scatter pass over the bin matrix builds the bundled columns,
      // which then travel to every device alongside the original bins.
      const std::uint64_t bundled_bytes = bundled->byte_size();
      for (int i = 0; i < group.size(); ++i) {
        auto& dev = group.device(i);
        sim::KernelStats s;
        s.blocks = std::max<std::uint64_t>(1, n / 256);
        s.gmem_coalesced_bytes =
            static_cast<std::uint64_t>(n) * train.n_features() + bundled_bytes;
        sim::charge_kernel(dev, "efb_bundle", s);
        {
          sim::KernelTag tag(dev, "h2d_transfer");
          dev.add_modeled_time(static_cast<double>(bundled_bytes) /
                               static_cast<double>(group.size()) /
                               dev.spec().pcie_bandwidth);
        }
        dev.note_alloc(static_cast<std::size_t>(bundled_bytes) /
                       static_cast<std::size_t>(group.size()));
      }
      ctx.apply_bundling(*bundling, *bundled);
    }
  }
  TreeGrower grower(group, ctx);

  std::unique_ptr<Loss> default_loss;
  const Loss* loss = loss_override;
  if (loss == nullptr) {
    default_loss = Loss::default_for(train.task());
    loss = default_loss.get();
  }

  std::vector<float> scores(n * static_cast<std::size_t>(d), 0.0f);
  std::vector<float> g(scores.size());
  std::vector<float> h(scores.size());

  Model model;
  model.task = train.task();
  model.n_outputs = d;
  model.cuts = cuts;
  model.categoricals = cat_encoding.tables;
  model.trees.reserve(static_cast<std::size_t>(config_.n_trees));

  report_.setup_seconds = group.max_modeled_seconds();
  double prev_total = report_.setup_seconds;

  // Stochastic boosting state (both samplers default off = paper setup).
  Rng sampler(config_.seed ^ 0x5b0057e12ULL);
  std::vector<std::uint32_t> sampled_rows;
  std::vector<std::uint32_t> sampled_features;
  std::vector<float> valid_scores;
  data::DenseMatrix valid_x_encoded;
  const data::DenseMatrix* valid_x = nullptr;
  if (valid != nullptr) {
    valid_scores.assign(valid->n_instances() * static_cast<std::size_t>(d), 0.0f);
    // Validation rows are unseen data: encode them through the *final*
    // category tables, exactly as Model::encode will at predict time.
    valid_x = &valid->x;
    if (model.has_categoricals()) {
      valid_x_encoded = model.encode(valid->x);
      valid_x = &valid_x_encoded;
    }
  }
  double best_valid = 0.0;
  int rounds_since_best = 0;
  std::size_t best_tree_count = 0;

  // Resume from a checkpoint (config.resume): restore the partial model, the
  // running scores, the sampler RNG and the early-stopping state, then
  // continue at the recorded tree — the final model is bitwise-identical to
  // an uninterrupted run. A missing checkpoint file is a fresh start.
  int start_tree = 0;
  if (config_.resume && !config_.checkpoint_path.empty()) {
    if (auto ckpt = load_checkpoint(config_.checkpoint_path)) {
      GBMO_CHECK(ckpt->model.n_outputs == d &&
                 ckpt->scores.size() == scores.size())
          << "checkpoint does not match this dataset";
      GBMO_CHECK(ckpt->trees_completed <= config_.n_trees)
          << "checkpoint has more trees than this config trains";
      GBMO_CHECK(ckpt->valid_scores.size() == valid_scores.size())
          << "checkpoint validation state does not match";
      model.trees = std::move(ckpt->model.trees);
      std::copy(ckpt->scores.begin(), ckpt->scores.end(), scores.begin());
      sampler.restore(ckpt->rng_state);
      valid_scores = std::move(ckpt->valid_scores);
      report_.valid_metric_per_tree = std::move(ckpt->valid_metric_per_tree);
      best_valid = ckpt->best_valid;
      rounds_since_best = ckpt->rounds_since_best;
      best_tree_count = static_cast<std::size_t>(ckpt->best_tree_count);
      start_tree = ckpt->trees_completed;
    }
  }

  // Device-loss failover applies in every mode: the functional model state
  // (scores, the canonical histograms, the row/column partitions) lives in
  // host memory, so the survivors re-partition both the columns and the row
  // shards and redo the tree the loss interrupted — the final model stays
  // bitwise-identical to the fault-free run. A node-wide loss (kill-node)
  // takes out every GPU on the casualty's node before the redo.
  for (int t = start_tree; t < config_.n_trees; ++t) {
    sim::TraceSpan tree_span(group, "tree " + std::to_string(t));
    group.set_trace_tree(t);

    // Snapshot the per-tree mutable state while a fault plan is armed: a
    // device loss can interrupt the tree after the sampler drew or after the
    // scores were updated, and the redo on the survivors must start from the
    // exact state the fault-free tree started from.
    std::array<std::uint64_t, 4> rng_snapshot{};
    std::vector<float> scores_snapshot;
    if (sim::sim_faults_enabled()) {
      rng_snapshot = sampler.state();
      scores_snapshot = scores;
    }

    for (;;) {
      try {
        // Stage 1: gradients from the current predictions (replicated per
        // device — every device needs g/h for its feature columns'
        // histogram work). Lost devices are skipped.
        group.set_phase("gradient");
        {
          sim::TraceSpan grad_span(group, "gradients");
          for (int i = 0; i < group.size(); ++i) {
            if (group.is_lost(i)) continue;
            compute_gradients(group.device(i), *loss, scores, train.y, g, h);
          }
        }

        // Row / feature sampling for this tree. GOSS (core/goss.h) replaces
        // uniform subsampling when enabled (validation enforces the mutual
        // exclusion): it amplifies the sampled small-gradient rows' g/h in
        // place, so it must run after the gradient pass — and a failover
        // retry recomputes gradients first, so the amplification is never
        // applied twice.
        sampled_rows.clear();
        if (config_.goss_a > 0.0 || config_.goss_b > 0.0) {
          GossResult goss;
          bool selected = false;
          for (int i = 0; i < group.size(); ++i) {
            if (group.is_lost(i)) continue;
            if (!selected) {
              goss = goss_select(group.device(i), g, h, n, d, config_.goss_a,
                                 config_.goss_b, sampler);
              selected = true;
            } else {
              // g/h are replicated per device (see the gradient pass above):
              // replicas charge the same kernels to keep phase clocks aligned.
              goss_charge_replica(group.device(i), n, d, goss);
            }
          }
          sampled_rows = std::move(goss.rows);
        } else if (config_.subsample < 1.0) {
          for (std::uint32_t r = 0; r < n; ++r) {
            if (sampler.bernoulli(config_.subsample)) sampled_rows.push_back(r);
          }
          if (sampled_rows.empty()) sampled_rows.push_back(sampler.next_u32() % n);
        }
        sampled_features.clear();
        if (config_.colsample_bytree < 1.0) {
          for (std::uint32_t f = 0; f < train.n_features(); ++f) {
            if (sampler.bernoulli(config_.colsample_bytree)) sampled_features.push_back(f);
          }
          if (sampled_features.empty()) {
            sampled_features.push_back(
                static_cast<std::uint32_t>(sampler.next_u32() % train.n_features()));
          }
        }

        // Stages 2+3: histogram construction, split selection, partitioning
        // (the grower switches phases internally).
        GrownTree grown = grower.grow(g, h, sampled_rows, sampled_features);

        // Rows outside the sample were never partitioned: route them through
        // the fresh tree by binned traversal so the incremental update
        // covers all n.
        if (!sampled_rows.empty()) {
          std::uint64_t routed = 0;
          for (std::size_t r = 0; r < n; ++r) {
            if (grown.leaf_of_row[r] >= 0) continue;
            grown.leaf_of_row[r] = grown.tree.find_leaf_binned([&](std::int32_t f) {
              return binned.bin(r, static_cast<std::size_t>(f));
            });
            ++routed;
          }
          sim::KernelStats s;
          s.blocks = std::max<std::uint64_t>(1, routed / 256);
          s.gmem_random_accesses =
              routed * static_cast<std::uint64_t>(config_.max_depth) * 2;
          const int charge_dev = std::max(0, group.first_alive());
          sim::charge_kernel(group.device(charge_dev), "route_unsampled", s);
        }

        // Prediction update via training-time leaf assignment (§3.1.1).
        group.set_phase("update");
        {
          sim::TraceSpan update_span(group, "update");
          // The kernel is replicated per device (feature-parallel keeps a
          // full score copy everywhere); the host-side array is updated once,
          // on the first surviving device.
          bool applied = false;
          for (int i = 0; i < group.size(); ++i) {
            if (group.is_lost(i)) continue;
            update_scores_from_leaves(group.device(i), grown.tree,
                                      grown.leaf_of_row, scores,
                                      /*apply=*/!applied);
            applied = true;
            // Row-partitioned modes: one update covers the whole score
            // array (each device would only touch its own shard).
            if (config_.multi_gpu != MultiGpuMode::kFeatureParallel) break;
          }
        }

        model.trees.push_back(std::move(grown.tree));
        break;  // tree complete
      } catch (const sim::SimDeviceLost& e) {
        // Permanent device (or whole-node) loss mid-tree: mark the
        // casualties, re-partition columns and row shards over the
        // survivors, rewind this tree's state (sampler draws,
        // possibly-applied score update) and redo the same tree.
        if (e.device() < 0 || e.device() >= group.size() ||
            scores_snapshot.empty()) {
          throw;
        }
        if (e.node_wide()) {
          group.kill_node(group.node_of(e.device()));
        } else {
          group.mark_lost(e.device());
        }
        GBMO_CHECK(group.n_alive() >= 1)
            << "device " << e.device() << " lost with no survivors";
        grower.redistribute_over_alive();
        sampler.restore(rng_snapshot);
        std::copy(scores_snapshot.begin(), scores_snapshot.end(),
                  scores.begin());
      }
    }
    const double total = group.max_modeled_seconds();
    report_.per_tree_seconds.push_back(total - prev_total);
    prev_total = total;

    // Validation monitoring + early stopping. The eval device carries id -1
    // so scripted fault plans (which target device ids >= 0) never hit it —
    // its transient retries stay functionally invisible either way.
    if (valid != nullptr) {
      sim::Device eval_dev(spec_, -1);  // inference cost not part of training time
      std::vector<float> tree_scores(valid_scores.size(), 0.0f);
      predict_scores_device(eval_dev, {&model.trees.back(), 1}, *valid_x,
                            tree_scores);
      for (std::size_t i = 0; i < valid_scores.size(); ++i) {
        valid_scores[i] += tree_scores[i];
      }
      const auto eval = evaluate_primary(valid_scores, valid->y);
      report_.valid_metric_per_tree.push_back(eval.value);
      const bool improved =
          model.trees.size() == 1 ||
          (eval.higher_is_better ? eval.value > best_valid : eval.value < best_valid);
      if (improved) {
        best_valid = eval.value;
        rounds_since_best = 0;
        best_tree_count = model.trees.size();
      } else if (config_.early_stopping_rounds > 0 &&
                 ++rounds_since_best >= config_.early_stopping_rounds) {
        report_.early_stopped = true;
        model.trees.resize(best_tree_count);
        break;
      }
    }

    // Periodic checkpoint (atomic tmp+rename): captures everything a resumed
    // fit needs to finish with a bitwise-identical model.
    if (config_.checkpoint_every > 0 && !config_.checkpoint_path.empty() &&
        static_cast<int>(model.trees.size()) % config_.checkpoint_every == 0) {
      Checkpoint ckpt;
      ckpt.trees_completed = static_cast<int>(model.trees.size());
      ckpt.rng_state = sampler.state();
      ckpt.scores = scores;
      ckpt.valid_scores = valid_scores;
      ckpt.valid_metric_per_tree = report_.valid_metric_per_tree;
      ckpt.best_valid = best_valid;
      ckpt.rounds_since_best = rounds_since_best;
      ckpt.best_tree_count = static_cast<int>(best_tree_count);
      ckpt.model = model;
      save_checkpoint(config_.checkpoint_path, ckpt);
    }
  }

  group.set_trace_tree(-1);
  report_.modeled_seconds = group.max_modeled_seconds();
  report_.trees_trained = static_cast<int>(model.trees.size());
  {
    const data::BlockCacheStats paging = grower.paging_stats();
    report_.page_hits = paging.hits;
    report_.page_misses = paging.misses;
    report_.page_evictions = paging.evictions;
    report_.page_bytes_transferred = paging.bytes_transferred;
  }
  report_.comm_intra_bytes = group.intra_traffic_bytes();
  report_.comm_inter_bytes = group.inter_traffic_bytes();
  report_.vote_rounds = grower.vote_rounds();
  report_.vote_misses = grower.vote_misses();
  report_.final_train_loss = loss->value(scores, train.y);
  for (int i = 0; i < group.size(); ++i) {
    report_.peak_device_bytes =
        std::max(report_.peak_device_bytes, group.device(i).peak_allocated_bytes());
  }
  // Phase map of the slowest device (phases run in lockstep across devices).
  double max_total = -1.0;
  for (int i = 0; i < group.size(); ++i) {
    if (group.device(i).modeled_seconds() > max_total) {
      max_total = group.device(i).modeled_seconds();
      report_.phase_seconds = group.device(i).phase_seconds();
    }
  }
  return model;
}

}  // namespace gbmo::core
