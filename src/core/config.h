// Training configuration. Defaults follow the paper's experimental setup
// (§4.1): 100 trees, depth 7, learning rate 1, min 20 instances per node,
// 256 bins.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gbmo::core {

enum class HistMethod : std::uint8_t {
  kAuto,        // adaptive selection per node/level (§3.3, the default)
  kGlobal,      // global-memory atomicAdd (§3.3.2)
  kShared,      // shared-memory tiles (§3.3.3)
  kSortReduce,  // sort_by_key + reduce_by_key (§3.3.4)
};

const char* hist_method_name(HistMethod m);

enum class MultiGpuMode : std::uint8_t {
  kFeatureParallel,  // columns partitioned across devices (§3.4.2)
  kDataParallel,     // rows partitioned, histograms all-reduced
  kVotingParallel,   // rows partitioned; devices vote local top-k features
                     // and only globally-elected columns cross the
                     // inter-node link (LightGBM's parallel voting)
};

const char* multi_gpu_mode_name(MultiGpuMode m);

enum class GrowthPolicy : std::uint8_t {
  kLevelWise,  // Algorithm 1: all splittable nodes of a level at once
  kLeafWise,   // best-first: always split the highest-gain frontier leaf
};

const char* growth_policy_name(GrowthPolicy p);

struct TrainConfig {
  int n_trees = 100;
  int max_depth = 7;               // number of split levels below the root
  float learning_rate = 1.0f;
  int min_instances_per_node = 20;
  int max_bins = 256;
  float lambda_l2 = 1.0f;          // λ in Eq. (2)/(3)
  float min_split_gain = 1e-6f;    // γ threshold for valid splits

  HistMethod hist_method = HistMethod::kAuto;
  bool warp_opt = true;            // bin packing + warp-level access (§3.4.1)
  bool sparsity_aware = true;      // skip zero-bin work, reconstruct by subtraction
  bool csc_storage = false;        // CSC element indirection (mo-sp baseline):
                                   // every nonzero pays an extra random access
  bool csc_level_sweep = false;    // build histograms by streaming the binned
                                   // CSC entries once per level (§3.2) instead
                                   // of dense per-node passes; work becomes
                                   // proportional to nnz (single-device and
                                   // feature-parallel modes)
  bool sibling_subtraction = true; // build smaller child, derive larger one
  double segments_per_block_c = 4.0;  // C in the adaptive segment mapping (§3.1.3)

  // Tree growth policy. Level-wise is the paper's Algorithm 1; leaf-wise is
  // LightGBM's best-first policy: repeatedly split the frontier leaf with
  // the highest gain (deterministic tie-break on the lowest node id).
  GrowthPolicy growth = GrowthPolicy::kLevelWise;
  // Leaf budget per tree (0 = unbounded, i.e. limited by max_depth alone).
  // Applies to both policies: leaf-wise stops splitting at the budget;
  // level-wise keeps only the top-gain splits of each level once the budget
  // is reached, so equal-budget comparisons are honest.
  int max_leaves = 0;

  // Exclusive feature bundling (LightGBM's EFB): mutually-exclusive sparse
  // features share one bundled histogram column, shrinking histogram work.
  // Bundles exist only inside histogram construction — splits, trees and
  // predictions always see original feature ids. Ignored when
  // csc_level_sweep is on (that path is already nnz-proportional) or when
  // no features can be merged.
  bool efb = false;

  // Categorical feature columns (data/categorical.h): before quantization,
  // GbmoBooster replaces each listed column with CatBoost-style ordered
  // target statistics and the model carries the final per-category tables
  // for predict-time encoding. Indices must be unique, non-negative, and
  // within the dataset's feature count (checked at fit). Empty = all
  // features numeric (the historical behaviour, bit-for-bit).
  std::vector<std::int32_t> cat_cols;

  // Gradient-based one-side sampling (GOSS): keep the goss_a fraction of
  // rows with the largest gradient norms, sample a goss_b fraction of the
  // rest, and amplify the sampled small-gradient rows by (1-a)/b. Enabled
  // iff both fractions are > 0; mutually exclusive with subsample < 1.
  double goss_a = 0.0;
  double goss_b = 0.0;

  // Histogram pool budget in MiB (the grower's subtraction cache). When a
  // level / frontier would exceed it, the grower falls back to building one
  // node at a time in a scratch buffer (Figure 7's OOM-avoidance mechanism).
  int hist_budget_mb = 512;

  int n_devices = 1;
  MultiGpuMode multi_gpu = MultiGpuMode::kFeatureParallel;

  // --- multi-node topology (DESIGN.md §13) ---------------------------------
  // Devices are arranged as n_nodes × (n_devices / n_nodes); n_devices must
  // be divisible by n_nodes. Inside a node devices talk over the intra-node
  // link (the booster's LinkSpec, PCIe/NVLink); traffic between nodes
  // crosses a network link parameterized here. With n_nodes == 1 the cost
  // model is the original flat ring, bit-for-bit.
  int n_nodes = 1;
  // Voting-parallel: each device nominates its local top-k features; the
  // top 2k vote-getters are elected and only their histogram columns cross
  // the inter-node ring.
  int voting_k = 8;
  double inter_gbps = 25.0;        // inter-node bandwidth, Gb/s per direction
  double inter_latency_us = 25.0;  // inter-node per-hop latency, µs

  // Host worker threads for the simulator's block scheduler during this
  // fit (0 = process default: --sim-threads, GBMO_SIM_THREADS env, else
  // hardware concurrency; 1 = inline). Only commit-free launches fan out;
  // ordered ones (block 0 commits) run inline at any value. Restored when
  // fit() returns or throws. Purely a host-performance knob — results are
  // bit-identical for every value (see sim/launch.h).
  int sim_threads = 0;

  // Arm the substrate's race & memory checker for this run (sim/checker.h):
  // shared-memory race, OOB/uninitialized-read and barrier-divergence
  // detection through the checked accessor views, reported per kernel via
  // the obs Profiler. Equivalent to --sim-check / GBMO_SIM_CHECK=1; a
  // process-wide sim::set_sim_check(CheckMode::kFail) override (the tests'
  // hard-fail mode) is never downgraded by this flag.
  bool sim_check = false;

  // Stochastic boosting (extensions beyond the paper's evaluation setup;
  // both default off = the paper's configuration):
  double subsample = 1.0;          // row fraction sampled per tree
  double colsample_bytree = 1.0;   // feature fraction sampled per tree
  // Stop after this many trees without validation improvement (0 = off;
  // requires a validation set passed to fit()).
  int early_stopping_rounds = 0;

  std::uint64_t seed = 0;

  // Fault-injection plan for this run (sim/faults.h spec grammar, e.g.
  // "transient=0.01;seed=7" or "kill=1@120"). Empty = use whatever plan is
  // armed process-wide (--sim-faults / GBMO_SIM_FAULTS), if any. A non-empty
  // spec arms the plan for the duration of fit().
  std::string faults;

  // --- out-of-core streaming (DESIGN.md §12) -------------------------------
  // Device-memory budget for the bin-packed feature-block cache, in MiB
  // (0 = in-core: the whole binned matrix is device-resident up front).
  // When set, the binned matrix stays in simulated host memory and
  // (feature, row-chunk) tiles are staged into a bounded LRU block cache on
  // demand, every transfer charged to the cost model; models are bitwise
  // identical to in-core training at any budget. A budget too small for even
  // one feature's working set hard-fails with sim::DeviceBudgetExceeded.
  int max_device_mb = 0;
  // Same budget in bytes; takes precedence over max_device_mb when nonzero
  // (tests and benches need sub-MiB budgets).
  std::uint64_t device_budget_bytes = 0;
  // Row-chunk size for streaming ingest and tile granularity (0 = one chunk
  // spanning all rows). Also the chunk size used when building bin cuts from
  // the streaming quantile sketch.
  int stream_chunk_rows = 0;

  bool out_of_core_enabled() const {
    return max_device_mb > 0 || device_budget_bytes > 0 ||
           stream_chunk_rows > 0;
  }
  // Effective block-cache budget in bytes (0 = unbounded).
  std::uint64_t block_cache_budget_bytes() const {
    if (device_budget_bytes > 0) return device_budget_bytes;
    return static_cast<std::uint64_t>(max_device_mb) << 20;
  }

  // Checkpoint the booster every N completed trees (0 = off) to
  // `checkpoint_path` (written atomically: tmp + rename). With `resume`,
  // fit() first loads that file if present and continues from the recorded
  // tree; the final model is bitwise-identical to an uninterrupted run.
  int checkpoint_every = 0;
  std::string checkpoint_path;
  bool resume = false;

  // --- fluent builder ------------------------------------------------------
  // Chainable setters so configurations read declaratively:
  //
  //   auto cfg = TrainConfig::defaults().trees(100).depth(7)
  //                  .hist(HistMethod::kShared).devices(2);
  //
  // Plain aggregate use (`TrainConfig cfg; cfg.n_trees = 40;`) keeps working —
  // the setters are sugar over the same public fields.
  static TrainConfig defaults() { return TrainConfig{}; }

  TrainConfig& trees(int n) { n_trees = n; return *this; }
  TrainConfig& depth(int levels) { max_depth = levels; return *this; }
  TrainConfig& eta(float lr) { learning_rate = lr; return *this; }
  TrainConfig& min_instances(int n) { min_instances_per_node = n; return *this; }
  TrainConfig& bins(int n) { max_bins = n; return *this; }
  TrainConfig& l2(float lambda) { lambda_l2 = lambda; return *this; }
  TrainConfig& min_gain(float gamma) { min_split_gain = gamma; return *this; }
  TrainConfig& hist(HistMethod m) { hist_method = m; return *this; }
  TrainConfig& warp_optimized(bool on = true) { warp_opt = on; return *this; }
  TrainConfig& sparse_aware(bool on = true) { sparsity_aware = on; return *this; }
  TrainConfig& csc_sweep(bool on = true) { csc_level_sweep = on; return *this; }
  TrainConfig& subtraction(bool on = true) { sibling_subtraction = on; return *this; }
  TrainConfig& growth_policy(GrowthPolicy p) { growth = p; return *this; }
  TrainConfig& leaves(int n) { max_leaves = n; return *this; }
  TrainConfig& feature_bundling(bool on = true) { efb = on; return *this; }
  TrainConfig& categorical_columns(std::vector<std::int32_t> cols) {
    cat_cols = std::move(cols);
    return *this;
  }
  TrainConfig& goss(double a, double b) {
    goss_a = a;
    goss_b = b;
    return *this;
  }
  TrainConfig& hist_budget(int mb) { hist_budget_mb = mb; return *this; }
  TrainConfig& device_budget_mb(int mb) { max_device_mb = mb; return *this; }
  TrainConfig& device_budget(std::uint64_t bytes) {
    device_budget_bytes = bytes;
    return *this;
  }
  TrainConfig& chunk_rows(int rows) { stream_chunk_rows = rows; return *this; }
  TrainConfig& devices(int n, MultiGpuMode mode = MultiGpuMode::kFeatureParallel) {
    n_devices = n;
    multi_gpu = mode;
    return *this;
  }
  TrainConfig& nodes(int n) { n_nodes = n; return *this; }
  TrainConfig& voting(int k) { voting_k = k; return *this; }
  TrainConfig& inter_link(double gbps, double latency_us) {
    inter_gbps = gbps;
    inter_latency_us = latency_us;
    return *this;
  }
  TrainConfig& host_threads(int n) { sim_threads = n; return *this; }
  TrainConfig& check(bool on = true) { sim_check = on; return *this; }
  TrainConfig& row_subsample(double fraction) { subsample = fraction; return *this; }
  TrainConfig& feature_subsample(double fraction) {
    colsample_bytree = fraction;
    return *this;
  }
  TrainConfig& early_stopping(int rounds) {
    early_stopping_rounds = rounds;
    return *this;
  }
  TrainConfig& rng_seed(std::uint64_t s) { seed = s; return *this; }
  TrainConfig& fault_plan(std::string spec) {
    faults = std::move(spec);
    return *this;
  }
  TrainConfig& checkpoint(std::string path, int every_n_trees) {
    checkpoint_path = std::move(path);
    checkpoint_every = every_n_trees;
    return *this;
  }
  TrainConfig& resume_from_checkpoint(bool on = true) {
    resume = on;
    return *this;
  }
};

// Validates user-facing fields (bin budget, tree shape, sampling fractions,
// pool budget) and throws gbmo::Error with an actionable message on the
// first violation. Called at GbmoBooster construction so a bad config fails
// before any training work instead of asserting deep inside BinCuts::build.
void validate_train_config(const TrainConfig& config);

}  // namespace gbmo::core
