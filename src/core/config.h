// Training configuration. Defaults follow the paper's experimental setup
// (§4.1): 100 trees, depth 7, learning rate 1, min 20 instances per node,
// 256 bins. Every field has a default member initializer, so a designated
// initializer names only the fields that change:
//
//   TrainConfig cfg{.n_trees = 40, .max_depth = 6};
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
  std::vector<std::int32_t> cat_cols{};

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
  std::string faults{};

  // --- out-of-core training (DESIGN.md §12) --------------------------------
  // Device-memory budget for the bin-packed feature-block cache, in bytes
  // (0 = unbounded; --max-device-mb N sets N MiB). In out-of-core mode the
  // binned matrix stays in simulated host memory and (feature, row-chunk)
  // tiles are staged into a bounded LRU block cache on demand, every
  // transfer charged to the cost model; models are bitwise identical to
  // in-core training at any budget. A budget too small for even one
  // feature's working set hard-fails with sim::DeviceBudgetExceeded.
  std::uint64_t device_budget_bytes = 0;
  // Tile height in rows: the row-chunk size of the paged tiles (0 = one
  // chunk spanning all rows).
  int stream_chunk_rows = 0;

  // Either field turns out-of-core mode on (0 for both = in-core: the whole
  // binned matrix is device-resident up front).
  bool out_of_core_enabled() const {
    return device_budget_bytes > 0 || stream_chunk_rows > 0;
  }

  // Checkpoint the booster every N completed trees (0 = off) to
  // `checkpoint_path` (written atomically: tmp + rename). With `resume`,
  // fit() first loads that file if present and continues from the recorded
  // tree; the final model is bitwise-identical to an uninterrupted run.
  int checkpoint_every = 0;
  std::string checkpoint_path{};
  bool resume = false;
};

// Validates user-facing fields (bin budget, tree shape, sampling fractions,
// pool budget) and throws gbmo::Error with an actionable message on the
// first violation. Called at GbmoBooster construction so a bad config fails
// before any training work instead of asserting deep inside BinCuts::build.
void validate_train_config(const TrainConfig& config);

}  // namespace gbmo::core
