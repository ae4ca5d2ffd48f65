// Tree construction on the simulated device group: level-wise (Algorithm 1)
// and leaf-wise (LightGBM-style best-first) growth policies.
//
// Level-wise: per level, every splittable node gets a histogram (built by
// the configured strategy, or derived by sibling subtraction: the larger
// child equals the parent minus the smaller child), the best split is
// selected (per-device feature subsets + best-split all-reduce in
// feature-parallel mode), and the node's instance range is
// stable-partitioned into its children.
//
// Leaf-wise: a gain-ordered frontier of split candidates; the highest-gain
// leaf splits first (deterministic tie-break on the lowest node id) until
// the max_leaves budget or the frontier is exhausted. Children reuse the
// same smaller-child-direct / larger-by-subtraction machinery; both
// children's splits are selected in one batched kernel set per split.
//
// Histogram memory is pooled with a budget (config.hist_budget_mb): when a
// level / frontier would exceed it, the grower falls back to building nodes
// one at a time in reusable scratch buffers (losing subtraction but
// bounding peak memory) — this is the mechanism behind "avoids
// out-of-memory failures" in Figure 7. On the host, released histograms go
// to a free list that later levels and trees reuse without zero-filling:
// every builder re-zeroes the slots it accumulates into, a subtraction
// overwrites its feature view, and split search reads only the tree's
// feature view, so stale slots outside it are never read.
//
// Exclusive feature bundling (data/bundling.h): when the context carries a
// bundling plan, node histograms are accumulated over the bundled columns
// (one histogram column per bundle — far fewer random updates for sparse
// data) and then expanded back to the original per-feature layout, so split
// selection, subtraction and the Tree never see bundles.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/histogram.h"
#include "core/split.h"
#include "core/tree.h"
#include "data/bundling.h"
#include "data/paged_dataset.h"
#include "data/quantize.h"
#include "sim/collectives.h"

namespace gbmo::core {

// Per-booster immutable state shared by all trees.
struct GrowerContext {
  const data::BinnedMatrix* bins = nullptr;
  const data::BinCuts* cuts = nullptr;
  // Optional CSC view of `bins` (set by the booster when
  // config.csc_level_sweep is on); enables the §3.2 level-sweep build path.
  const data::BinnedCscMatrix* csc = nullptr;
  HistogramLayout layout;
  TrainConfig config;
  // Feature subsets per device (feature-parallel) — contiguous chunks, or
  // bundle-aligned groups when a bundling plan is applied.
  std::vector<std::vector<std::uint32_t>> device_features;
  // Row ownership boundaries per device (data-parallel).
  std::vector<std::uint32_t> device_row_bounds;  // size n_devices + 1

  // Exclusive feature bundling (set by the booster via apply_bundling when
  // config.efb finds mergeable features): the bundled bin matrix, its
  // histogram layout (zero bin 0 per bundle = the shared default), and the
  // per-device bundle partition matching device_features.
  const data::FeatureBundling* bundling = nullptr;
  const data::BinnedMatrix* bundled_bins = nullptr;
  HistogramLayout bundle_layout;
  std::vector<std::vector<std::uint32_t>> device_bundles;

  // Histogram pool budget in bytes (from config.hist_budget_mb).
  std::size_t hist_pool_budget = 512ull << 20;

  // Out-of-core mode (set by the booster when config.out_of_core_enabled()):
  // the tile partition of `bins`. When non-null the grower stages every
  // feature column it is about to read into a per-device block cache; the
  // staging transfers are charged to the cost model but the kernels still
  // read `bins` directly, so models are bitwise identical at any budget.
  const data::PagedDataset* paged = nullptr;

  static GrowerContext create(const data::BinnedMatrix& bins,
                              const data::BinCuts& cuts, int n_outputs,
                              const TrainConfig& config);

  // Installs an EFB plan: builds the bundle layout and repartitions the
  // device feature sets bundle-aligned (a bundle's members always live on
  // one device, so the device that accumulates a bundled column also owns
  // its expanded features for split search).
  void apply_bundling(const data::FeatureBundling& plan,
                      const data::BinnedMatrix& bundled);
};

struct GrownTree {
  Tree tree;
  // Tree node id of the leaf every training row landed in — lets the booster
  // update predictions with a gather instead of re-traversing (§3.1.1).
  std::vector<std::int32_t> leaf_of_row;
};

class TreeGrower {
 public:
  TreeGrower(sim::DeviceGroup& group, const GrowerContext& ctx);

  // Grows one tree from the gradient arrays ([row * d + k] layout).
  // `sampled_rows` restricts training to a row subset (stochastic boosting);
  // empty means all rows. `sampled_features` restricts the split search
  // (colsample_bytree); empty means all features. Rows outside the sample
  // get leaf_of_row == -1 — the booster routes them by traversal.
  GrownTree grow(std::span<const float> g, std::span<const float> h,
                 std::span<const std::uint32_t> sampled_rows = {},
                 std::span<const std::uint32_t> sampled_features = {});

  // Name of the histogram strategy chosen for the most recent build
  // (reporting/ablation).
  const HistogramBuilder& builder() const { return *builder_; }

  // Device-loss failover (sim/faults.h): after a device (or whole node) is
  // marked lost, rebuilds the column partition AND the row shard boundaries
  // over the surviving devices so the next grow() call — typically a retry
  // of the tree the loss interrupted — runs entirely on the survivors.
  // Requires at least one alive device.
  void redistribute_over_alive();

  // Voting-parallel diagnostics: rounds where the canonical best feature was
  // not among the globally-elected columns (the voting approximation's
  // honesty metric — a miss means a real voting run would have picked a
  // different split here).
  std::uint64_t vote_rounds() const { return vote_rounds_; }
  std::uint64_t vote_misses() const { return vote_misses_; }

  // Aggregate block-cache stats across devices (out-of-core mode; all zeros
  // when ctx.paged is null). See data/paged_dataset.h.
  data::BlockCacheStats paging_stats() const;

 private:
  struct ActiveNode {
    std::int32_t tree_node = -1;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::vector<sim::GradPair> totals;  // d sums
    std::int32_t parent = -1;           // parent tree node (-1 for root)
    std::int32_t sibling = -1;          // sibling tree node
    bool is_smaller = true;             // smaller sibling builds directly
    std::uint32_t count() const { return end - begin; }
  };

  // Leaf-wise frontier entry: a splittable leaf with its precomputed best
  // split; the histogram is kept only while the pool budget allows it (a
  // candidate without one loses sibling subtraction for its children — the
  // leaf-wise face of the one-node-at-a-time fallback).
  struct LeafCandidate {
    ActiveNode node;
    int depth = 0;
    SplitResult split;
    std::unique_ptr<NodeHistogram> hist;
  };

  void grow_level_wise(std::span<const float> g, std::span<const float> h,
                       std::vector<std::uint32_t>& row_order, Tree& tree,
                       GrownTree& out, ActiveNode&& root);
  void grow_leaf_wise(std::span<const float> g, std::span<const float> h,
                      std::vector<std::uint32_t>& row_order, Tree& tree,
                      GrownTree& out, ActiveNode&& root);

  void build_node_histogram(const ActiveNode& node, NodeHistogram& out,
                            std::span<const float> g, std::span<const float> h);
  // EFB build: accumulate over bundled columns, then expand to `out` in the
  // original layout (zero bins reconstructed from the node totals).
  void build_node_histogram_bundled(const ActiveNode& node, NodeHistogram& out,
                                    std::span<const float> g,
                                    std::span<const float> h);
  // Host-side best-feature scan over a (partial or full) histogram,
  // mirroring the split kernel's gain formula. Used for the voting-parallel
  // local top-k nomination and the canonical-winner miss metric; the model
  // itself never depends on it.
  int best_local_feature(const NodeHistogram& hist,
                         std::span<const sim::GradPair> totals,
                         std::uint32_t count, float* out_gain) const;
  // Voting-parallel: nominate this device's local top-k features from its
  // partial histogram into vote_tally_ (and charge the local gain scan).
  void accumulate_local_votes(sim::Device& dev, const NodeHistogram& part,
                              std::span<const sim::GradPair> dev_totals,
                              std::uint32_t dev_count);
  // Charges the histogram exchange for the row-partitioned modes: a full
  // hierarchical all-reduce (data-parallel), or the vote election + only the
  // elected columns over the inter-node link (voting-parallel). Also updates
  // the vote-miss diagnostics from the canonical histogram `out`.
  void charge_histogram_exchange(const ActiveNode& node,
                                 const NodeHistogram& out);
  SplitResult select_split(const ActiveNode& node, const NodeHistogram& hist);
  // Batched selection (one scan/gain/reduction kernel set per call, §3.1.3);
  // inputs[i] corresponds to nodes[i]. Level-wise batches a whole level,
  // leaf-wise batches one split's two children.
  std::vector<SplitResult> select_splits(std::span<const NodeSplitInput> inputs);
  void compute_leaf(Tree& tree, const ActiveNode& node,
                    std::span<const std::uint32_t> row_order,
                    std::vector<std::int32_t>& leaf_of_row);
  void flush_leaf_charges();

  // Sibling subtraction over every device that owns features of the node
  // (larger = parent − smaller), shared by both growth policies.
  void subtract_node_histograms(const NodeHistogram& parent,
                                const NodeHistogram& smaller,
                                NodeHistogram& larger);
  // Reduces a node's d gradient totals on every device that needs them
  // (replicated in feature-parallel mode, once in data-parallel mode).
  void reduce_node_totals(std::span<const float> g, std::span<const float> h,
                          std::span<const std::uint32_t> rows,
                          std::vector<sim::GradPair>& totals);
  // Stable-partitions a node's row range by its split and charges the
  // partition kernel (+ the feature-parallel bitmap broadcast). Returns the
  // first right-child index.
  std::uint32_t partition_node(const ActiveNode& node, const SplitResult& s,
                               std::vector<std::uint32_t>& row_order);

  // Returns a released histogram from hist_pool_ with stale contents, or a
  // fresh zeroed one when the pool is empty.
  NodeHistogram take_hist();

  // Device memory accounting over the whole group.
  void note_alloc_all(std::size_t bytes);
  void note_free_all(std::size_t bytes);

  // Out-of-core staging: pages every tile of `features` × `rows` into device
  // `dev`'s block cache (no-op in in-core mode). Runs on the orchestration
  // thread before the corresponding launch, so transfer charges and fault
  // ordinals are deterministic at any --sim-threads.
  void stage_blocks(int dev, std::span<const std::uint32_t> features,
                    std::span<const std::uint32_t> rows);
  void stage_block(int dev, std::uint32_t feature,
                   std::span<const std::uint32_t> rows);

  // The first alive device (device 0 unless it was lost) — target for the
  // single-device charges (leaf finalize, partition kernel).
  sim::Device& charge_device();

  sim::DeviceGroup& group_;
  const GrowerContext& ctx_;
  std::unique_ptr<HistogramBuilder> builder_;
  // Row-partitioned modes (data/voting): the functional histogram is built
  // once on this off-group "ghost" device in the exact 1-device accumulation
  // order, while the real devices build per-shard partials for the cost
  // model only ("functional canonical, cost modeled" — the same doctrine
  // that makes paging and EFB bitwise-neutral). Same spec as the group's
  // devices so the adaptive builder picks identical strategies; no sink, so
  // its charges never reach the profiler or the group's modeled time.
  std::unique_ptr<sim::Device> ghost_;
  // Scratch for the per-device partial builds (cost path; contents feed only
  // the voting nomination, never the model).
  NodeHistogram part_scratch_;
  // Voting-parallel per-exchange vote tally (indexed by original feature id)
  // and cumulative honesty counters.
  std::vector<std::uint32_t> vote_tally_;
  std::uint64_t vote_rounds_ = 0;
  std::uint64_t vote_misses_ = 0;
  // Per-device block caches (out-of-core mode; empty otherwise).
  std::vector<std::unique_ptr<data::BlockCache>> block_caches_;
  SplitScratch split_scratch_;
  std::vector<std::uint32_t> all_features_;
  // Live column partition: starts as ctx_.device_features and shrinks to the
  // survivors on redistribute_over_alive() (lost devices end up empty).
  std::vector<std::vector<std::uint32_t>> device_features_;
  // Live bundle partition (EFB; parallel to device_features_).
  std::vector<std::vector<std::uint32_t>> device_bundles_;
  // Live row shard boundaries (data/voting): starts as
  // ctx_.device_row_bounds and is rebuilt over the survivors on
  // redistribute_over_alive() (lost devices get zero-width ranges).
  std::vector<std::uint32_t> device_row_bounds_;
  // This tree's feature view (= all_features_ unless colsample is active)
  // and its intersection with every device's column partition.
  std::vector<std::uint32_t> grow_features_;
  std::vector<std::vector<std::uint32_t>> grow_device_features_;
  // This tree's bundle view (EFB): bundles with at least one sampled member.
  std::vector<std::uint32_t> grow_bundles_;
  std::vector<std::vector<std::uint32_t>> grow_device_bundles_;
  // Scratch for the bundled accumulation pass (EFB).
  NodeHistogram bundle_scratch_;
  // Released node histograms, reused by take_hist(). Holds at most the two
  // levels (or the frontier plus scratch) a tree has live at once.
  std::vector<NodeHistogram> hist_pool_;
  // Row span of the node currently being built (set before each
  // build_node_histogram call; avoids threading it through every helper).
  std::span<const std::uint32_t> node_rows_;
  // Leaf-value/assignment work is accumulated and charged as one kernel per
  // tree (the real implementation finalizes all leaves in one launch).
  sim::KernelStats pending_leaf_stats_;
  bool has_pending_leaf_charges_ = false;
  // Leaves finalized so far in the current grow() (max_leaves accounting).
  std::size_t finalized_leaves_ = 0;
};

}  // namespace gbmo::core
