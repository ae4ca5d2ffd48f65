// Split evaluation and selection (§2.3, §3.1.3).
//
// For each candidate (feature, bin) the gain of Eq. (3) is computed from
// left-side prefix sums of the histogram. Each (node, feature) is one pass
// over the histogram's own bin-major layout: a running d-wide prefix — the
// segmented prefix sum with one segment per (feature, output), in the same
// float-addition order — feeds each bin's gain as soon as the bin is added,
// with O(d) scratch and no transposed copy (the prefix scan XGBoost's GPU
// hist runs directly over each feature's histogram). The best threshold per
// feature comes from a segmented reduction (one segment per feature, mapped
// adaptively onto blocks), and a final global reduction picks the winning
// feature. The cost model is charged for the scan, gain and reduction
// kernels of §3.1.3, in that order.
#pragma once

#include <span>

#include "core/config.h"
#include "core/histogram.h"
#include "sim/device.h"

namespace gbmo::core {

struct SplitResult {
  float gain = 0.0f;
  std::int32_t feature = -1;  // global feature id
  std::int32_t bin = -1;      // bins <= bin go left
  std::uint32_t n_left = 0;
  std::uint32_t n_right = 0;
  bool valid() const { return feature >= 0; }
};

// Scratch buffers reused across calls to avoid reallocation.
struct SplitScratch {
  std::vector<sim::GradPair> prefix;  // running left sums of one (node, feature)
  std::vector<float> gains;           // per (node, feature, bin)
  std::vector<std::uint32_t> gain_offsets;
  std::vector<sim::ArgMax> per_feature_best;
};

// Finds the best split of one node over the given feature subset.
// `hist` is the node's complete histogram (zero bins already reconstructed);
// `totals` are the node's d gradient sums.
SplitResult find_best_split(sim::Device& dev, const HistogramLayout& layout,
                            const NodeHistogram& hist,
                            std::span<const sim::GradPair> totals,
                            std::uint32_t node_count,
                            std::span<const std::uint32_t> features,
                            const TrainConfig& config, SplitScratch& scratch);

// Level-batched split finding (§3.1.3: "segmented reduction enables parallel
// gain comparison across multiple feature-node pairs, where each pair forms
// a segment"): all nodes of a level share one scan, one gain kernel and one
// segmented reduction, amortizing launch overhead — this is why the paper's
// per-node mapping is a *segment*, not a kernel.
struct NodeSplitInput {
  const NodeHistogram* hist = nullptr;
  std::span<const sim::GradPair> totals;
  std::uint32_t node_count = 0;
};
std::vector<SplitResult> find_best_splits(
    sim::Device& dev, const HistogramLayout& layout,
    std::span<const NodeSplitInput> nodes,
    std::span<const std::uint32_t> features, const TrainConfig& config,
    SplitScratch& scratch);

// The leaf objective −½ Σ_k G_k²/(H_k + λ) (Eq. 2 optimum); exposed for the
// brute-force tests.
double leaf_objective(std::span<const sim::GradPair> totals, float lambda);

}  // namespace gbmo::core
