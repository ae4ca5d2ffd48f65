#include "core/split.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "sim/cost_model.h"
#include "sim/launch.h"
#include "sim/primitives.h"

namespace gbmo::core {

double leaf_objective(std::span<const sim::GradPair> totals, float lambda) {
  double obj = 0.0;
  for (const auto& t : totals) {
    obj -= 0.5 * static_cast<double>(t.g) * t.g / (static_cast<double>(t.h) + lambda);
  }
  return obj;
}

std::vector<SplitResult> find_best_splits(
    sim::Device& dev, const HistogramLayout& layout,
    std::span<const NodeSplitInput> nodes,
    std::span<const std::uint32_t> features, const TrainConfig& config,
    SplitScratch& scratch) {
  const auto d = static_cast<std::size_t>(layout.n_outputs());
  const float lambda = config.lambda_l2;
  const auto min_inst =
      static_cast<std::uint32_t>(config.min_instances_per_node);
  std::vector<SplitResult> results(nodes.size());
  if (nodes.empty() || features.empty()) return results;

  std::size_t bins_per_node = 0;
  for (std::uint32_t f : features) {
    bins_per_node += static_cast<std::size_t>(layout.n_bins(f));
  }
  const std::size_t total_bins = bins_per_node * nodes.size();
  const std::size_t total_slots = total_bins * d;

  // --- 1. one pass per (node, feature) over its bins: the running d-wide
  // left sum is that (feature, output) segment's inclusive prefix, and each
  // bin's gain is evaluated from it right away. Splitting after the last bin
  // sends everything left, so the last bin never gets a gain.
  scratch.prefix.resize(d);
  scratch.gains.assign(total_bins, -std::numeric_limits<float>::infinity());
  scratch.gain_offsets.clear();
  scratch.gain_offsets.push_back(0);
  std::size_t gain_pos = 0;
  for (const auto& node : nodes) {
    GBMO_CHECK(node.hist != nullptr);
    GBMO_CHECK(node.totals.size() == d);
    double parent_term = 0.0;  // Σ_k G²/(H+λ)
    for (const auto& t : node.totals) {
      parent_term +=
          static_cast<double>(t.g) * t.g / (static_cast<double>(t.h) + lambda);
    }
    for (std::uint32_t f : features) {
      const int n_bins = layout.n_bins(f);
      const sim::GradPair* sums = node.hist->sums.data() + layout.slot(f, 0, 0);
      const std::uint32_t* counts =
          node.hist->counts.data() + layout.bin_index(f, 0);
      std::fill(scratch.prefix.begin(), scratch.prefix.end(), sim::GradPair{});
      std::uint32_t count_left = 0;
      for (int b = 0; b + 1 < n_bins; ++b, ++gain_pos, sums += d) {
        for (std::size_t k = 0; k < d; ++k) scratch.prefix[k] += sums[k];
        count_left += counts[b];
        const std::uint32_t count_right = node.node_count - count_left;
        if (count_left < min_inst || count_right < min_inst) continue;
        double acc = 0.0;
        for (std::size_t k = 0; k < d; ++k) {
          const double gl = scratch.prefix[k].g;
          const double hl = scratch.prefix[k].h;
          const double gr = static_cast<double>(node.totals[k].g) - gl;
          const double hr = static_cast<double>(node.totals[k].h) - hl;
          acc += gl * gl / (hl + lambda) + gr * gr / (hr + lambda);
        }
        scratch.gains[gain_pos] = static_cast<float>(0.5 * (acc - parent_term));
      }
      ++gain_pos;  // the last bin
      scratch.gain_offsets.push_back(static_cast<std::uint32_t>(gain_pos));
    }
  }

  // --- 2./3. the segmented prefix sum across every (node, feature, output)
  // and the gain kernel over every (node, feature, bin) candidate, charged
  // as the two kernels a device runs.
  sim::charge_segmented_scan(dev, total_slots);
  {
    sim::KernelStats s;
    s.blocks = std::max<std::uint64_t>(1, total_bins / 256);
    s.gmem_coalesced_bytes = total_slots * sizeof(sim::GradPair) +
                             total_bins * (sizeof(float) + sizeof(std::uint32_t));
    s.flops = total_slots * 6;
    sim::charge_kernel(dev, "split_gain", s);
  }

  // --- 4. one segmented reduction over every (node, feature) segment with
  // the adaptive segments-per-block mapping, then a per-node arg-max.
  scratch.per_feature_best.resize(nodes.size() * features.size());
  sim::segmented_arg_max(dev, scratch.gains, scratch.gain_offsets,
                         scratch.per_feature_best, config.segments_per_block_c);

  for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
    SplitResult best;
    best.gain = config.min_split_gain;
    for (std::size_t fi = 0; fi < features.size(); ++fi) {
      const std::size_t seg = ni * features.size() + fi;
      const auto& fb = scratch.per_feature_best[seg];
      if (fb.value > best.gain) {
        best.gain = fb.value;
        best.feature = static_cast<std::int32_t>(features[fi]);
        best.bin = static_cast<std::int32_t>(fb.index - scratch.gain_offsets[seg]);
      }
    }
    if (best.valid()) {
      std::uint32_t count_left = 0;
      for (int b = 0; b <= best.bin; ++b) {
        count_left += nodes[ni].hist->counts[layout.bin_index(
            static_cast<std::size_t>(best.feature), b)];
      }
      best.n_left = count_left;
      best.n_right = nodes[ni].node_count - count_left;
    }
    results[ni] = best;
  }
  return results;
}

SplitResult find_best_split(sim::Device& dev, const HistogramLayout& layout,
                            const NodeHistogram& hist,
                            std::span<const sim::GradPair> totals,
                            std::uint32_t node_count,
                            std::span<const std::uint32_t> features,
                            const TrainConfig& config, SplitScratch& scratch) {
  // Single-node convenience wrapper over the batched path.
  NodeSplitInput input{&hist, totals, node_count};
  return find_best_splits(dev, layout, {&input, 1}, features, config, scratch)[0];
}

}  // namespace gbmo::core
