#include "core/split.h"

#include <emmintrin.h>

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

namespace {

// Candidate bins of a search over `n_nodes` nodes and `features`: one gain
// per (node, feature, bin), each bin d outputs wide.
std::size_t search_bins(const HistogramLayout& layout, std::size_t n_nodes,
                        std::span<const std::uint32_t> features) {
  std::size_t bins_per_node = 0;
  for (std::uint32_t f : features) {
    bins_per_node += static_cast<std::size_t>(layout.n_bins(f));
  }
  return bins_per_node * n_nodes;
}

// Σ_k gl²/(hl+λ) + gr²/(hr+λ) over the d outputs of one candidate, with
// gl/hl the left prefix and gr/hr = totals − prefix, in double. Two outputs
// per step: each lane evaluates one output's term with the scalar
// expression's IEEE operations, and `acc` still adds the terms one at a time
// in ascending k, so the sum is bitwise the scalar loop's.
double split_score(const sim::GradPair* prefix, const double* total_g,
                   const double* total_h, std::size_t d, double lambda) {
  const __m128d lam = _mm_set1_pd(lambda);
  double acc = 0.0;
  std::size_t k = 0;
  for (; k + 2 <= d; k += 2) {
    // {g_k, h_k, g_k+1, h_k+1} -> {g_k, g_k+1, h_k, h_k+1}
    __m128 p = _mm_loadu_ps(reinterpret_cast<const float*>(prefix + k));
    p = _mm_shuffle_ps(p, p, _MM_SHUFFLE(3, 1, 2, 0));
    const __m128d gl = _mm_cvtps_pd(p);
    const __m128d hl = _mm_cvtps_pd(_mm_movehl_ps(p, p));
    const __m128d gr = _mm_sub_pd(_mm_loadu_pd(total_g + k), gl);
    const __m128d hr = _mm_sub_pd(_mm_loadu_pd(total_h + k), hl);
    const __m128d term =
        _mm_add_pd(_mm_div_pd(_mm_mul_pd(gl, gl), _mm_add_pd(hl, lam)),
                   _mm_div_pd(_mm_mul_pd(gr, gr), _mm_add_pd(hr, lam)));
    acc += _mm_cvtsd_f64(term);
    acc += _mm_cvtsd_f64(_mm_unpackhi_pd(term, term));
  }
  if (k < d) {
    const double gl = prefix[k].g;
    const double hl = prefix[k].h;
    const double gr = total_g[k] - gl;
    const double hr = total_h[k] - hl;
    acc += gl * gl / (hl + lambda) + gr * gr / (hr + lambda);
  }
  return acc;
}

// The segmented prefix sum across every (node, feature, output) and the
// gain kernel over every (node, feature, bin) candidate, charged as the two
// kernels a device runs.
void charge_scan_and_gain(sim::Device& dev, std::size_t total_bins,
                          std::size_t d) {
  const std::size_t total_slots = total_bins * d;
  sim::charge_segmented_scan(dev, total_slots);
  sim::KernelStats s;
  s.blocks = std::max<std::uint64_t>(1, total_bins / 256);
  s.gmem_coalesced_bytes = total_slots * sizeof(sim::GradPair) +
                           total_bins * (sizeof(float) + sizeof(std::uint32_t));
  s.flops = total_slots * 6;
  sim::charge_kernel(dev, "split_gain", s);
}

}  // namespace

void charge_split_search(sim::Device& dev, const HistogramLayout& layout,
                         std::size_t n_nodes,
                         std::span<const std::uint32_t> features,
                         const TrainConfig& config) {
  if (n_nodes == 0 || features.empty()) return;
  const std::size_t total_bins = search_bins(layout, n_nodes, features);
  charge_scan_and_gain(dev, total_bins,
                       static_cast<std::size_t>(layout.n_outputs()));
  sim::charge_segmented_arg_max(dev, n_nodes * features.size(), total_bins,
                                config.segments_per_block_c);
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
  const std::size_t total_bins = search_bins(layout, nodes.size(), features);

  // --- 1. one pass per (node, feature) over its bins: the running d-wide
  // left sum is that (feature, output) segment's inclusive prefix, and each
  // bin's gain is evaluated from it right away. Splitting after the last bin
  // sends everything left, so the last bin never gets a gain.
  scratch.prefix.resize(d);
  scratch.total_g.resize(d);
  scratch.total_h.resize(d);
  scratch.gains.assign(total_bins, -std::numeric_limits<float>::infinity());
  scratch.gain_offsets.clear();
  scratch.gain_offsets.push_back(0);
  std::size_t gain_pos = 0;
  for (const auto& node : nodes) {
    GBMO_CHECK(node.hist != nullptr);
    GBMO_CHECK(node.totals.size() == d);
    double parent_term = 0.0;  // Σ_k G²/(H+λ)
    for (std::size_t k = 0; k < d; ++k) {
      const double tg = scratch.total_g[k] = node.totals[k].g;
      const double th = scratch.total_h[k] = node.totals[k].h;
      parent_term += tg * tg / (th + lambda);
    }
    for (std::uint32_t f : features) {
      const int n_bins = layout.n_bins(f);
      const sim::GradPair* sums = node.hist->sums.data() + layout.slot(f, 0, 0);
      const std::uint32_t* counts =
          node.hist->counts.data() + layout.bin_index(f, 0);
      std::fill(scratch.prefix.begin(), scratch.prefix.end(), sim::GradPair{});
      std::uint32_t count_left = 0;
      for (int b = 0; b + 1 < n_bins; ++b, ++gain_pos, sums += d) {
        // An empty bin whose sums are all ±0 leaves the prefix bitwise
        // unchanged (see sim::all_zero) and count_left too, so its gain (or
        // min-instance skip) is the previous bin's. Bin 0 has none.
        if (b > 0 && counts[b] == 0 && sim::all_zero(sums, d)) {
          scratch.gains[gain_pos] = scratch.gains[gain_pos - 1];
          continue;
        }
        sim::combine_pairs<sim::PairOp::kAdd>(scratch.prefix.data(),
                                              scratch.prefix.data(), sums, d);
        count_left += counts[b];
        const std::uint32_t count_right = node.node_count - count_left;
        if (count_left < min_inst || count_right < min_inst) continue;
        const double acc =
            split_score(scratch.prefix.data(), scratch.total_g.data(),
                        scratch.total_h.data(), d, lambda);
        scratch.gains[gain_pos] = static_cast<float>(0.5 * (acc - parent_term));
      }
      ++gain_pos;  // the last bin
      scratch.gain_offsets.push_back(static_cast<std::uint32_t>(gain_pos));
    }
  }

  // --- 2./3. the scan and gain kernels this pass stands for.
  charge_scan_and_gain(dev, total_bins, d);

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

}  // namespace gbmo::core
