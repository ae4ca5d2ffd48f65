#include "core/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "core/hist_common.h"
#include "sim/cost_model.h"
#include "sim/launch.h"

namespace gbmo::core {

HistogramLayout::HistogramLayout(const data::BinCuts& cuts, int n_outputs)
    : n_outputs_(n_outputs) {
  GBMO_CHECK(n_outputs >= 1);
  offsets_.reserve(cuts.n_features() + 1);
  zero_bins_.reserve(cuts.n_features());
  offsets_.push_back(0);
  for (std::size_t f = 0; f < cuts.n_features(); ++f) {
    offsets_.push_back(offsets_.back() + static_cast<std::uint32_t>(cuts.n_bins(f)));
    zero_bins_.push_back(cuts.bin_for(f, 0.0f));
  }
}

HistogramLayout::HistogramLayout(std::span<const int> bin_counts,
                                 std::span<const std::uint8_t> zero_bins,
                                 int n_outputs)
    : n_outputs_(n_outputs) {
  GBMO_CHECK(n_outputs >= 1);
  GBMO_CHECK(bin_counts.size() == zero_bins.size());
  offsets_.reserve(bin_counts.size() + 1);
  offsets_.push_back(0);
  for (std::size_t f = 0; f < bin_counts.size(); ++f) {
    GBMO_CHECK(bin_counts[f] >= 1 && bin_counts[f] <= 256);
    offsets_.push_back(offsets_.back() + static_cast<std::uint32_t>(bin_counts[f]));
  }
  zero_bins_.assign(zero_bins.begin(), zero_bins.end());
}

const char* hist_method_name(HistMethod m) {
  switch (m) {
    case HistMethod::kAuto:
      return "auto";
    case HistMethod::kGlobal:
      return "gmem";
    case HistMethod::kShared:
      return "smem";
    case HistMethod::kSortReduce:
      return "sort-reduce";
  }
  return "?";
}

namespace {

// Adaptive strategy selection (§3.3, "dynamically selects the most
// appropriate histogram building method based on the dataset
// characteristics and training stage"). It estimates, from the node's shape,
// the two cost terms that actually separate the strategies:
//   - gmem pays atomic serialization: collisions scale with the node's
//     instances-per-occupied-bin density and with the output dimension d
//     (a collision serializes a d-wide vector update);
//   - smem converts those into cheap shared-memory collisions but pays
//     #passes extra bin reads (the histogram slice is tiled when
//     n_bins * d exceeds the shared-memory budget) plus a per-block flush.
// Sort-and-reduce is only competitive when the histogram is so contended
// that even shared-memory tiles thrash — with 256-bin quantization this
// effectively never happens (Figure 6a shows it always slowest), but the
// selector keeps the guard for tiny-bin configurations.
//
// "Training stage" enters through the node size: deep levels have small
// nodes, where tile-flush overhead dominates and gmem wins regardless of d.
HistMethod select_hist_method(const sim::Device& dev, const HistBuildInput& in) {
  const auto& layout = *in.layout;
  const int d = layout.n_outputs();
  const double n_node = static_cast<double>(in.node_rows.size());
  if (n_node == 0) return HistMethod::kGlobal;

  // Average bins per feature; occupied bins cap at the node size.
  double avg_bins = 0.0;
  for (std::uint32_t f : in.features) avg_bins += layout.n_bins(f);
  avg_bins /= static_cast<double>(in.features.size());  // never empty here
  const double occupied = std::min(n_node, std::max(1.0, avg_bins));

  // Expected same-bin collisions within the hardware's coalescing window
  // (~16 in-flight atomics), scaled by the serialized d-wide update.
  const double window = 16.0;
  const double collision_rate = std::min(1.0, window / occupied);
  const double gmem_penalty =
      n_node * collision_rate * static_cast<double>(d) *
      dev.spec().atomic_serialization_s;

  // smem extra cost: re-reading bins once per tile pass + flushing tiles.
  const std::size_t tile_slots =
      dev.spec().shared_mem_per_block / sizeof(sim::GradPair);
  const double passes =
      std::ceil(avg_bins * static_cast<double>(d) / static_cast<double>(tile_slots));
  const double bin_read_s = 32.0 / dev.spec().mem_bandwidth;
  const double flush_s = (avg_bins * d * 2.0 * sizeof(sim::GradPair)) /
                         dev.spec().mem_bandwidth;
  const double smem_penalty = (passes - 1.0) * n_node * bin_read_s +
                              passes * flush_s +
                              n_node * collision_rate * static_cast<double>(d) *
                                  dev.spec().atomic_serialization_s * 0.15;

  // Sort-and-reduce guard: only when both atomic paths are projected to
  // serialize heavily (sub-16-bin quantization with huge nodes).
  if (occupied < 8.0 && n_node > 1e5) return HistMethod::kSortReduce;
  return smem_penalty < gmem_penalty ? HistMethod::kShared : HistMethod::kGlobal;
}

}  // namespace

void build_histogram(sim::Device& dev, HistMethod method,
                     const HistBuildInput& in, NodeHistogram& out) {
  if (in.features.empty()) return;
  if (in.packed) {
    GBMO_CHECK(in.bins->packed());
  }
  if (method == HistMethod::kAuto) method = select_hist_method(dev, in);
  detail::restage_feature_slots(in, out);
  if (method == HistMethod::kSortReduce) {
    detail::build_sort_reduce(dev, in, out);
  } else {
    detail::build_tiled(dev, method, in, out);
  }
  reconstruct_zero_bins(in, out);
}

void reconstruct_zero_bins(const HistBuildInput& in, NodeHistogram& out) {
  if (!in.sparsity_aware) return;
  const auto& layout = *in.layout;
  const std::size_t d = static_cast<std::size_t>(layout.n_outputs());
  GBMO_CHECK(in.node_totals.size() == d);

  // Bin-major over each feature's contiguous slice with a d-wide
  // accumulator: every output still adds its non-zero bins in ascending
  // order from 0, as a per-output loop would. An empty bin whose sums are
  // all ±0 would leave the accumulator bitwise unchanged (sim::all_zero), so
  // it is skipped.
  std::vector<sim::GradPair> sum(d);
  for (std::uint32_t f : in.features) {
    const int n_bins = layout.n_bins(f);
    const int zb = layout.zero_bin(f);
    const sim::GradPair* bins = out.sums.data() + layout.slot(f, 0, 0);
    const std::uint32_t* counts = out.counts.data() + layout.bin_index(f, 0);
    std::fill(sum.begin(), sum.end(), sim::GradPair{});
    std::uint32_t count = 0;
    for (int b = 0; b < n_bins; ++b) {
      const sim::GradPair* p = bins + static_cast<std::size_t>(b) * d;
      if (b == zb || (counts[b] == 0 && sim::all_zero(p, d))) continue;
      sim::combine_pairs<sim::PairOp::kAdd>(sum.data(), sum.data(), p, d);
      count += counts[b];
    }
    // Zero-bin sums = node totals − Σ other bins (per output).
    sim::combine_pairs<sim::PairOp::kSub>(
        out.sums.data() + layout.slot(f, zb, 0), in.node_totals.data(),
        sum.data(), d);
    GBMO_CHECK(count <= in.node_count)
        << "non-zero bin counts exceed node size for feature " << f;
    out.counts[layout.bin_index(f, zb)] = in.node_count - count;
  }
}

void expand_bundled_histogram(sim::Device& dev,
                              const data::FeatureBundling& bundling,
                              const HistogramLayout& bundle_layout,
                              const HistogramLayout& layout,
                              std::span<const std::uint32_t> bundles,
                              const NodeHistogram& bundled,
                              std::span<const sim::GradPair> node_totals,
                              std::uint32_t node_count, NodeHistogram& out) {
  const int d = layout.n_outputs();
  GBMO_CHECK(bundle_layout.n_outputs() == d);
  std::uint64_t copied_slots = 0;
  std::vector<std::uint32_t> members;
  for (const std::uint32_t bi : bundles) {
    const data::FeatureBundle& bundle = bundling.bundles[bi];
    for (std::size_t j = 0; j < bundle.features.size(); ++j) {
      const std::uint32_t f = bundle.features[j];
      members.push_back(f);
      const std::uint8_t zb = layout.zero_bin(f);
      const int n_bins = layout.n_bins(f);
      const int start = bundle.bin_starts[j];
      for (int b = 0; b < n_bins; ++b) {
        if (b == zb) continue;
        const int bb = start + (b < zb ? b : b - 1);
        const std::size_t src = bundle_layout.slot(bi, bb, 0);
        const std::size_t dst = layout.slot(f, b, 0);
        for (int k = 0; k < d; ++k) {
          out.sums[dst + static_cast<std::size_t>(k)] =
              bundled.sums[src + static_cast<std::size_t>(k)];
        }
        out.counts[layout.bin_index(f, b)] =
            bundled.counts[bundle_layout.bin_index(bi, bb)];
        copied_slots += static_cast<std::uint64_t>(d);
      }
    }
  }

  // Per-member zero bins from the node totals — always reconstructed,
  // because the bundle's shared default bin mixes all members.
  HistBuildInput rec;
  rec.layout = &layout;
  rec.features = members;
  rec.sparsity_aware = true;
  rec.node_totals = node_totals;
  rec.node_count = node_count;
  reconstruct_zero_bins(rec, out);

  // One gather/scatter kernel: read bundled slots, write original slots,
  // plus the zero-bin reduction over the written slots.
  sim::KernelStats s;
  s.blocks = std::max<std::uint64_t>(1, copied_slots / 256);
  s.gmem_coalesced_bytes = copied_slots * sizeof(sim::GradPair) * 2;
  s.flops = copied_slots * 2;
  sim::charge_kernel(dev, "efb_expand", s);
}

void subtract_histograms(sim::Device& dev, const HistogramLayout& layout,
                         std::span<const std::uint32_t> features,
                         const NodeHistogram& smaller, NodeHistogram& parent) {
  GBMO_DCHECK(&parent != &smaller);
  const std::size_t d = static_cast<std::size_t>(layout.n_outputs());
  std::uint64_t slots = 0;
  for (std::uint32_t f : features) {
    // One flat pass over the feature's contiguous slots.
    const std::size_t lo = layout.bin_index(f, 0);
    const std::size_t n_bins = static_cast<std::size_t>(layout.n_bins(f));
    sim::GradPair* par = parent.sums.data() + lo * d;
    sim::combine_pairs<sim::PairOp::kSub>(par, par, smaller.sums.data() + lo * d,
                                          n_bins * d);
    for (std::size_t b = lo; b < lo + n_bins; ++b) {
      parent.counts[b] -= smaller.counts[b];
    }
    slots += n_bins * d;
  }
  // One elementwise kernel: read parent+smaller, write the larger child.
  sim::KernelStats s;
  s.blocks = std::max<std::uint64_t>(1, slots / 256);
  s.gmem_coalesced_bytes = slots * sizeof(sim::GradPair) * 3;
  s.flops = slots * 2;
  sim::charge_kernel(dev, "hist_subtract", s);
}

}  // namespace gbmo::core
