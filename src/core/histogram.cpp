#include "core/histogram.h"

#include <algorithm>

#include "common/error.h"
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

std::unique_ptr<HistogramBuilder> make_builder(HistMethod method) {
  switch (method) {
    case HistMethod::kAuto:
      return make_adaptive_builder();
    case HistMethod::kGlobal:
      return make_global_builder();
    case HistMethod::kShared:
      return make_shared_builder();
    case HistMethod::kSortReduce:
      return make_sort_reduce_builder();
  }
  return make_adaptive_builder();
}

void reconstruct_zero_bins(const HistBuildInput& in, NodeHistogram& out) {
  if (!in.sparsity_aware) return;
  const auto& layout = *in.layout;
  const std::size_t d = static_cast<std::size_t>(layout.n_outputs());
  GBMO_CHECK(in.node_totals.size() == d);

  // Bin-major over each feature's contiguous slice with a d-wide
  // accumulator: every output still adds its non-zero bins in ascending
  // order from 0, as a per-output loop would.
  std::vector<sim::GradPair> sum(d);
  for (std::uint32_t f : in.features) {
    const int n_bins = layout.n_bins(f);
    const int zb = layout.zero_bin(f);
    const sim::GradPair* bins = out.sums.data() + layout.slot(f, 0, 0);
    const std::uint32_t* counts = out.counts.data() + layout.bin_index(f, 0);
    std::fill(sum.begin(), sum.end(), sim::GradPair{});
    std::uint32_t count = 0;
    for (int b = 0; b < n_bins; ++b) {
      if (b == zb) continue;
      const sim::GradPair* p = bins + static_cast<std::size_t>(b) * d;
      for (std::size_t k = 0; k < d; ++k) {
        sum[k].g += p[k].g;
        sum[k].h += p[k].h;
      }
      count += counts[b];
    }
    // Zero-bin sums = node totals − Σ other bins (per output).
    sim::GradPair* z = out.sums.data() + layout.slot(f, zb, 0);
    for (std::size_t k = 0; k < d; ++k) {
      z[k].g = in.node_totals[k].g - sum[k].g;
      z[k].h = in.node_totals[k].h - sum[k].h;
    }
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
                         const NodeHistogram& parent, const NodeHistogram& smaller,
                         NodeHistogram& larger) {
  GBMO_DCHECK(&larger != &parent && &larger != &smaller);
  const std::size_t d = static_cast<std::size_t>(layout.n_outputs());
  std::uint64_t slots = 0;
  for (std::uint32_t f : features) {
    // One flat pass over the feature's contiguous slots.
    const std::size_t lo = layout.bin_index(f, 0);
    const std::size_t n_bins = static_cast<std::size_t>(layout.n_bins(f));
    const sim::GradPair* __restrict par = parent.sums.data() + lo * d;
    const sim::GradPair* __restrict small = smaller.sums.data() + lo * d;
    sim::GradPair* __restrict large = larger.sums.data() + lo * d;
    for (std::size_t i = 0; i < n_bins * d; ++i) {
      large[i] = sim::GradPair{par[i].g - small[i].g, par[i].h - small[i].h};
    }
    for (std::size_t b = lo; b < lo + n_bins; ++b) {
      larger.counts[b] = parent.counts[b] - smaller.counts[b];
    }
    slots += n_bins * d;
  }
  // One elementwise kernel: read parent+smaller, write larger.
  sim::KernelStats s;
  s.blocks = std::max<std::uint64_t>(1, slots / 256);
  s.gmem_coalesced_bytes = slots * sizeof(sim::GradPair) * 3;
  s.flops = slots * 2;
  sim::charge_kernel(dev, "hist_subtract", s);
}

}  // namespace gbmo::core
