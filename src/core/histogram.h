// Histogram data structures and the builder strategy interface (§3.3).
//
// A node's histogram stores, for every (feature, bin, output) triple, the
// sums of g and h over the node's instances whose feature value falls in the
// bin — plus a per-(feature, bin) instance count used to enforce the
// min-instances constraint. The flat layout is
//
//   slot(f, b, k) = (feature_offset(f) + b) * n_outputs + k
//
// i.e. the d outputs of one bin are contiguous, which is what makes the
// multi-output update a coalesced d-wide vector add (the key advantage over
// running d single-output learners; see DESIGN.md).
//
// Sparsity-awareness (§3.2): the bin containing the raw value 0 is never
// accumulated directly; it is reconstructed as node_totals − Σ(other bins),
// so zero entries cost no gradient work.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/config.h"
#include "data/binned_csc.h"
#include "data/bundling.h"
#include "data/quantize.h"
#include "sim/device.h"
#include "sim/primitives.h"

namespace gbmo::core {

class HistogramLayout {
 public:
  HistogramLayout() = default;
  HistogramLayout(const data::BinCuts& cuts, int n_outputs);
  // Explicit per-column bin counts and zero bins (EFB bundle layouts; a
  // bundle's shared default bin is bin 0).
  HistogramLayout(std::span<const int> bin_counts,
                  std::span<const std::uint8_t> zero_bins, int n_outputs);

  std::size_t n_features() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  int n_outputs() const { return n_outputs_; }
  std::uint32_t total_bins() const { return offsets_.empty() ? 0 : offsets_.back(); }

  std::uint32_t feature_offset(std::size_t f) const { return offsets_[f]; }
  int n_bins(std::size_t f) const {
    return static_cast<int>(offsets_[f + 1] - offsets_[f]);
  }
  // Bin id containing the raw value 0.0 for feature f (the implicit bin of
  // sparse storage).
  std::uint8_t zero_bin(std::size_t f) const { return zero_bins_[f]; }

  std::size_t slot(std::size_t f, int b, int k) const {
    return (static_cast<std::size_t>(offsets_[f]) + static_cast<std::size_t>(b)) *
               static_cast<std::size_t>(n_outputs_) +
           static_cast<std::size_t>(k);
  }
  std::size_t bin_index(std::size_t f, int b) const {
    return static_cast<std::size_t>(offsets_[f]) + static_cast<std::size_t>(b);
  }

  // GradPair slots (total_bins * n_outputs).
  std::size_t size() const {
    return static_cast<std::size_t>(total_bins()) * static_cast<std::size_t>(n_outputs_);
  }
  std::size_t byte_size() const {
    return size() * sizeof(sim::GradPair) + total_bins() * sizeof(std::uint32_t);
  }

 private:
  int n_outputs_ = 0;
  std::vector<std::uint32_t> offsets_;   // n_features + 1
  std::vector<std::uint8_t> zero_bins_;  // per feature
};

// One node's histogram: gradient sums plus per-bin instance counts.
struct NodeHistogram {
  std::vector<sim::GradPair> sums;   // layout.size()
  std::vector<std::uint32_t> counts; // layout.total_bins()

  void resize(const HistogramLayout& layout) {
    sums.assign(layout.size(), sim::GradPair{});
    counts.assign(layout.total_bins(), 0);
  }
};

// Everything a builder needs to accumulate one node's histogram.
struct HistBuildInput {
  const data::BinnedMatrix* bins = nullptr;
  std::span<const std::uint32_t> node_rows;  // instance ids in the node
  std::span<const float> g;                  // [i * d + k]
  std::span<const float> h;
  const HistogramLayout* layout = nullptr;
  std::span<const std::uint32_t> features;   // features to build (device subset)
  bool packed = false;                       // warp-opt bin packing (§3.4.1)
  bool sparsity_aware = true;                // zero-bin subtraction (§3.2)
  bool csc_indirection = false;              // CSC row-index lookups (mo-sp)
  std::span<const sim::GradPair> node_totals;  // d sums over the node
  std::uint32_t node_count = 0;
};

class HistogramBuilder {
 public:
  virtual ~HistogramBuilder() = default;
  virtual const char* name() const = 0;
  // Builds the histogram of `in.features` into `out`, which must be sized
  // for the layout. Those slots are re-zeroed before accumulation, so their
  // previous contents never matter; other slots are left untouched.
  virtual void build(sim::Device& dev, const HistBuildInput& in,
                     NodeHistogram& out) = 0;
};

std::unique_ptr<HistogramBuilder> make_global_builder();
std::unique_ptr<HistogramBuilder> make_shared_builder();
std::unique_ptr<HistogramBuilder> make_sort_reduce_builder();
// Adaptive (§3.3): picks one of the three per call from the node size, the
// histogram footprint vs shared memory, and the expected atomic contention.
std::unique_ptr<HistogramBuilder> make_adaptive_builder();

std::unique_ptr<HistogramBuilder> make_builder(HistMethod method);

// Shared by all builders: reconstructs the zero bin of every requested
// feature as node_totals − Σ(non-zero bins), and the zero-bin count as
// node_count − Σ(non-zero bin counts).
void reconstruct_zero_bins(const HistBuildInput& in, NodeHistogram& out);

// Sibling subtraction (DESIGN.md §4): larger = parent − smaller, restricted
// to the given feature subset.
void subtract_histograms(sim::Device& dev, const HistogramLayout& layout,
                         std::span<const std::uint32_t> features,
                         const NodeHistogram& parent, const NodeHistogram& smaller,
                         NodeHistogram& larger);

// EFB expansion: scatters each bundle member's non-default bundled bins back
// into the member's original-layout slots of `out`, then reconstructs every
// member's zero bin from the node totals (the bundled shared default bin is
// not decomposable per member, but zero bins never need it: zero-bin sums =
// node totals − Σ non-default bins, exactly the §3.2 rule). `bundles`
// selects which bundle columns to expand (a device's subset); split search
// downstream only ever sees original feature ids.
void expand_bundled_histogram(sim::Device& dev,
                              const data::FeatureBundling& bundling,
                              const HistogramLayout& bundle_layout,
                              const HistogramLayout& layout,
                              std::span<const std::uint32_t> bundles,
                              const NodeHistogram& bundled,
                              std::span<const sim::GradPair> node_totals,
                              std::uint32_t node_count, NodeHistogram& out);

// Level-sweep CSC construction (§3.2): one pass over the *stored* nonzero
// entries of every feature column — instead of n x m dense reads — scatters
// each entry into the histogram of the node its row currently occupies.
// `node_slot_of_row[r]` selects the target (-1 skips the row: inactive, or
// its node's histogram comes from sibling subtraction). Per-node zero bins
// are reconstructed from `per_node` totals afterwards.
struct LevelNodeInput {
  NodeHistogram* hist = nullptr;
  std::span<const sim::GradPair> totals;
  std::uint32_t node_count = 0;
};
void build_level_histograms_csc(sim::Device& dev,
                                const data::BinnedCscMatrix& csc,
                                std::span<const std::int32_t> node_slot_of_row,
                                std::span<const LevelNodeInput> per_node,
                                std::span<const float> g, std::span<const float> h,
                                const HistogramLayout& layout,
                                std::span<const std::uint32_t> features);

}  // namespace gbmo::core
