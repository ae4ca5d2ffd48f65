// Device-wide parallel primitives (the Thrust/CUB stand-ins the paper's
// sort-and-reduce histogram strategy and split finder rely on):
//
//   sort_pairs            — LSD radix sort of (key, payload) pairs
//   reduce_by_key         — segment-sum over equal consecutive keys
//   inclusive/exclusive_scan
//   segmented_inclusive_scan — scan restarted at segment boundaries
//   segmented_arg_max     — per-segment best (value, index) with the paper's
//                           adaptive segments-per-block mapping (§3.1.3)
//   arg_max               — device-wide reduction
//
// All primitives execute functionally on the host and charge the cost model
// with the byte volumes of the multi-pass GPU implementations they stand for.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/device.h"

namespace gbmo::sim {

// First/second-order gradient pair; the unit of histogram accumulation.
struct GradPair {
  float g = 0.0f;
  float h = 0.0f;
  GradPair& operator+=(const GradPair& o) {
    g += o.g;
    h += o.h;
    return *this;
  }
  friend GradPair operator+(GradPair a, const GradPair& b) { return a += b; }
  friend bool operator==(const GradPair&, const GradPair&) = default;
};

struct ArgMax {
  float value = 0.0f;
  std::uint32_t index = 0;  // global index into the scanned array
};

// Sorts keys (and reorders vals identically) with an LSD radix sort.
// Pass count adapts to the largest key. Charged as 2.5x data volume per pass.
void sort_pairs(Device& dev, std::vector<std::uint64_t>& keys,
                std::vector<std::uint32_t>& vals);

// Reduces consecutive equal keys of a *sorted* sequence; returns the number
// of unique keys written to out_keys/out_vals (resized by the callee).
std::size_t reduce_by_key(Device& dev, std::span<const std::uint64_t> keys,
                          std::span<const GradPair> vals,
                          std::vector<std::uint64_t>& out_keys,
                          std::vector<GradPair>& out_vals);

void inclusive_scan(Device& dev, std::span<const float> in, std::span<float> out);
void exclusive_scan(Device& dev, std::span<const float> in, std::span<float> out);

// Scan of `values` restarted at every boundary in `offsets`
// (offsets.size() == n_segments + 1, offsets.front() == 0,
//  offsets.back() == values.size()).
void segmented_inclusive_scan(Device& dev, std::span<const GradPair> values,
                              std::span<const std::uint32_t> offsets,
                              std::span<GradPair> out);
// Charges exactly what segmented_inclusive_scan charges for `n_values`
// values, for callers that fuse the scan into their own pass.
void charge_segmented_scan(Device& dev, std::size_t n_values);

// Per-segment maximum with index. `segments_per_block_c` is the paper's
// tunable C in: segments/block = 1 + (#segments / #SMs) * C. It controls the
// launch geometry and therefore the modeled cost; the result is identical.
void segmented_arg_max(Device& dev, std::span<const float> values,
                       std::span<const std::uint32_t> offsets,
                       std::span<ArgMax> out, double segments_per_block_c = 4.0);

ArgMax arg_max(Device& dev, std::span<const float> values);

}  // namespace gbmo::sim
