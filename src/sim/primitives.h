// Device-wide parallel primitives (the Thrust/CUB stand-ins the paper's
// sort-and-reduce histogram strategy and split finder rely on):
//
//   sort_pairs            — LSD radix sort of (key, payload) pairs
//   segmented_inclusive_scan — scan restarted at segment boundaries (the
//                           reference the split finder's fused scan is
//                           tested against)
//   segmented_arg_max     — per-segment best (value, index) with the paper's
//                           adaptive segments-per-block mapping (§3.1.3)
//
// All primitives execute functionally on the host and charge the cost model
// with the byte volumes of the multi-pass GPU implementations they stand for.
#pragma once

#include <emmintrin.h>

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
static_assert(sizeof(GradPair) == 2 * sizeof(float));

// out[k] = a[k] + b[k] (kAdd) or a[k] - b[k] (kSub) for k < n: the 2n
// floats four at a time (two pairs per SSE2 op), then one scalar tail pair.
// Every float is the same correctly rounded IEEE operation a per-element
// loop performs, so the result is bitwise that loop's. `out` may be `a`.
enum class PairOp { kAdd, kSub };
template <PairOp Op>
inline void combine_pairs(GradPair* out, const GradPair* a, const GradPair* b,
                          std::size_t n) {
  auto* o = reinterpret_cast<float*>(out);
  const auto* x = reinterpret_cast<const float*>(a);
  const auto* y = reinterpret_cast<const float*>(b);
  std::size_t i = 0;
  for (; i + 4 <= 2 * n; i += 4) {
    const __m128 xi = _mm_loadu_ps(x + i);
    const __m128 yi = _mm_loadu_ps(y + i);
    _mm_storeu_ps(o + i, Op == PairOp::kAdd ? _mm_add_ps(xi, yi)
                                            : _mm_sub_ps(xi, yi));
  }
  for (; i < 2 * n; ++i) o[i] = Op == PairOp::kAdd ? x[i] + y[i] : x[i] - y[i];
}

// True when all 2n floats of `p` are ±0. A running sum that starts at +0 is
// never −0 (x + y is −0 only when both are −0), and adding ±0 to a float
// that is not −0 leaves its bits unchanged, so such a sum may skip these
// pairs.
inline bool all_zero(const GradPair* p, std::size_t n) {
  const auto* w = reinterpret_cast<const float*>(p);
  __m128i bits = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 4 <= 2 * n; i += 4) {
    bits = _mm_or_si128(bits, _mm_castps_si128(_mm_loadu_ps(w + i)));
  }
  for (; i < 2 * n; ++i) {
    bits = _mm_or_si128(bits, _mm_castps_si128(_mm_set_ss(w[i])));
  }
  const __m128i magnitude = _mm_and_si128(bits, _mm_set1_epi32(0x7fffffff));
  return _mm_movemask_epi8(_mm_cmpeq_epi32(magnitude, _mm_setzero_si128())) ==
         0xffff;
}

struct ArgMax {
  float value = 0.0f;
  std::uint32_t index = 0;  // global index into the scanned array
};

// Sorts keys (and reorders vals identically) with an LSD radix sort.
// Pass count adapts to the largest key. Charged as 2.5x data volume per pass.
void sort_pairs(Device& dev, std::vector<std::uint64_t>& keys,
                std::vector<std::uint32_t>& vals);

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
// Charges exactly what segmented_arg_max charges for `n_segments` segments
// over `n_values` values, for devices that only pay for the reduction.
void charge_segmented_arg_max(Device& dev, std::size_t n_segments,
                              std::size_t n_values,
                              double segments_per_block_c);

}  // namespace gbmo::sim
