#include "sim/primitives.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"
#include "sim/cost_model.h"

namespace gbmo::sim {

namespace {

// Charges a library primitive to the device: a synthetic kernel record with
// the given byte volume in the bandwidth-bound "sort" bucket.
void charge_pass_bytes(Device& dev, const char* name, std::uint64_t bytes,
                       std::uint64_t items) {
  KernelStats s;
  s.blocks = std::max<std::uint64_t>(1, items / 256);
  s.sort_pairs_bytes = bytes;
  charge_kernel(dev, name, s);
}

int radix_passes_for(std::uint64_t max_key) {
  int passes = 1;
  while (max_key > 0xFFu) {
    max_key >>= 8;
    ++passes;
  }
  return passes;
}

}  // namespace

void sort_pairs(Device& dev, std::vector<std::uint64_t>& keys,
                std::vector<std::uint32_t>& vals) {
  GBMO_CHECK(keys.size() == vals.size());
  const std::size_t n = keys.size();
  if (n == 0) return;

  const std::uint64_t max_key = *std::max_element(keys.begin(), keys.end());
  const int passes = radix_passes_for(max_key);

  std::vector<std::uint64_t> keys_tmp(n);
  std::vector<std::uint32_t> vals_tmp(n);
  std::array<std::size_t, 257> count{};

  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * 8;
    count.fill(0);
    for (std::size_t i = 0; i < n; ++i) {
      ++count[((keys[i] >> shift) & 0xFFu) + 1];
    }
    for (int d = 0; d < 256; ++d) count[d + 1] += count[d];
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pos = count[(keys[i] >> shift) & 0xFFu]++;
      keys_tmp[pos] = keys[i];
      vals_tmp[pos] = vals[i];
    }
    keys.swap(keys_tmp);
    vals.swap(vals_tmp);
  }

  // Each GPU radix pass reads and writes keys+payloads and runs a digit
  // histogram + scan (~0.5x extra), so charge 2.5x volume per pass — but
  // library sorts are compute/launch bound well before bandwidth: add the
  // pair-rate term (spec.sort_throughput) and the ~3 kernel launches every
  // pass costs.
  const std::uint64_t pair_bytes =
      static_cast<std::uint64_t>(n) * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
  charge_pass_bytes(dev, "radix_sort", static_cast<std::uint64_t>(passes) * pair_bytes * 5 / 2, n);
  KernelTag tag(dev, "radix_sort");
  dev.add_modeled_time(static_cast<double>(n) * passes / dev.spec().sort_throughput +
                       3.0 * passes * dev.spec().kernel_launch_s);
}

std::size_t reduce_by_key(Device& dev, std::span<const std::uint64_t> keys,
                          std::span<const GradPair> vals,
                          std::vector<std::uint64_t>& out_keys,
                          std::vector<GradPair>& out_vals) {
  GBMO_CHECK(keys.size() == vals.size());
  out_keys.clear();
  out_vals.clear();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (out_keys.empty() || out_keys.back() != keys[i]) {
      out_keys.push_back(keys[i]);
      out_vals.push_back(vals[i]);
    } else {
      out_vals.back() += vals[i];
    }
  }
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(keys.size()) * (sizeof(std::uint64_t) + sizeof(GradPair)) +
      static_cast<std::uint64_t>(out_keys.size()) *
          (sizeof(std::uint64_t) + sizeof(GradPair));
  charge_pass_bytes(dev, "reduce_by_key", bytes, keys.size());
  return out_keys.size();
}

namespace {

template <bool Inclusive>
void scan_impl(Device& dev, std::span<const float> in, std::span<float> out) {
  GBMO_CHECK(in.size() == out.size());
  float running = 0.0f;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if constexpr (Inclusive) {
      running += in[i];
      out[i] = running;
    } else {
      out[i] = running;
      running += in[i];
    }
  }
  // Work-efficient GPU scans read+write the data ~2x.
  KernelStats s;
  s.blocks = std::max<std::uint64_t>(1, in.size() / 256);
  s.scan_bytes = static_cast<std::uint64_t>(in.size()) * sizeof(float) * 4;
  charge_kernel(dev, "scan", s);
}

}  // namespace

void inclusive_scan(Device& dev, std::span<const float> in, std::span<float> out) {
  scan_impl<true>(dev, in, out);
}

void exclusive_scan(Device& dev, std::span<const float> in, std::span<float> out) {
  scan_impl<false>(dev, in, out);
}

void segmented_inclusive_scan(Device& dev, std::span<const GradPair> values,
                              std::span<const std::uint32_t> offsets,
                              std::span<GradPair> out) {
  GBMO_CHECK(!offsets.empty());
  GBMO_CHECK(offsets.front() == 0 && offsets.back() == values.size());
  GBMO_CHECK(out.size() == values.size());
  for (std::size_t seg = 0; seg + 1 < offsets.size(); ++seg) {
    GradPair running;
    for (std::uint32_t i = offsets[seg]; i < offsets[seg + 1]; ++i) {
      running += values[i];
      out[i] = running;
    }
  }
  charge_segmented_scan(dev, values.size());
}

void charge_segmented_scan(Device& dev, std::size_t n_values) {
  KernelStats s;
  s.blocks = std::max<std::uint64_t>(1, n_values / 256);
  s.scan_bytes = static_cast<std::uint64_t>(n_values) * sizeof(GradPair) * 2;
  charge_kernel(dev, "segmented_scan", s);
}

void segmented_arg_max(Device& dev, std::span<const float> values,
                       std::span<const std::uint32_t> offsets,
                       std::span<ArgMax> out, double segments_per_block_c) {
  GBMO_CHECK(!offsets.empty());
  GBMO_CHECK(offsets.front() == 0 && offsets.back() == values.size());
  const std::size_t n_segments = offsets.size() - 1;
  GBMO_CHECK(out.size() == n_segments);

  for (std::size_t seg = 0; seg < n_segments; ++seg) {
    ArgMax best{-std::numeric_limits<float>::infinity(), offsets[seg]};
    for (std::uint32_t i = offsets[seg]; i < offsets[seg + 1]; ++i) {
      if (values[i] > best.value) best = {values[i], i};
    }
    if (offsets[seg] == offsets[seg + 1]) best.value = 0.0f;  // empty segment
    out[seg] = best;
  }

  // §3.1.3: a naive one-block-per-segment mapping pays a launch/occupancy
  // penalty on high-dimensional data; the adaptive mapping packs
  // 1 + (#segments / #SMs) * C segments per block.
  const double spb =
      1.0 + (static_cast<double>(n_segments) / dev.spec().sm_count) *
                segments_per_block_c;
  KernelStats s;
  s.blocks = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(n_segments / spb)));
  s.gmem_coalesced_bytes = static_cast<std::uint64_t>(values.size()) * sizeof(float);
  s.flops = values.size();
  charge_kernel(dev, "segmented_arg_max", s);
}

ArgMax arg_max(Device& dev, std::span<const float> values) {
  ArgMax best{-std::numeric_limits<float>::infinity(), 0};
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] > best.value) best = {values[i], static_cast<std::uint32_t>(i)};
  }
  KernelStats s;
  s.blocks = std::max<std::uint64_t>(1, values.size() / 256);
  s.gmem_coalesced_bytes = static_cast<std::uint64_t>(values.size()) * sizeof(float);
  s.flops = values.size();
  charge_kernel(dev, "arg_max", s);
  return best;
}

}  // namespace gbmo::sim
