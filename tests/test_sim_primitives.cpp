// Simulator primitives vs. standard-library references, swept over sizes and
// key distributions.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "sim/primitives.h"

namespace gbmo::sim {
namespace {

class SortPairsTest : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(SortPairsTest, MatchesStableSort) {
  const auto [n, key_mask] = GetParam();
  Rng rng(42 + static_cast<std::uint64_t>(n));
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(n));
  std::vector<std::uint32_t> vals(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    keys[static_cast<std::size_t>(i)] = rng.next_u64() & key_mask;
    vals[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(i);
  }

  std::vector<std::pair<std::uint64_t, std::uint32_t>> expected;
  for (int i = 0; i < n; ++i) {
    expected.emplace_back(keys[static_cast<std::size_t>(i)],
                          vals[static_cast<std::size_t>(i)]);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  Device dev(DeviceSpec::rtx4090());
  sort_pairs(dev, keys, vals);

  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(keys[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)].first);
    EXPECT_EQ(vals[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)].second);
  }
  if (n > 0) {
    EXPECT_GT(dev.modeled_seconds(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SortPairsTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 100, 4096, 100000),
                       ::testing::Values(std::uint64_t{0xFF}, std::uint64_t{0xFFFF},
                                         std::uint64_t{0xFFFFFFFFull})));

TEST(SegmentedScan, RestartsAtBoundaries) {
  Device dev(DeviceSpec::rtx4090());
  std::vector<GradPair> values = {{1, 1}, {1, 1}, {1, 1}, {2, 0}, {2, 0}};
  std::vector<std::uint32_t> offsets = {0, 3, 5};
  std::vector<GradPair> out(values.size());
  segmented_inclusive_scan(dev, values, offsets, out);
  EXPECT_FLOAT_EQ(out[2].g, 3.0f);
  EXPECT_FLOAT_EQ(out[3].g, 2.0f);  // restarted
  EXPECT_FLOAT_EQ(out[4].g, 4.0f);
}

TEST(SegmentedArgMax, PicksPerSegmentMaxAndGlobalIndex) {
  Device dev(DeviceSpec::rtx4090());
  std::vector<float> values = {0.1f, 0.9f, 0.3f, -1.0f, -0.5f, 7.0f, 2.0f};
  std::vector<std::uint32_t> offsets = {0, 3, 5, 7};
  std::vector<ArgMax> out(3);
  segmented_arg_max(dev, values, offsets, out, 4.0);
  EXPECT_EQ(out[0].index, 1u);
  EXPECT_FLOAT_EQ(out[0].value, 0.9f);
  EXPECT_EQ(out[1].index, 4u);
  EXPECT_FLOAT_EQ(out[1].value, -0.5f);
  EXPECT_EQ(out[2].index, 5u);
}

TEST(SegmentedArgMax, ResultIndependentOfBlockMappingC) {
  Rng rng(99);
  std::vector<float> values(5000);
  for (auto& v : values) v = rng.uniform(-10.0f, 10.0f);
  std::vector<std::uint32_t> offsets = {0, 100, 101, 2500, 5000};
  std::vector<ArgMax> a(4), b(4);
  Device dev(DeviceSpec::rtx4090());
  segmented_arg_max(dev, values, offsets, a, 0.0);
  segmented_arg_max(dev, values, offsets, b, 16.0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a[static_cast<std::size_t>(i)].index, b[static_cast<std::size_t>(i)].index);
  }
}

}  // namespace
}  // namespace gbmo::sim
