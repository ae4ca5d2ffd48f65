// Histogram builder equivalence: every strategy (global, shared,
// sort-reduce, adaptive) with and without bin packing, sparsity-awareness
// and CSC indirection must produce the same histogram as a scalar reference
// — swept over output dimensions, sparsity levels, node shapes and tile
// sizes. The shared- and global-memory builders must match an
// order-faithful reference bit for bit. What the builders charge is pinned
// field by field.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "common/rng.h"
#include "core/histogram.h"
#include "data/synthetic.h"
#include "kernel_log.h"
#include "sim/scheduler.h"

namespace gbmo::core {
namespace {

// Which instances form the node.
enum class Node { kOddRows, kEmpty, kAllZeroBin };

struct Fixture {
  data::Dataset dataset;
  data::BinCuts cuts;
  data::BinnedMatrix binned;
  HistogramLayout layout;
  std::vector<float> g, h;
  std::vector<std::uint32_t> rows;       // the node (see Node)
  std::vector<std::uint32_t> features;
  std::vector<sim::GradPair> totals;

  Fixture(int d, double sparsity, std::uint64_t seed,
          std::size_t n_instances = 500, Node node = Node::kOddRows,
          int max_bins = 32) {
    data::MultiregressionSpec spec;
    spec.n_instances = n_instances;
    spec.n_features = 9;
    spec.n_outputs = d;
    spec.sparsity = sparsity;
    spec.seed = seed;
    dataset = data::make_multiregression(spec);
    cuts = data::BinCuts::build(dataset.x, max_bins);
    binned = data::BinnedMatrix(dataset.x, cuts);
    binned.pack();
    layout = HistogramLayout(cuts, d);

    Rng rng(seed ^ 0xabcdef);
    g.resize(dataset.n_instances() * static_cast<std::size_t>(d));
    h.resize(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] = rng.uniform(-1.0f, 1.0f);
      h[i] = rng.uniform(0.1f, 1.0f);
    }
    features.resize(dataset.n_features());
    std::iota(features.begin(), features.end(), 0u);
    for (std::uint32_t r = 0; r < dataset.n_instances(); ++r) {
      bool all_zero_bin = true;
      for (std::uint32_t f : features) {
        all_zero_bin = all_zero_bin && binned.bin(r, f) == layout.zero_bin(f);
      }
      if ((node == Node::kOddRows && r % 2 == 1) ||
          (node == Node::kAllZeroBin && all_zero_bin)) {
        rows.push_back(r);
      }
    }

    totals.assign(static_cast<std::size_t>(d), sim::GradPair{});
    for (std::uint32_t r : rows) {
      for (int k = 0; k < d; ++k) {
        totals[static_cast<std::size_t>(k)].g +=
            g[static_cast<std::size_t>(r) * d + static_cast<std::size_t>(k)];
        totals[static_cast<std::size_t>(k)].h +=
            h[static_cast<std::size_t>(r) * d + static_cast<std::size_t>(k)];
      }
    }
  }

  // Scalar reference: accumulate everything directly.
  NodeHistogram reference() const {
    NodeHistogram ref;
    ref.resize(layout);
    const int d = layout.n_outputs();
    for (std::uint32_t r : rows) {
      for (std::uint32_t f : features) {
        const auto bin = binned.bin(r, f);
        for (int k = 0; k < d; ++k) {
          auto& slot = ref.sums[layout.slot(f, bin, k)];
          slot.g += g[static_cast<std::size_t>(r) * d + static_cast<std::size_t>(k)];
          slot.h += h[static_cast<std::size_t>(r) * d + static_cast<std::size_t>(k)];
        }
        ++ref.counts[layout.bin_index(f, bin)];
      }
    }
    return ref;
  }

  // Order-faithful reference of a builder whose blocks each sum a
  // `chunk_rows` slice of the node from +0 and add the slice sums to the
  // histogram in slice order; the zero bin is then rebuilt from the node
  // totals exactly as reconstruct_zero_bins does.
  NodeHistogram chunked_reference(std::size_t chunk_rows,
                                  bool sparsity_aware) const {
    NodeHistogram ref;
    ref.resize(layout);
    const int d = layout.n_outputs();
    for (std::size_t lo = 0; lo < rows.size(); lo += chunk_rows) {
      NodeHistogram part;
      part.resize(layout);
      for (std::size_t i = lo; i < std::min(rows.size(), lo + chunk_rows); ++i) {
        const std::size_t r = rows[i];
        for (std::uint32_t f : features) {
          const auto bin = binned.bin(r, f);
          if (sparsity_aware && bin == layout.zero_bin(f)) continue;
          for (int k = 0; k < d; ++k) {
            auto& slot = part.sums[layout.slot(f, bin, k)];
            slot.g += g[r * d + static_cast<std::size_t>(k)];
            slot.h += h[r * d + static_cast<std::size_t>(k)];
          }
          ++part.counts[layout.bin_index(f, bin)];
        }
      }
      for (std::size_t bi = 0; bi < part.counts.size(); ++bi) {
        if (part.counts[bi] == 0) continue;
        ref.counts[bi] += part.counts[bi];
        for (int k = 0; k < d; ++k) {
          ref.sums[bi * d + static_cast<std::size_t>(k)] +=
              part.sums[bi * d + static_cast<std::size_t>(k)];
        }
      }
    }
    if (!sparsity_aware) return ref;
    for (std::uint32_t f : features) {
      const std::uint8_t zb = layout.zero_bin(f);
      std::uint32_t count = 0;
      for (int k = 0; k < d; ++k) {
        sim::GradPair sum;
        for (int b = 0; b < layout.n_bins(f); ++b) {
          if (b == zb) continue;
          sum.g += ref.sums[layout.slot(f, b, k)].g;
          sum.h += ref.sums[layout.slot(f, b, k)].h;
        }
        ref.sums[layout.slot(f, zb, k)] = {totals[k].g - sum.g,
                                           totals[k].h - sum.h};
      }
      for (int b = 0; b < layout.n_bins(f); ++b) {
        if (b != zb) count += ref.counts[layout.bin_index(f, b)];
      }
      ref.counts[layout.bin_index(f, zb)] =
          static_cast<std::uint32_t>(rows.size()) - count;
    }
    return ref;
  }

  HistBuildInput input(bool packed, bool sparsity_aware, bool csc) const {
    HistBuildInput in;
    in.bins = &binned;
    in.node_rows = rows;
    in.g = g;
    in.h = h;
    in.layout = &layout;
    in.features = features;
    in.packed = packed;
    in.sparsity_aware = sparsity_aware;
    in.csc_indirection = csc;
    in.node_totals = totals;
    in.node_count = static_cast<std::uint32_t>(rows.size());
    return in;
  }
};

void expect_equal(const HistogramLayout& layout, const NodeHistogram& actual,
                  const NodeHistogram& expected, const char* what) {
  const int d = layout.n_outputs();
  for (std::size_t f = 0; f < layout.n_features(); ++f) {
    for (int b = 0; b < layout.n_bins(f); ++b) {
      EXPECT_EQ(actual.counts[layout.bin_index(f, b)],
                expected.counts[layout.bin_index(f, b)])
          << what << " count f=" << f << " b=" << b;
      for (int k = 0; k < d; ++k) {
        const auto& a = actual.sums[layout.slot(f, b, k)];
        const auto& e = expected.sums[layout.slot(f, b, k)];
        EXPECT_NEAR(a.g, e.g, 1e-3f) << what << " f=" << f << " b=" << b << " k=" << k;
        EXPECT_NEAR(a.h, e.h, 1e-3f) << what << " f=" << f << " b=" << b << " k=" << k;
      }
    }
  }
}

// Same counts and the same bits in every sum.
void expect_bitwise(const NodeHistogram& actual, const NodeHistogram& expected,
                    const char* what) {
  EXPECT_EQ(actual.counts, expected.counts) << what;
  ASSERT_EQ(actual.sums.size(), expected.sums.size()) << what;
  for (std::size_t i = 0; i < actual.sums.size(); ++i) {
    const auto a = std::bit_cast<std::uint64_t>(actual.sums[i]);
    const auto e = std::bit_cast<std::uint64_t>(expected.sums[i]);
    if (a != e) {
      ADD_FAILURE() << what << " slot " << i << ": " << actual.sums[i].g << ","
                    << actual.sums[i].h << " vs " << expected.sums[i].g << ","
                    << expected.sums[i].h;
      return;
    }
  }
}

struct Case {
  HistMethod method;
  bool packed;
  bool sparsity_aware;
  bool csc;
};

struct EquivInput {
  int d;
  double sparsity;
  std::size_t n_instances = 500;
  Node node = Node::kOddRows;
  int tile_bins = 0;  // >0: shared memory holds this many d-wide bins
};

// Prints the sweep's inputs as "(d, sparsity)" and appends what else
// differs from it.
void PrintTo(const EquivInput& c, std::ostream* os) {
  std::string s = ::testing::PrintToString(std::tuple(c.d, c.sparsity));
  s.pop_back();
  if (c.n_instances != 500) {
    s += ", " + std::to_string(c.n_instances / 2) + "-row node";  // odd rows
  }
  if (c.node == Node::kEmpty) s += ", empty node";
  if (c.node == Node::kAllZeroBin) s += ", all-zero-bin node";
  if (c.tile_bins > 0) s += ", " + std::to_string(c.tile_bins) + "-bin tiles";
  *os << s << ")";
}

class BuilderEquivalence : public ::testing::TestWithParam<EquivInput> {};

TEST_P(BuilderEquivalence, AllStrategiesMatchScalarReference) {
  const EquivInput c = GetParam();
  const int d = c.d;
  Fixture fx(d, c.sparsity, 42 + static_cast<std::uint64_t>(d), c.n_instances,
             c.node);
  if (c.node == Node::kAllZeroBin) {
    ASSERT_FALSE(fx.rows.empty());
  }
  const auto expected = fx.reference();
  auto spec = sim::DeviceSpec::rtx4090();
  if (c.tile_bins > 0) {
    spec.shared_mem_per_block =
        static_cast<std::size_t>(c.tile_bins * d) * sizeof(sim::GradPair);
  }

  const Case cases[] = {
      {HistMethod::kGlobal, false, false, false},
      {HistMethod::kGlobal, true, true, false},
      {HistMethod::kGlobal, false, true, true},
      {HistMethod::kShared, false, false, false},
      {HistMethod::kShared, true, true, false},
      {HistMethod::kSortReduce, false, false, false},
      {HistMethod::kSortReduce, false, true, false},
      {HistMethod::kAuto, true, true, false},
  };
  for (const auto& k : cases) {
    auto builder = make_builder(k.method);
    sim::Device dev(spec);
    NodeHistogram hist;
    hist.resize(fx.layout);
    builder->build(dev, fx.input(k.packed, k.sparsity_aware, k.csc), hist);
    expect_equal(fx.layout, hist, expected, builder->name());
    EXPECT_GT(dev.modeled_seconds(), 0.0);
    // smem blocks take 1024-row chunks, gmem blocks 256.
    if (k.method == HistMethod::kShared || k.method == HistMethod::kGlobal) {
      const std::size_t chunk = k.method == HistMethod::kShared ? 1024 : 256;
      expect_bitwise(hist, fx.chunked_reference(chunk, k.sparsity_aware),
                     builder->name());
    }
  }
}

std::vector<EquivInput> sweep() {
  std::vector<EquivInput> inputs;
  for (int d : {1, 3, 16}) {
    for (double sparsity : {0.0, 0.6, 0.95}) inputs.push_back({d, sparsity});
  }
  return inputs;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BuilderEquivalence, ::testing::ValuesIn(sweep()));

// Multi-pass tiles, empty and all-zero-bin nodes, two smem row chunks
// (1025 rows), and wide outputs.
INSTANTIATE_TEST_SUITE_P(
    Edges, BuilderEquivalence,
    ::testing::Values(EquivInput{7, 0.6}, EquivInput{100, 0.6},
                      EquivInput{1, 0.6, 500, Node::kOddRows, 8},
                      EquivInput{7, 0.6, 500, Node::kOddRows, 8},
                      EquivInput{100, 0.6, 500, Node::kOddRows, 1},
                      EquivInput{7, 0.6, 500, Node::kEmpty},
                      EquivInput{7, 0.95, 500, Node::kAllZeroBin},
                      EquivInput{7, 0.95, 500, Node::kAllZeroBin, 8},
                      EquivInput{7, 0.6, 2050},
                      EquivInput{7, 0.6, 2050, Node::kOddRows, 8},
                      EquivInput{1, 0.0, 2050},
                      EquivInput{100, 0.6, 2050, Node::kOddRows, 8}));

TEST(HistogramLayoutTest, SlotArithmetic) {
  data::DenseMatrix x(10, 2);
  for (std::size_t i = 0; i < 10; ++i) {
    x.at(i, 0) = static_cast<float>(i);
    x.at(i, 1) = static_cast<float>(i % 3);
  }
  const auto cuts = data::BinCuts::build(x, 256);
  const HistogramLayout layout(cuts, 4);
  EXPECT_EQ(layout.n_features(), 2u);
  EXPECT_EQ(layout.n_bins(0), 10);
  EXPECT_EQ(layout.n_bins(1), 3);
  EXPECT_EQ(layout.total_bins(), 13u);
  EXPECT_EQ(layout.size(), 13u * 4u);
  EXPECT_EQ(layout.slot(0, 0, 0), 0u);
  EXPECT_EQ(layout.slot(0, 1, 0), 4u);
  EXPECT_EQ(layout.slot(1, 0, 2), 10u * 4u + 2u);
  // zero bin of feature 0: value 0.0 is the smallest -> bin 0.
  EXPECT_EQ(layout.zero_bin(0), 0);
}

TEST(SubtractHistogramsTest, ParentMinusChildIsSibling) {
  Fixture fx(4, 0.4, 77);
  // Split the node's rows into two parts; parent covers all of them.
  std::vector<std::uint32_t> left_rows, right_rows;
  for (std::size_t i = 0; i < fx.rows.size(); ++i) {
    (i % 3 == 0 ? left_rows : right_rows).push_back(fx.rows[i]);
  }
  auto build_for = [&](std::span<const std::uint32_t> rows) {
    NodeHistogram hist;
    hist.resize(fx.layout);
    auto in = fx.input(false, false, false);
    in.node_rows = rows;
    in.node_count = static_cast<std::uint32_t>(rows.size());
    sim::Device dev(sim::DeviceSpec::rtx4090());
    make_global_builder()->build(dev, in, hist);
    return hist;
  };
  const auto parent = build_for(fx.rows);
  const auto left = build_for(left_rows);
  const auto expected_right = build_for(right_rows);

  NodeHistogram derived;
  derived.resize(fx.layout);
  sim::Device dev(sim::DeviceSpec::rtx4090());
  subtract_histograms(dev, fx.layout, fx.features, parent, left, derived);
  expect_equal(fx.layout, derived, expected_right, "subtraction");
}

// The builders' host loops may change; what they charge may not. Every
// KernelStats field and the modeled seconds of each kernel the smem, gmem
// and sort-reduce builders charge, and of hist_subtract, are pinned for a
// seeded 1025-row node (two smem row chunks): packed and unpacked bins,
// sparsity-aware on and off, d in {1, 7, 100}, on the RTX 4090 and on a
// device whose 800-byte shared memory takes 3+ bin passes per feature at
// d >= 7, at 1 and 4 scheduler threads.
TEST(HistogramBuilders, KernelChargesArePinned) {
  struct Charge {
    const char* kernel;
    std::array<std::uint64_t, 16> fields;
    double seconds;
  };
  struct Pinned {
    HistMethod method;
    bool packed;
    bool sparsity_aware;
    int d;
    std::size_t smem;  // 0: the RTX 4090's
    std::vector<Charge> charges;
  };
  const Pinned pinned[] = {
      {HistMethod::kShared, true, true, 7, 0,
       {{"hist_smem",
         {320988, 6816, 3990, 0, 63042, 2260, 568848, 72267, 18, 4608, 18, 0, 0, 0, 0, 0},
         3.8172375661375664e-05},
        {"hist_subtract",
         {48384, 0, 0, 0, 0, 0, 0, 4032, 7, 0, 0, 0, 0, 0, 0, 0},
         5.2554285714285717e-06}}},
      {HistMethod::kShared, true, false, 1, 0,
       {{"hist_smem",
         {115452, 11538, 594, 0, 18450, 38292, 156816, 27675, 18, 4608, 18, 0, 0, 0, 0, 0},
         0.00010213385714285713},
        {"hist_subtract",
         {6912, 0, 0, 0, 0, 0, 0, 576, 1, 0, 0, 0, 0, 0, 0, 0},
         5.2554285714285717e-06}}},
      {HistMethod::kShared, false, true, 100, 0,
       {{"hist_smem",
         {4076100, 13706, 56800, 0, 896200, 2260, 8091200, 896200, 18, 4608, 18, 0, 0, 0, 0, 0},
         0.00024010837566137565},
        {"hist_subtract",
         {691200, 0, 0, 0, 0, 0, 0, 57600, 112, 0, 0, 0, 0, 0, 0, 0},
         5.0673469387755099e-06}}},
      {HistMethod::kShared, false, false, 7, 0,
       {{"hist_smem",
         {586764, 18450, 4158, 0, 129150, 40396, 1097712, 129150, 18, 4608, 18, 0, 0, 0, 0, 0},
         0.00014471719047619047},
        {"hist_subtract",
         {48384, 0, 0, 0, 0, 0, 0, 4032, 7, 0, 0, 0, 0, 0, 0, 0},
         5.2554285714285717e-06}}},
      {HistMethod::kShared, true, true, 7, 800,
       {{"hist_smem",
         {394788, 11442, 3990, 0, 63042, 6760, 568848, 90717, 54, 13824, 54, 0, 0, 0, 0, 0},
         2.9571326278659613e-05},
        {"hist_subtract",
         {48384, 0, 0, 0, 0, 0, 0, 4032, 7, 0, 0, 0, 0, 0, 0, 0},
         5.2554285714285717e-06}}},
      {HistMethod::kShared, true, false, 1, 800,
       {{"hist_smem",
         {115452, 11538, 594, 0, 18450, 38292, 156816, 27675, 18, 4608, 18, 0, 0, 0, 0, 0},
         0.00010213385714285713},
        {"hist_subtract",
         {6912, 0, 0, 0, 0, 0, 0, 576, 1, 0, 0, 0, 0, 0, 0, 0},
         5.2554285714285717e-06}}},
      {HistMethod::kShared, false, true, 100, 800,
       {{"hist_smem",
         {5220000, 299681, 56800, 0, 896200, 78976, 8091200, 896200, 576, 147456, 576, 0, 0, 0, 0, 0},
         0.00020686376190476188},
        {"hist_subtract",
         {691200, 0, 0, 0, 0, 0, 0, 57600, 112, 0, 0, 0, 0, 0, 0, 0},
         5.0673469387755099e-06}}},
      {HistMethod::kShared, false, false, 7, 800,
       {{"hist_smem",
         {660564, 36900, 4158, 0, 129150, 58340, 1097712, 129150, 54, 13824, 54, 0, 0, 0, 0, 0},
         0.00014402793121693122},
        {"hist_subtract",
         {48384, 0, 0, 0, 0, 0, 0, 4032, 7, 0, 0, 0, 0, 0, 0, 0},
         5.2554285714285717e-06}}},
      {HistMethod::kGlobal, true, true, 7, 0,
       {{"hist_gmem",
         {793404, 6816, 63042, 2120, 0, 0, 0, 72267, 45, 11520, 0, 0, 0, 0, 0, 0},
         3.4668876190476185e-05},
        {"hist_subtract",
         {48384, 0, 0, 0, 0, 0, 0, 4032, 7, 0, 0, 0, 0, 0, 0, 0},
         5.2554285714285717e-06}}},
      {HistMethod::kGlobal, true, false, 1, 0,
       {{"hist_gmem",
         {258300, 11538, 18450, 37228, 0, 0, 0, 27675, 45, 11520, 0, 0, 0, 0, 0, 0},
         0.00014994408253968253},
        {"hist_subtract",
         {6912, 0, 0, 0, 0, 0, 0, 576, 1, 0, 0, 0, 0, 0, 0, 0},
         5.2554285714285717e-06}}},
      {HistMethod::kGlobal, false, true, 100, 0,
       {{"hist_gmem",
         {10791300, 13706, 896200, 2092, 0, 0, 0, 896200, 45, 11520, 0, 0, 0, 0, 0, 0},
         0.00026680567830687828},
        {"hist_subtract",
         {691200, 0, 0, 0, 0, 0, 0, 57600, 112, 0, 0, 0, 0, 0, 0, 0},
         5.0673469387755099e-06}}},
      {HistMethod::kGlobal, false, false, 7, 0,
       {{"hist_gmem",
         {1586700, 18450, 129150, 39220, 0, 0, 0, 129150, 45, 11520, 0, 0, 0, 0, 0, 0},
         0.00019345825396825396},
        {"hist_subtract",
         {48384, 0, 0, 0, 0, 0, 0, 4032, 7, 0, 0, 0, 0, 0, 0, 0},
         5.2554285714285717e-06}}},
      {HistMethod::kSortReduce, true, true, 7, 0,
       {{"hist_sort_keys",
         {90936, 2313, 0, 0, 0, 0, 0, 0, 62, 11520, 0, 0, 0, 0, 0, 0},
         5.9013206349206349e-06},
        {"hist_sort_reduce",
         {630420, 31521, 0, 0, 0, 0, 0, 63042, 18, 4608, 0, 0, 0, 0, 0, 0},
         0.00010811125925925925},
        {"hist_subtract",
         {48384, 0, 0, 0, 0, 0, 0, 4032, 7, 0, 0, 0, 0, 0, 0, 0},
         5.2554285714285717e-06},
        {"radix_sort",
         {0, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0, 270180, 0, 0, 0, 0},
         3.30393025210084e-05}}},
      {HistMethod::kSortReduce, true, false, 1, 0,
       {{"hist_sort_keys",
         {147600, 2313, 0, 0, 0, 0, 0, 0, 81, 11520, 0, 0, 0, 0, 0, 0},
         5.9013206349206349e-06},
        {"hist_sort_reduce",
         {184500, 9225, 0, 0, 0, 0, 0, 18450, 37, 9472, 0, 0, 0, 0, 0, 0},
         1.5404247104247105e-05},
        {"hist_subtract",
         {6912, 0, 0, 0, 0, 0, 0, 576, 1, 0, 0, 0, 0, 0, 0, 0},
         5.2554285714285717e-06},
        {"radix_sort",
         {0, 0, 0, 0, 0, 0, 0, 0, 36, 0, 0, 553500, 0, 0, 0, 0},
         3.7629761904761905e-05}}},
      {HistMethod::kSortReduce, false, true, 100, 0,
       {{"hist_sort_keys",
         {90672, 9225, 0, 0, 0, 0, 0, 0, 62, 11520, 0, 0, 0, 0, 0, 0},
         1.2454920634920635e-05},
        {"hist_sort_reduce",
         {8962000, 448100, 0, 0, 0, 0, 0, 896200, 18, 4608, 0, 0, 0, 0, 0, 0},
         0.0015386109347442683},
        {"hist_subtract",
         {691200, 0, 0, 0, 0, 0, 0, 57600, 112, 0, 0, 0, 0, 0, 0, 0},
         5.0673469387755099e-06},
        {"radix_sort",
         {0, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0, 268860, 0, 0, 0, 0},
         3.2997582633053222e-05}}},
      {HistMethod::kSortReduce, false, false, 7, 0,
       {{"hist_sort_keys",
         {147600, 9225, 0, 0, 0, 0, 0, 0, 81, 11520, 0, 0, 0, 0, 0, 0},
         1.2454920634920635e-05},
        {"hist_sort_reduce",
         {1291500, 64575, 0, 0, 0, 0, 0, 129150, 37, 9472, 0, 0, 0, 0, 0, 0},
         0.00010782972972972973},
        {"hist_subtract",
         {48384, 0, 0, 0, 0, 0, 0, 4032, 7, 0, 0, 0, 0, 0, 0, 0},
         5.2554285714285717e-06},
        {"radix_sort",
         {0, 0, 0, 0, 0, 0, 0, 0, 36, 0, 0, 553500, 0, 0, 0, 0},
         3.7629761904761905e-05}}},
  };
  for (int threads : {1, 4}) {
    sim::set_sim_threads(threads);
    for (const auto& p : pinned) {
      const Fixture fx(p.d, 0.5, 1000 + static_cast<std::uint64_t>(p.d), 2050);
      ASSERT_EQ(fx.rows.size(), 1025u);
      auto spec = sim::DeviceSpec::rtx4090();
      if (p.smem != 0) spec.shared_mem_per_block = p.smem;
      sim::Device dev(spec);
      test::KernelLog log;
      dev.set_sink(&log);
      NodeHistogram hist, sibling;
      hist.resize(fx.layout);
      sibling.resize(fx.layout);
      make_builder(p.method)->build(
          dev, fx.input(p.packed, p.sparsity_aware, false), hist);
      subtract_histograms(dev, fx.layout, fx.features, hist, hist, sibling);
      const auto where = std::string(hist_method_name(p.method)) +
                         " packed=" + std::to_string(p.packed) +
                         " sparsity=" + std::to_string(p.sparsity_aware) +
                         " d=" + std::to_string(p.d) +
                         " smem=" + std::to_string(p.smem) +
                         " threads=" + std::to_string(threads);
      ASSERT_EQ(log.stats.size(), p.charges.size()) << where;
      for (const auto& c : p.charges) {
        EXPECT_EQ(test::fields(log.stats[c.kernel]), c.fields)
            << where << " " << c.kernel;
        EXPECT_EQ(log.seconds[c.kernel], c.seconds) << where << " " << c.kernel;
      }
    }
  }
  sim::set_sim_threads(0);
}

// Every block a host thread runs reuses that thread's scratch. A sort-reduce
// build whose reduce blocks hold more runs than its node has rows, followed
// on the same thread by gmem and smem builds of a larger node, must leave
// the compaction enough room (check.sh runs this under AddressSanitizer).
TEST(HistogramBuilders, ScratchSurvivesSortReduceRunsOnSameThread) {
  // 256 bins over 200 instances: each of the small node's 100 rows has its
  // own bin in every feature, so the last reduce block (132 pairs over
  // features 7 and 8) holds 132 runs.
  const Fixture small(1, 0.0, 7, 200, Node::kOddRows, 256);
  const Fixture large(1, 0.0, 8, 240, Node::kOddRows, 256);
  ASSERT_EQ(small.rows.size(), 100u);
  ASSERT_EQ(large.rows.size(), 120u);
  for (std::uint32_t f : small.features) {
    std::set<int> bins;
    for (std::uint32_t r : small.rows) bins.insert(small.binned.bin(r, f));
    ASSERT_EQ(bins.size(), small.rows.size()) << "feature " << f;
  }
  const int previous = sim::set_sim_threads(1);  // every block on this thread
  std::thread([&] {
    try {
      sim::Device dev(sim::DeviceSpec::rtx4090());
      NodeHistogram hist;
      hist.resize(small.layout);
      make_builder(HistMethod::kSortReduce)
          ->build(dev, small.input(false, false, false), hist);
      expect_equal(small.layout, hist, small.reference(), "sort-reduce");
      for (const auto method : {HistMethod::kGlobal, HistMethod::kShared}) {
        hist.resize(large.layout);
        make_builder(method)->build(dev, large.input(false, false, false), hist);
        expect_bitwise(hist,
                       large.chunked_reference(
                           method == HistMethod::kShared ? 1024 : 256, false),
                       hist_method_name(method));
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what();
    }
  }).join();
  sim::set_sim_threads(previous);
}

}  // namespace
}  // namespace gbmo::core
