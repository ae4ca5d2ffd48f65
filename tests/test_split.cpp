// Split finder vs. exhaustive enumeration on small data, swept over output
// dimensions and regularization; constraint handling; batched == per-node;
// the fused in-place scan bitwise against the gather + segmented-scan +
// strided-gain pipeline it replaces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/rng.h"
#include "core/histogram.h"
#include "core/split.h"
#include "data/quantize.h"
#include "sim/primitives.h"

namespace gbmo::core {
namespace {

struct TinyProblem {
  data::DenseMatrix x;
  data::BinCuts cuts;
  data::BinnedMatrix binned;
  HistogramLayout layout;
  std::vector<float> g, h;
  std::vector<std::uint32_t> rows;
  std::vector<std::uint32_t> features;
  NodeHistogram hist;
  std::vector<sim::GradPair> totals;

  TinyProblem(std::size_t n, std::size_t m, int d, std::uint64_t seed)
      : x(n, m) {
    Rng rng(seed);
    for (auto& v : x.values()) v = rng.uniform(-3.0f, 3.0f);
    cuts = data::BinCuts::build(x, 16);
    binned = data::BinnedMatrix(x, cuts);
    layout = HistogramLayout(cuts, d);
    g.resize(n * static_cast<std::size_t>(d));
    h.resize(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] = rng.uniform(-2.0f, 2.0f);
      h[i] = rng.uniform(0.2f, 1.5f);
    }
    rows.resize(n);
    std::iota(rows.begin(), rows.end(), 0u);
    features.resize(m);
    std::iota(features.begin(), features.end(), 0u);

    hist.resize(layout);
    totals.assign(static_cast<std::size_t>(d), sim::GradPair{});
    for (std::uint32_t r : rows) {
      for (int k = 0; k < d; ++k) {
        totals[static_cast<std::size_t>(k)].g += g[r * static_cast<std::size_t>(d) + k];
        totals[static_cast<std::size_t>(k)].h += h[r * static_cast<std::size_t>(d) + k];
      }
      for (std::uint32_t f : features) {
        const auto bin = binned.bin(r, f);
        for (int k = 0; k < d; ++k) {
          auto& slot = hist.sums[layout.slot(f, bin, k)];
          slot.g += g[r * static_cast<std::size_t>(d) + k];
          slot.h += h[r * static_cast<std::size_t>(d) + k];
        }
        ++hist.counts[layout.bin_index(f, bin)];
      }
    }
  }

  // Exhaustive search over every (feature, bin) with Eq. (3).
  SplitResult brute_force(const TrainConfig& cfg) const {
    const int d = layout.n_outputs();
    SplitResult best;
    best.gain = cfg.min_split_gain;
    double parent = 0.0;
    for (const auto& t : totals) {
      parent += static_cast<double>(t.g) * t.g / (t.h + cfg.lambda_l2);
    }
    for (std::uint32_t f : features) {
      for (int b = 0; b + 1 < layout.n_bins(f); ++b) {
        std::uint32_t n_left = 0;
        std::vector<double> gl(static_cast<std::size_t>(d)), hl(static_cast<std::size_t>(d));
        for (std::uint32_t r : rows) {
          if (binned.bin(r, f) <= b) {
            ++n_left;
            for (int k = 0; k < d; ++k) {
              gl[static_cast<std::size_t>(k)] += g[r * static_cast<std::size_t>(d) + k];
              hl[static_cast<std::size_t>(k)] += h[r * static_cast<std::size_t>(d) + k];
            }
          }
        }
        const std::uint32_t n_right = static_cast<std::uint32_t>(rows.size()) - n_left;
        if (n_left < static_cast<std::uint32_t>(cfg.min_instances_per_node) ||
            n_right < static_cast<std::uint32_t>(cfg.min_instances_per_node)) {
          continue;
        }
        double acc = 0.0;
        for (int k = 0; k < d; ++k) {
          const double gr = totals[static_cast<std::size_t>(k)].g - gl[static_cast<std::size_t>(k)];
          const double hr = totals[static_cast<std::size_t>(k)].h - hl[static_cast<std::size_t>(k)];
          acc += gl[static_cast<std::size_t>(k)] * gl[static_cast<std::size_t>(k)] /
                     (hl[static_cast<std::size_t>(k)] + cfg.lambda_l2) +
                 gr * gr / (hr + cfg.lambda_l2);
        }
        const float gain = static_cast<float>(0.5 * (acc - parent));
        if (gain > best.gain) {
          best.gain = gain;
          best.feature = static_cast<std::int32_t>(f);
          best.bin = b;
          best.n_left = n_left;
          best.n_right = n_right;
        }
      }
    }
    return best;
  }
};

class SplitBruteForce
    : public ::testing::TestWithParam<std::tuple<int, float, std::uint64_t>> {};

TEST_P(SplitBruteForce, MatchesExhaustiveSearch) {
  const auto [d, lambda, seed] = GetParam();
  TinyProblem p(60, 4, d, seed);
  TrainConfig cfg;
  cfg.lambda_l2 = lambda;
  cfg.min_instances_per_node = 5;

  SplitScratch scratch;
  sim::Device dev(sim::DeviceSpec::rtx4090());
  const auto fast = find_best_split(dev, p.layout, p.hist, p.totals,
                                    static_cast<std::uint32_t>(p.rows.size()),
                                    p.features, cfg, scratch);
  const auto slow = p.brute_force(cfg);

  ASSERT_EQ(fast.valid(), slow.valid());
  if (fast.valid()) {
    EXPECT_EQ(fast.feature, slow.feature);
    EXPECT_EQ(fast.bin, slow.bin);
    EXPECT_NEAR(fast.gain, slow.gain, 1e-3f * std::max(1.0f, std::abs(slow.gain)));
    EXPECT_EQ(fast.n_left, slow.n_left);
    EXPECT_EQ(fast.n_right, slow.n_right);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplitBruteForce,
    ::testing::Combine(::testing::Values(1, 2, 7), ::testing::Values(0.1f, 1.0f, 10.0f),
                       ::testing::Values(5u, 17u, 99u)));

TEST(SplitConstraints, MinInstancesBlocksSmallChildren) {
  TinyProblem p(30, 2, 2, 3);
  TrainConfig cfg;
  cfg.min_instances_per_node = 16;  // no split can satisfy 16+16 > 30
  SplitScratch scratch;
  sim::Device dev(sim::DeviceSpec::rtx4090());
  const auto res = find_best_split(dev, p.layout, p.hist, p.totals, 30,
                                   p.features, cfg, scratch);
  EXPECT_FALSE(res.valid());
}

TEST(SplitBatched, MatchesPerNodeResults) {
  TrainConfig cfg;
  cfg.min_instances_per_node = 5;
  SplitScratch scratch;
  sim::Device dev(sim::DeviceSpec::rtx4090());

  // Batch two *nodes* of the same problem: even and odd rows.
  TinyProblem base(90, 3, 4, 13);
  auto node_of = [&](int parity) {
    NodeHistogram hist;
    hist.resize(base.layout);
    std::vector<sim::GradPair> totals(4);
    std::uint32_t count = 0;
    for (std::uint32_t r : base.rows) {
      if (static_cast<int>(r % 2) != parity) continue;
      ++count;
      for (int k = 0; k < 4; ++k) {
        totals[static_cast<std::size_t>(k)].g += base.g[r * 4 + static_cast<std::size_t>(k)];
        totals[static_cast<std::size_t>(k)].h += base.h[r * 4 + static_cast<std::size_t>(k)];
      }
      for (std::uint32_t f : base.features) {
        const auto bin = base.binned.bin(r, f);
        for (int k = 0; k < 4; ++k) {
          auto& slot = hist.sums[base.layout.slot(f, bin, k)];
          slot.g += base.g[r * 4 + static_cast<std::size_t>(k)];
          slot.h += base.h[r * 4 + static_cast<std::size_t>(k)];
        }
        ++hist.counts[base.layout.bin_index(f, bin)];
      }
    }
    return std::make_tuple(std::move(hist), std::move(totals), count);
  };
  auto [h0, t0, c0] = node_of(0);
  auto [h1, t1, c1] = node_of(1);

  const auto r0 = find_best_split(dev, base.layout, h0, t0, c0, base.features,
                                  cfg, scratch);
  const auto r1 = find_best_split(dev, base.layout, h1, t1, c1, base.features,
                                  cfg, scratch);

  std::vector<NodeSplitInput> inputs = {{&h0, t0, c0}, {&h1, t1, c1}};
  const auto batched =
      find_best_splits(dev, base.layout, inputs, base.features, cfg, scratch);
  ASSERT_EQ(batched.size(), 2u);
  EXPECT_EQ(batched[0].feature, r0.feature);
  EXPECT_EQ(batched[0].bin, r0.bin);
  EXPECT_EQ(batched[1].feature, r1.feature);
  EXPECT_EQ(batched[1].bin, r1.bin);
}

// The three-step search the fused pass replaced: gather every (node,
// feature, output) segment of the histogram, scan the copy with
// sim::segmented_inclusive_scan, then read each bin's left sums back at the
// (feature, output)-major stride. Winners come from the same segmented
// arg-max and per-node selection.
struct ReferenceSearch {
  std::vector<float> gains;
  std::vector<std::uint32_t> gain_offsets{0};
  std::vector<SplitResult> results;
};

ReferenceSearch reference_search(const HistogramLayout& layout,
                                 std::span<const NodeSplitInput> nodes,
                                 std::span<const std::uint32_t> features,
                                 const TrainConfig& cfg) {
  sim::Device dev(sim::DeviceSpec::rtx4090());
  const int d = layout.n_outputs();
  const auto min_inst = static_cast<std::uint32_t>(cfg.min_instances_per_node);
  std::vector<sim::GradPair> values;
  std::vector<std::uint32_t> offsets{0};
  for (const auto& node : nodes) {
    for (std::uint32_t f : features) {
      for (int k = 0; k < d; ++k) {
        for (int b = 0; b < layout.n_bins(f); ++b) {
          values.push_back(node.hist->sums[layout.slot(f, b, k)]);
        }
        offsets.push_back(static_cast<std::uint32_t>(values.size()));
      }
    }
  }
  std::vector<sim::GradPair> scanned(values.size());
  sim::segmented_inclusive_scan(dev, values, offsets, scanned);

  ReferenceSearch ref;
  std::size_t seg_base = 0;
  for (const auto& node : nodes) {
    double parent_term = 0.0;
    for (const auto& t : node.totals) {
      parent_term +=
          static_cast<double>(t.g) * t.g / (static_cast<double>(t.h) + cfg.lambda_l2);
    }
    for (std::uint32_t f : features) {
      const int n_bins = layout.n_bins(f);
      std::uint32_t count_left = 0;
      for (int b = 0; b < n_bins; ++b) {
        count_left += node.hist->counts[layout.bin_index(f, b)];
        const std::uint32_t count_right = node.node_count - count_left;
        float gain = -std::numeric_limits<float>::infinity();
        if (b + 1 < n_bins && count_left >= min_inst && count_right >= min_inst) {
          double acc = 0.0;
          for (int k = 0; k < d; ++k) {
            const auto& left = scanned[seg_base +
                                       static_cast<std::size_t>(k) *
                                           static_cast<std::size_t>(n_bins) +
                                       static_cast<std::size_t>(b)];
            const double gl = left.g;
            const double hl = left.h;
            const double gr =
                static_cast<double>(node.totals[static_cast<std::size_t>(k)].g) - gl;
            const double hr =
                static_cast<double>(node.totals[static_cast<std::size_t>(k)].h) - hl;
            acc += gl * gl / (hl + cfg.lambda_l2) + gr * gr / (hr + cfg.lambda_l2);
          }
          gain = static_cast<float>(0.5 * (acc - parent_term));
        }
        ref.gains.push_back(gain);
      }
      seg_base += static_cast<std::size_t>(n_bins) * static_cast<std::size_t>(d);
      ref.gain_offsets.push_back(static_cast<std::uint32_t>(ref.gains.size()));
    }
  }

  std::vector<sim::ArgMax> best(nodes.size() * features.size());
  sim::segmented_arg_max(dev, ref.gains, ref.gain_offsets, best,
                         cfg.segments_per_block_c);
  for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
    SplitResult r;
    r.gain = cfg.min_split_gain;
    for (std::size_t fi = 0; fi < features.size(); ++fi) {
      const std::size_t seg = ni * features.size() + fi;
      if (best[seg].value > r.gain) {
        r.gain = best[seg].value;
        r.feature = static_cast<std::int32_t>(features[fi]);
        r.bin = static_cast<std::int32_t>(best[seg].index - ref.gain_offsets[seg]);
      }
    }
    if (r.valid()) {
      for (int b = 0; b <= r.bin; ++b) {
        r.n_left += nodes[ni].hist->counts[layout.bin_index(
            static_cast<std::size_t>(r.feature), b)];
      }
      r.n_right = nodes[ni].node_count - r.n_left;
    }
    ref.results.push_back(r);
  }
  return ref;
}

// A level of `n_nodes` nodes over features of 1..64 bins. Gradients span
// eight orders of magnitude, so any change to the float-addition order of a
// prefix changes its bits. Slots of features outside `view` hold NaN: the
// search must never read them (pooled node histograms keep stale data there).
struct RandomLevel {
  HistogramLayout layout;
  std::vector<NodeHistogram> hists;
  std::vector<std::vector<sim::GradPair>> totals;
  std::vector<NodeSplitInput> inputs;

  RandomLevel(int d, std::size_t n_nodes, std::span<const std::uint32_t> view,
              std::uint64_t seed) {
    Rng rng(seed);
    const std::vector<int> bin_counts = {1, 2, 64, 17, 5, 33, 3, 48, 9};
    layout = HistogramLayout(bin_counts, std::vector<std::uint8_t>(bin_counts.size(), 0), d);
    const auto mixed = [&] {
      const float magnitude = std::pow(10.0f, rng.uniform(-4.0f, 4.0f));
      return rng.uniform(-1.0f, 1.0f) * magnitude;
    };
    hists.resize(n_nodes);
    totals.resize(n_nodes);
    for (std::size_t ni = 0; ni < n_nodes; ++ni) {
      NodeHistogram& hist = hists[ni];
      hist.resize(layout);
      const float nan = std::numeric_limits<float>::quiet_NaN();
      std::fill(hist.sums.begin(), hist.sums.end(), sim::GradPair{nan, nan});
      // Node sizes 2, 31, 60, 89, 118, 28: each min-instance bound the
      // test sweeps has a node of exactly twice its size, where only a
      // perfectly balanced split qualifies.
      const auto n_rows = static_cast<std::uint32_t>(2 + ni * 29 % 119);
      auto& t = totals[ni];
      t.assign(static_cast<std::size_t>(d), sim::GradPair{});
      std::vector<sim::GradPair> row(static_cast<std::size_t>(d));
      for (std::uint32_t f : view) {
        for (int b = 0; b < layout.n_bins(f); ++b) {
          for (int k = 0; k < d; ++k) hist.sums[layout.slot(f, b, k)] = {};
          hist.counts[layout.bin_index(f, b)] = 0;
        }
      }
      for (std::uint32_t r = 0; r < n_rows; ++r) {
        for (int k = 0; k < d; ++k) {
          row[static_cast<std::size_t>(k)] = {mixed(), std::abs(mixed())};
          t[static_cast<std::size_t>(k)] += row[static_cast<std::size_t>(k)];
        }
        for (std::uint32_t f : view) {
          const int b = static_cast<int>(
              rng.next_below(static_cast<std::uint64_t>(layout.n_bins(f))));
          for (int k = 0; k < d; ++k) {
            hist.sums[layout.slot(f, b, k)] += row[static_cast<std::size_t>(k)];
          }
          ++hist.counts[layout.bin_index(f, b)];
        }
      }
      inputs.push_back({&hist, t, n_rows});
    }
  }
};

TEST(SplitFused, BitwiseMatchesScanThenStridedGains) {
  const std::vector<std::vector<std::uint32_t>> views = {
      {0, 1, 2, 3, 4, 5, 6, 7, 8}, {2, 4, 7}, {8, 1, 5}, {6}};
  for (int d : {1, 7, 100}) {
    for (std::size_t vi = 0; vi < views.size(); ++vi) {
      const RandomLevel level(d, 6, views[vi], 1000 + static_cast<std::uint64_t>(d) * 7 + vi);
      for (int min_inst : {1, 14, 30, 59}) {
        TrainConfig cfg;
        cfg.min_instances_per_node = min_inst;
        cfg.lambda_l2 = 0.5f;
        const std::string where = "d=" + std::to_string(d) + " view " +
                                  std::to_string(vi) + " min_inst " +
                                  std::to_string(min_inst);
        SplitScratch scratch;
        sim::Device dev(sim::DeviceSpec::rtx4090());
        const auto fused = find_best_splits(dev, level.layout, level.inputs,
                                            views[vi], cfg, scratch);
        const auto ref = reference_search(level.layout, level.inputs, views[vi], cfg);

        ASSERT_EQ(scratch.gains.size(), ref.gains.size()) << where;
        EXPECT_EQ(std::memcmp(scratch.gains.data(), ref.gains.data(),
                              ref.gains.size() * sizeof(float)),
                  0)
            << where << ": gains differ bitwise";
        EXPECT_EQ(scratch.gain_offsets, ref.gain_offsets) << where;
        ASSERT_EQ(fused.size(), ref.results.size()) << where;
        for (std::size_t ni = 0; ni < fused.size(); ++ni) {
          const auto& a = fused[ni];
          const auto& b = ref.results[ni];
          EXPECT_EQ(a.feature, b.feature) << where << " node " << ni;
          EXPECT_EQ(a.bin, b.bin) << where << " node " << ni;
          EXPECT_EQ(std::memcmp(&a.gain, &b.gain, sizeof(float)), 0)
              << where << " node " << ni;
          EXPECT_EQ(a.n_left, b.n_left) << where << " node " << ni;
          EXPECT_EQ(a.n_right, b.n_right) << where << " node " << ni;
        }
      }
    }
  }
}

TEST(LeafObjectiveTest, MatchesFormula) {
  std::vector<sim::GradPair> totals = {{4.0f, 2.0f}, {-3.0f, 1.0f}};
  // -1/2 * (16/(2+1) + 9/(1+1)) = -1/2 * (5.3333 + 4.5)
  EXPECT_NEAR(leaf_objective(totals, 1.0f), -0.5 * (16.0 / 3.0 + 9.0 / 2.0), 1e-9);
}

}  // namespace
}  // namespace gbmo::core
