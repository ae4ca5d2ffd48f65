// google-benchmark micro benchmarks: host wall-time of the simulator's
// primitives and histogram builders. These measure the *functional
// simulation* itself (how fast the reproduction runs on the host), which is
// what bounds the bench-scale experiment sizes; modeled GPU time is reported
// as a counter on each benchmark.
#include <benchmark/benchmark.h>

#include <numeric>

#include "common/rng.h"
#include "core/histogram.h"
#include "data/quantize.h"
#include "data/synthetic.h"
#include "sim/primitives.h"

namespace {

using namespace gbmo;

void BM_SortPairs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(123);
  std::vector<std::uint64_t> keys_src(n);
  std::vector<std::uint32_t> vals_src(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys_src[i] = rng.next_u64() & 0xFFFFu;
    vals_src[i] = static_cast<std::uint32_t>(i);
  }
  sim::Device dev(sim::DeviceSpec::rtx4090());
  for (auto _ : state) {
    auto keys = keys_src;
    auto vals = vals_src;
    sim::sort_pairs(dev, keys, vals);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.counters["modeled_us"] =
      benchmark::Counter(dev.modeled_seconds() * 1e6 / state.iterations());
}
BENCHMARK(BM_SortPairs)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_SegmentedScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::uint32_t seg = 256;
  std::vector<sim::GradPair> values(n, {1.0f, 2.0f});
  std::vector<sim::GradPair> out(n);
  std::vector<std::uint32_t> offsets;
  for (std::uint32_t i = 0; i <= n; i += seg) offsets.push_back(i);
  if (offsets.back() != n) offsets.push_back(static_cast<std::uint32_t>(n));
  sim::Device dev(sim::DeviceSpec::rtx4090());
  for (auto _ : state) {
    sim::segmented_inclusive_scan(dev, values, offsets, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SegmentedScan)->Arg(1 << 14)->Arg(1 << 18);

void BM_SegmentedArgMax(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::uint32_t seg = 256;
  Rng rng(7);
  std::vector<float> values(n);
  for (auto& v : values) v = rng.uniform(0.0f, 1.0f);
  std::vector<std::uint32_t> offsets;
  for (std::uint32_t i = 0; i <= n; i += seg) offsets.push_back(i);
  if (offsets.back() != n) offsets.push_back(static_cast<std::uint32_t>(n));
  std::vector<sim::ArgMax> out(offsets.size() - 1);
  sim::Device dev(sim::DeviceSpec::rtx4090());
  for (auto _ : state) {
    sim::segmented_arg_max(dev, values, offsets, out, 4.0);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SegmentedArgMax)->Arg(1 << 14)->Arg(1 << 18);

struct BuilderFixtureData {
  data::Dataset dataset;
  data::BinCuts cuts;
  data::BinnedMatrix binned;
  core::HistogramLayout layout;
  std::vector<std::uint32_t> rows;
  std::vector<std::uint32_t> features;
  std::vector<float> g, h;
  std::vector<sim::GradPair> totals;

  static BuilderFixtureData& get() {
    static BuilderFixtureData* data = [] {
      auto* d = new BuilderFixtureData();
      data::MulticlassSpec spec;
      spec.n_instances = 4000;
      spec.n_features = 64;
      spec.n_classes = 16;
      spec.sparsity = 0.5;
      d->dataset = data::make_multiclass(spec);
      d->cuts = data::BinCuts::build(d->dataset.x, 256);
      d->binned = data::BinnedMatrix(d->dataset.x, d->cuts);
      d->binned.pack();
      d->layout = core::HistogramLayout(d->cuts, 16);
      d->rows.resize(d->dataset.n_instances());
      std::iota(d->rows.begin(), d->rows.end(), 0u);
      d->features.resize(d->dataset.n_features());
      std::iota(d->features.begin(), d->features.end(), 0u);
      d->g.assign(d->dataset.n_instances() * 16, 0.5f);
      d->h.assign(d->g.size(), 1.0f);
      d->totals.assign(16, {0.5f * d->dataset.n_instances(),
                            1.0f * d->dataset.n_instances()});
      return d;
    }();
    return *data;
  }
};

void run_builder(benchmark::State& state, core::HistMethod method, bool packed) {
  auto& f = BuilderFixtureData::get();
  auto builder = core::make_builder(method);
  sim::Device dev(sim::DeviceSpec::rtx4090());
  core::NodeHistogram hist;
  hist.resize(f.layout);
  core::HistBuildInput in;
  in.bins = &f.binned;
  in.node_rows = f.rows;
  in.g = f.g;
  in.h = f.h;
  in.layout = &f.layout;
  in.features = f.features;
  in.packed = packed;
  in.sparsity_aware = true;
  in.node_totals = f.totals;
  in.node_count = static_cast<std::uint32_t>(f.rows.size());
  for (auto _ : state) {
    builder->build(dev, in, hist);  // re-zeroes its feature slots first
    benchmark::DoNotOptimize(hist.sums.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(f.rows.size()) *
                          f.features.size() * state.iterations());
  state.counters["modeled_us"] =
      benchmark::Counter(dev.modeled_seconds() * 1e6 / state.iterations());
}

void BM_HistGlobal(benchmark::State& s) { run_builder(s, core::HistMethod::kGlobal, false); }
void BM_HistGlobalPacked(benchmark::State& s) { run_builder(s, core::HistMethod::kGlobal, true); }
void BM_HistShared(benchmark::State& s) { run_builder(s, core::HistMethod::kShared, false); }
void BM_HistSortReduce(benchmark::State& s) { run_builder(s, core::HistMethod::kSortReduce, false); }
BENCHMARK(BM_HistGlobal);
BENCHMARK(BM_HistGlobalPacked);
BENCHMARK(BM_HistShared);
BENCHMARK(BM_HistSortReduce);

void BM_Quantize(benchmark::State& state) {
  auto& f = BuilderFixtureData::get();
  for (auto _ : state) {
    auto cuts = data::BinCuts::build(f.dataset.x, 256);
    benchmark::DoNotOptimize(&cuts);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(f.dataset.n_instances()) *
      f.dataset.n_features() * state.iterations());
}
BENCHMARK(BM_Quantize);

}  // namespace

BENCHMARK_MAIN();
