// Inference engine benchmark: reference (tree-at-a-time device path) vs the
// compiled batched engine on the same trained model and the same batch.
//
// Protocol: train a multi-output regression model (defaults: 100 trees,
// d = 32 — the acceptance shape), then predict a large batch with both
// engines. A sprinkle of NaN cells exercises the default-left routing on the
// hot path. Reports modeled seconds (one device pass is deterministic) and
// best-of-N host wall-clock per engine, verifies the two engines agree
// bitwise, and writes BENCH_inference.json.
//
// The host speedup compares the simulator's own loops, not a device. Run
// with GBMO_SIM_THREADS=1 to compare them on one core: the compiled engine
// routes four trees per row in lockstep without branches and reduces with
// vector adds, while the reference chases one tree's pointers at a time.
//
// Args (for smoke runs): --rows N --train-rows N --features N --outputs N
//                        --trees N --depth N --repeat N
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/booster.h"
#include "data/synthetic.h"
#include "serve/batcher.h"
#include "serve/engine.h"

namespace {

using gbmo::TextTable;
using gbmo::WallTimer;
using gbmo::bench::arg_or;
using gbmo::bench::JsonReport;
using gbmo::bench::progress;

}  // namespace

int main(int argc, char** argv) {
  const std::size_t rows = arg_or(argc, argv, "--rows", 20000);
  const std::size_t train_rows = arg_or(argc, argv, "--train-rows", 4000);
  const std::size_t features = arg_or(argc, argv, "--features", 16);
  const int outputs = static_cast<int>(arg_or(argc, argv, "--outputs", 32));
  const int trees = static_cast<int>(arg_or(argc, argv, "--trees", 100));
  const int depth = static_cast<int>(arg_or(argc, argv, "--depth", 6));
  const int repeat = static_cast<int>(arg_or(argc, argv, "--repeat", 3));

  std::printf("== Inference: reference vs compiled engine ==\n");
  progress("training model (" + std::to_string(trees) + " trees, d=" +
           std::to_string(outputs) + ")");

  gbmo::data::MultiregressionSpec spec;
  spec.n_instances = train_rows;
  spec.n_features = features;
  spec.n_outputs = outputs;
  const auto train = gbmo::data::make_multiregression(spec);

  auto cfg = gbmo::bench::paper_config();
  cfg.n_trees = trees;
  cfg.max_depth = depth;
  cfg.max_bins = 64;
  gbmo::core::GbmoBooster booster(cfg);
  const auto model =
      std::make_shared<const gbmo::core::Model>(booster.fit(train));

  // Prediction batch: fresh draw from the same distribution, with ~1% of
  // cells replaced by NaN so missing-value routing runs on the hot path.
  spec.n_instances = rows;
  spec.seed = 1234;
  auto batch = gbmo::data::make_multiregression(spec);
  auto vals = batch.x.values();
  for (std::size_t i = 0; i < vals.size(); i += 97) {
    vals[i] = std::numeric_limits<float>::quiet_NaN();
  }

  JsonReport json("inference");
  json.set("rows", static_cast<double>(rows));
  json.set("features", static_cast<double>(features));
  json.set("outputs", static_cast<double>(outputs));
  json.set("trees", static_cast<double>(model->trees.size()));
  json.set("depth", static_cast<double>(depth));
  json.set("repeat", static_cast<double>(repeat));

  struct EngineRun {
    std::string name;
    double modeled = 0.0;
    double host_best = 0.0;
    std::vector<float> scores;
  };
  std::vector<EngineRun> runs;

  for (const auto& name : gbmo::serve::engine_names()) {
    progress("engine " + name);
    const auto engine = gbmo::serve::make_engine(name, model);
    EngineRun run;
    run.name = name;
    run.host_best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < std::max(1, repeat); ++r) {
      const double modeled_before = engine->modeled_seconds();
      WallTimer timer;
      run.scores = engine->predict(batch.x);
      run.host_best = std::min(run.host_best, timer.seconds());
      run.modeled = engine->modeled_seconds() - modeled_before;
    }
    json.add_record({{"engine", JsonReport::str(run.name)},
                     {"modeled_seconds", JsonReport::num(run.modeled)},
                     {"host_seconds", JsonReport::num(run.host_best)},
                     {"rows_per_modeled_second",
                      JsonReport::num(static_cast<double>(rows) /
                                      std::max(run.modeled, 1e-12))}});
    runs.push_back(std::move(run));
  }

  bool identical = true;
  for (const auto& run : runs) {
    if (std::memcmp(run.scores.data(), runs.front().scores.data(),
                    run.scores.size() * sizeof(float)) != 0) {
      identical = false;
    }
  }

  TextTable table({"engine", "modeled (ms)", "host best (ms)", "Mrows/s (modeled)"});
  for (const auto& run : runs) {
    table.add_row({run.name, TextTable::num(run.modeled * 1e3, 3),
                   TextTable::num(run.host_best * 1e3, 3),
                   TextTable::num(static_cast<double>(rows) /
                                      std::max(run.modeled, 1e-12) / 1e6,
                                  2)});
  }
  std::printf("%s", table.to_string().c_str());

  const auto* ref = &runs.front();
  const auto* comp = &runs.front();
  for (const auto& run : runs) {
    if (run.name == "reference") ref = &run;
    if (run.name == "compiled") comp = &run;
  }
  std::printf("engines bitwise identical: %s\n", identical ? "yes" : "NO");
  std::printf("compiled speedup: %.2fx modeled, %.2fx host wall-clock\n",
              ref->modeled / std::max(comp->modeled, 1e-12),
              ref->host_best / std::max(comp->host_best, 1e-12));
  json.set("bitwise_identical", identical ? 1.0 : 0.0);
  json.set("modeled_speedup", ref->modeled / std::max(comp->modeled, 1e-12));
  json.set("host_speedup", ref->host_best / std::max(comp->host_best, 1e-12));

  // Request-level latency through the micro-batching front-end: submit rows
  // one at a time to the compiled engine's batcher and report the
  // percentile view a serving deployment would gate its SLOs on.
  {
    const std::size_t latency_rows = std::min<std::size_t>(rows, 2000);
    progress("batcher latency (" + std::to_string(latency_rows) + " rows)");
    auto engine = gbmo::serve::make_engine("compiled", model);
    gbmo::serve::PredictBatcher batcher(
        *engine, features,
        gbmo::serve::BatcherConfig{}.batch(64).delay_ms(0.2));
    std::vector<std::future<std::vector<float>>> futures;
    futures.reserve(latency_rows);
    for (std::size_t i = 0; i < latency_rows; ++i) {
      const auto row = batch.x.row(i);
      futures.push_back(batcher.submit(std::vector<float>(row.begin(), row.end())));
    }
    for (auto& f : futures) (void)f.get();
    batcher.drain();
    const auto st = batcher.stats();
    std::printf(
        "batcher latency over %llu requests: p50 %.3f ms, p95 %.3f ms, "
        "p99 %.3f ms, max %.3f ms (mean batch %.1f)\n",
        static_cast<unsigned long long>(st.requests), st.p50_ms(), st.p95_ms(),
        st.p99_ms(), st.max_latency_ms, st.mean_batch_size());
    json.set("batcher_requests", static_cast<double>(st.requests));
    json.set("batcher_p50_ms", st.p50_ms());
    json.set("batcher_p95_ms", st.p95_ms());
    json.set("batcher_p99_ms", st.p99_ms());
    json.set("batcher_max_ms", st.max_latency_ms);
    json.set("batcher_mean_batch", st.mean_batch_size());
  }
  std::printf("wrote %s\n", json.write().c_str());

  if (!identical) {
    std::fprintf(stderr, "FAIL: engines disagree bitwise\n");
    return 1;
  }
  return 0;
}
