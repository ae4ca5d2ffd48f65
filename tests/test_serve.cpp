// Serving layer: the engine registry, engine agreement with the scalar
// reference, and the micro-batching front-end (thread-safe submits, batch
// flushing, latency percentiles, admission control, profiler spans).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/booster.h"
#include "core/predictor.h"
#include "data/synthetic.h"
#include "obs/profiler.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "sim/faults.h"

namespace gbmo::serve {
namespace {

std::shared_ptr<const core::Model> train_model(int d = 4, int trees = 6) {
  data::MultiregressionSpec spec;
  spec.n_instances = 300;
  spec.n_features = 10;
  spec.n_outputs = d;
  spec.seed = 31;
  const auto ds = data::make_multiregression(spec);
  core::TrainConfig cfg;
  cfg.n_trees = trees;
  cfg.max_depth = 4;
  cfg.learning_rate = 0.4f;
  cfg.min_instances_per_node = 8;
  cfg.max_bins = 32;
  core::GbmoBooster booster(cfg);
  return std::make_shared<const core::Model>(booster.fit(ds));
}

data::DenseMatrix nan_batch(std::size_t rows, std::size_t cols) {
  data::MultiregressionSpec spec;
  spec.n_instances = rows;
  spec.n_features = cols;
  spec.n_outputs = 2;
  spec.seed = 77;
  auto ds = data::make_multiregression(spec);
  auto vals = ds.x.values();
  for (std::size_t i = 0; i < vals.size(); i += 11) {
    vals[i] = std::numeric_limits<float>::quiet_NaN();
  }
  return ds.x;
}

TEST(Serve, EngineRegistry) {
  const auto names = engine_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "compiled");
  EXPECT_EQ(names[1], "reference");
  EXPECT_EQ(names[2], "resilient");
  const auto model = train_model();
  EXPECT_THROW(make_engine("turbo", model), Error);
  EXPECT_THROW(make_engine("compiled", nullptr), Error);
}

TEST(Serve, EnginesMatchScalarReferenceBitwise) {
  const auto model = train_model();
  const auto x = nan_batch(200, 10);
  const auto reference = core::predict_scores(model->trees, x, model->n_outputs);

  for (const auto& name : engine_names()) {
    auto engine = make_engine(name, model);
    const auto scores = engine->predict(x);
    ASSERT_EQ(scores.size(), reference.size()) << name;
    EXPECT_EQ(std::memcmp(scores.data(), reference.data(),
                          scores.size() * sizeof(float)),
              0)
        << name;
    EXPECT_GT(engine->modeled_seconds(), 0.0) << name;
  }
}

TEST(Serve, EngineOwnsModelBeyondCallersHandle) {
  // The API-redesign contract: the engine shares ownership, so dropping the
  // caller's handle (the old dangling-reference footgun) is now safe.
  auto model = train_model();
  const auto x = nan_batch(50, 10);
  const auto expected = core::predict_scores(model->trees, x, model->n_outputs);
  auto engine = make_engine("reference", std::move(model));
  const auto scores = engine->predict(x);
  ASSERT_EQ(scores.size(), expected.size());
  EXPECT_EQ(std::memcmp(scores.data(), expected.data(),
                        scores.size() * sizeof(float)),
            0);
}

TEST(Serve, BatcherMatchesDirectPredictUnderConcurrentSubmits) {
  const auto model = train_model();
  const auto x = nan_batch(120, 10);
  const auto direct = make_engine("compiled", model)->predict(x);
  const auto d = static_cast<std::size_t>(model->n_outputs);

  auto engine = make_engine("compiled", model);
  PredictBatcher batcher(*engine, x.n_cols(),
                         BatcherConfig{}.batch(16).delay_ms(2.0));

  constexpr int kThreads = 4;
  const std::size_t per_thread = x.n_rows() / kThreads;
  std::vector<std::vector<std::pair<std::size_t, std::future<std::vector<float>>>>>
      futures(kThreads);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t j = 0; j < per_thread; ++j) {
        const std::size_t row = static_cast<std::size_t>(w) * per_thread + j;
        const auto r = x.row(row);
        futures[static_cast<std::size_t>(w)].emplace_back(
            row, batcher.submit(std::vector<float>(r.begin(), r.end())));
      }
    });
  }
  for (auto& t : workers) t.join();

  std::size_t answered = 0;
  for (auto& per : futures) {
    for (auto& [row, fut] : per) {
      const auto scores = fut.get();
      ASSERT_EQ(scores.size(), d);
      EXPECT_EQ(std::memcmp(scores.data(), direct.data() + row * d,
                            d * sizeof(float)),
                0)
          << "row " << row;
      ++answered;
    }
  }
  EXPECT_EQ(answered, static_cast<std::size_t>(kThreads) * per_thread);

  batcher.drain();
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.requests, answered);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.mean_batch_size(), 1.0);
  EXPECT_LE(stats.mean_latency_ms(), stats.max_latency_ms + 1e-9);
  // Percentiles are monotone and bracketed by the extremes.
  EXPECT_LE(stats.p50_ms(), stats.p95_ms());
  EXPECT_LE(stats.p95_ms(), stats.p99_ms());
  EXPECT_LE(stats.p99_ms(), stats.max_latency_ms + 1e-9);
  EXPECT_EQ(stats.rejected_requests, 0u);
}

TEST(Serve, LatencyPercentilesNearestRank) {
  LatencyStats stats;
  for (int i = 1; i <= 1000; ++i) stats.record_latency(static_cast<double>(i));
  // 1000 samples fit the reservoir untouched (capacity 1024), so the
  // nearest-rank percentiles are exact.
  EXPECT_DOUBLE_EQ(stats.p50_ms(), 500.0);
  EXPECT_DOUBLE_EQ(stats.p95_ms(), 950.0);
  EXPECT_DOUBLE_EQ(stats.p99_ms(), 990.0);
  EXPECT_DOUBLE_EQ(stats.percentile_ms(0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats.percentile_ms(100.0), 1000.0);
  EXPECT_DOUBLE_EQ(LatencyStats{}.p99_ms(), 0.0);
}

TEST(Serve, LatencyReservoirBoundedAndDeterministic) {
  LatencyStats a, b;
  for (int i = 1; i <= 100000; ++i) {
    a.record_latency(static_cast<double>(i));
    b.record_latency(static_cast<double>(i));
  }
  EXPECT_LT(a.latency_samples.size(), LatencyStats::kReservoirCapacity);
  EXPECT_GE(a.latency_samples.size(), LatencyStats::kReservoirCapacity / 4);
  // Deterministic: the same sequence keeps the same samples.
  EXPECT_EQ(a.latency_samples, b.latency_samples);
  EXPECT_EQ(a.sample_stride, b.sample_stride);
  // The evenly spaced subsample keeps percentiles close on a uniform ramp.
  EXPECT_NEAR(a.p50_ms(), 50000.0, 5000.0);
  EXPECT_NEAR(a.p99_ms(), 99000.0, 5000.0);
  EXPECT_DOUBLE_EQ(a.max_latency_ms, 100000.0);
}

TEST(Serve, LatencyStatsMergeAccumulates) {
  LatencyStats a, b;
  for (int i = 1; i <= 100; ++i) a.record_latency(static_cast<double>(i));
  for (int i = 101; i <= 200; ++i) b.record_latency(static_cast<double>(i));
  a.requests = 100;
  b.requests = 100;
  b.rejected_requests = 7;
  a.merge_from(b);
  EXPECT_EQ(a.requests, 200u);
  EXPECT_EQ(a.rejected_requests, 7u);
  EXPECT_DOUBLE_EQ(a.max_latency_ms, 200.0);
  EXPECT_DOUBLE_EQ(a.p50_ms(), 100.0);  // merged reservoir spans both halves
  EXPECT_EQ(a.samples_offered, 200u);
}

TEST(Serve, BatcherAdmissionControlRejectsPastQueueLimit) {
  const auto model = train_model();
  auto engine = make_engine("compiled", model);
  // A huge batch and a long delay pin the worker in its deadline wait, so
  // the queue bound is what callers hit.
  PredictBatcher batcher(*engine, 10,
                         BatcherConfig{}.batch(64).delay_ms(250.0).queue_limit(2));

  std::vector<std::future<std::vector<float>>> accepted;
  std::uint64_t rejected = 0;
  for (int i = 0; i < 10; ++i) {
    auto fut = batcher.try_submit(std::vector<float>(10, 0.5f));
    if (fut.has_value()) {
      accepted.push_back(std::move(*fut));
    } else {
      ++rejected;
    }
  }
  EXPECT_GE(accepted.size(), 2u);
  EXPECT_GE(rejected, 1u);
  // submit() throws where try_submit rejects.
  if (batcher.pending() >= 2) {
    EXPECT_THROW(batcher.submit(std::vector<float>(10, 0.5f)), Error);
  }
  for (auto& f : accepted) (void)f.get();  // every accepted row is answered
  batcher.drain();
  const auto stats = batcher.stats();
  EXPECT_EQ(accepted.size() + rejected, 10u);
  EXPECT_GE(stats.rejected_requests, rejected);  // + possible submit() throw
  EXPECT_EQ(stats.requests, accepted.size());
  EXPECT_EQ(stats.failed_requests, 0u);
}

// The flush contract: a batch leaves when it is full or when its oldest row
// has waited max_delay_ms, never earlier, and the destructor answers rows
// still waiting. A submit wakes the worker only for the first row of an empty
// queue and for the row that fills a batch; the next two tests time out if
// either wake-up is missing.
constexpr auto kAnswerTimeout = std::chrono::seconds(10);

TEST(Serve, BatcherHoldsPartialBatchUntilFull) {
  const auto model = train_model();
  const auto x = nan_batch(4, 10);
  const auto direct = make_engine("compiled", model)->predict(x);
  const auto d = static_cast<std::size_t>(model->n_outputs);
  auto engine = make_engine("compiled", model);
  PredictBatcher batcher(*engine, x.n_cols(),
                         BatcherConfig{}.batch(4).delay_ms(60000.0));
  const auto row = [&](std::size_t i) {
    return std::vector<float>(x.row(i).begin(), x.row(i).end());
  };

  std::vector<std::future<std::vector<float>>> futures;
  for (std::size_t i = 0; i < 3; ++i) {
    futures.push_back(batcher.submit(row(i)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(batcher.pending(), 3u);
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  }

  futures.push_back(batcher.submit(row(3)));  // fills the batch
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(kAnswerTimeout), std::future_status::ready)
        << "row " << i;
    const auto scores = futures[i].get();
    ASSERT_EQ(scores.size(), d);
    EXPECT_EQ(std::memcmp(scores.data(), direct.data() + i * d,
                          d * sizeof(float)),
              0)
        << "row " << i;
  }
  batcher.drain();  // run_batch books the batch after fulfilling promises
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.batches, 1u);
}

TEST(Serve, BatcherFlushesLoneRowAtItsDeadline) {
  const auto model = train_model();
  auto engine = make_engine("compiled", model);
  PredictBatcher batcher(*engine, 10, BatcherConfig{}.batch(64).delay_ms(30.0));
  // A first row flushes and the worker goes back to sleep on an empty queue,
  // so only the next submit's wake-up can arm that row's deadline.
  (void)batcher.submit(std::vector<float>(10, 0.1f)).get();
  batcher.drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const auto submitted = std::chrono::steady_clock::now();
  auto future = batcher.submit(std::vector<float>(10, 0.5f));
  ASSERT_EQ(future.wait_for(kAnswerTimeout), std::future_status::ready);
  const auto waited = std::chrono::steady_clock::now() - submitted;
  EXPECT_GE(waited, std::chrono::milliseconds(30));
  EXPECT_EQ(future.get().size(), static_cast<std::size_t>(model->n_outputs));
  batcher.drain();
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.batches, 2u);
}

TEST(Serve, BatcherDestructorAnswersEverythingAccepted) {
  const auto model = train_model();
  const auto d = static_cast<std::size_t>(model->n_outputs);
  auto engine = make_engine("compiled", model);
  std::vector<std::future<std::vector<float>>> futures;
  const auto start = std::chrono::steady_clock::now();
  {
    // Long delay: rows are still queued (not flushed) when the destructor
    // runs. It must answer them all — zero dropped requests — at once
    // instead of waiting out the delay.
    PredictBatcher batcher(*engine, 10,
                           BatcherConfig{}.batch(256).delay_ms(60000.0));
    for (int i = 0; i < 50; ++i) {
      futures.push_back(batcher.submit(std::vector<float>(10, 0.02f * i)));
    }
    EXPECT_EQ(batcher.pending(), 50u);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, kAnswerTimeout);
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const auto scores = f.get();  // throws if any promise was broken
    EXPECT_EQ(scores.size(), d);
  }
}

TEST(Serve, BatcherDrainRacesDestructorSafely) {
  const auto model = train_model();
  auto engine = make_engine("compiled", model);
  // Regression: drain() from several threads while submits are in flight,
  // with the destructor following immediately after the drains return.
  for (int round = 0; round < 10; ++round) {
    auto batcher = std::make_unique<PredictBatcher>(
        *engine, 10, BatcherConfig{}.batch(8).delay_ms(0.2));
    std::vector<std::future<std::vector<float>>> futures;
    for (int i = 0; i < 40; ++i) {
      futures.push_back(batcher->submit(std::vector<float>(10, 0.1f * i)));
    }
    std::thread d1([&] { batcher->drain(); });
    std::thread d2([&] { batcher->drain(); });
    d1.join();
    d2.join();
    const auto stats = batcher->stats();
    EXPECT_EQ(stats.requests, 40u) << "round " << round;
    batcher.reset();  // destructor right on the heels of drain()
    for (auto& f : futures) (void)f.get();
  }
}

TEST(Serve, BatcherEmitsProfilerSpansAndKernelProfile) {
  const auto model = train_model();
  auto engine = make_engine("compiled", model);
  obs::Profiler profiler;
  {
    PredictBatcher batcher(
        *engine, 10,
        BatcherConfig{}.batch(8).delay_ms(0.5).stats_sink(&profiler));
    std::vector<std::future<std::vector<float>>> futures;
    for (int i = 0; i < 20; ++i) {
      futures.push_back(batcher.submit(std::vector<float>(10, 0.1f * i)));
    }
    for (auto& f : futures) f.get();
    batcher.drain();
  }
  // Kernel charges reached the profiler through the engine's device...
  EXPECT_TRUE(profiler.kernels().count("predict_compiled_route") == 1 &&
              profiler.kernels().count("predict_compiled_reduce") == 1)
      << profiler.profile_table();
  // ... and every batch opened/closed a span on the modeled timeline.
  int begins = 0, ends = 0;
  for (const auto& e : profiler.trace_events()) {
    if (e.name == "predict_batch" && e.ph == 'B') ++begins;
    if (e.ph == 'E') ++ends;
  }
  EXPECT_GE(begins, 1);
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(profiler.span_depth(), 0);
}

// RAII fault arming for the serve-side chaos tests.
struct ScopedFaults {
  explicit ScopedFaults(const std::string& spec) { sim::set_sim_faults(spec); }
  ~ScopedFaults() { sim::reset_sim_faults(); }
};

TEST(ServeFaults, ResilientEngineFallsBackWithIdenticalScores) {
  const auto model = train_model();
  const auto x = nan_batch(60, 10);
  const auto reference = make_engine("reference", model)->predict(x);

  // Every compiled launch faults and the retry budget is tiny, so each
  // request degrades to the reference path — with bit-identical scores.
  ScopedFaults armed("kernel=predict_compiled;transient=1.0;retries=1;seed=5");
  auto engine = make_engine("resilient", model);
  const auto scores = engine->predict(x);
  ASSERT_EQ(scores.size(), reference.size());
  EXPECT_EQ(std::memcmp(scores.data(), reference.data(),
                        scores.size() * sizeof(float)),
            0);
  EXPECT_EQ(engine->fallback_count(), 1u);
  const auto again = engine->predict(x);
  EXPECT_EQ(engine->fallback_count(), 2u);
  EXPECT_EQ(std::memcmp(again.data(), reference.data(),
                        again.size() * sizeof(float)),
            0);
}

TEST(ServeFaults, ResilientEnginePinsToFallbackAfterDeviceLoss) {
  const auto model = train_model();
  const auto x = nan_batch(40, 10);
  const auto reference = make_engine("reference", model)->predict(x);

  // Kill the primary (device 0) at its first launch: the engine degrades
  // permanently and every request is answered by the standby device.
  ScopedFaults armed("kill=0@0");
  auto engine = make_engine("resilient", model);
  for (int round = 1; round <= 3; ++round) {
    const auto scores = engine->predict(x);
    EXPECT_EQ(std::memcmp(scores.data(), reference.data(),
                          scores.size() * sizeof(float)),
              0)
        << "round " << round;
    EXPECT_EQ(engine->fallback_count(), static_cast<std::uint64_t>(round));
  }
}

TEST(ServeFaults, CompiledEngineFaultsSurfaceThroughBatcherFutures) {
  const auto model = train_model();
  const auto x = nan_batch(32, 10);

  // The plain compiled engine has no fallback: exhausted retries must reach
  // the caller as future exceptions — not kill the worker thread — and the
  // batcher must still drain and destruct cleanly under the churn.
  ScopedFaults armed("kernel=predict_compiled;transient=1.0;retries=0;seed=9");
  auto engine = make_engine("compiled", model);
  PredictBatcher batcher(*engine, x.n_cols(),
                         BatcherConfig{}.batch(8).delay_ms(0.5));

  std::vector<std::future<std::vector<float>>> futures;
  for (std::size_t i = 0; i < x.n_rows(); ++i) {
    const auto r = x.row(i);
    futures.push_back(batcher.submit(std::vector<float>(r.begin(), r.end())));
  }
  std::size_t failed = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
    } catch (const sim::SimFaultError&) {
      ++failed;
    }
  }
  EXPECT_EQ(failed, x.n_rows());
  batcher.drain();  // must not deadlock: in_flight_ drains on the fault path
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.requests, x.n_rows());
  EXPECT_EQ(stats.failed_requests, x.n_rows());
  EXPECT_EQ(stats.engine_fallbacks, 0u);
}

TEST(ServeFaults, BatcherRecordsResilientFallbacksInStats) {
  const auto model = train_model();
  const auto x = nan_batch(24, 10);
  const auto reference = make_engine("reference", model)->predict(x);
  const auto d = static_cast<std::size_t>(model->n_outputs);

  ScopedFaults armed("kernel=predict_compiled;transient=1.0;retries=0;seed=3");
  auto engine = make_engine("resilient", model);
  PredictBatcher batcher(*engine, x.n_cols(),
                         BatcherConfig{}.batch(8).delay_ms(0.5));

  std::vector<std::future<std::vector<float>>> futures;
  for (std::size_t i = 0; i < x.n_rows(); ++i) {
    const auto r = x.row(i);
    futures.push_back(batcher.submit(std::vector<float>(r.begin(), r.end())));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto scores = futures[i].get();  // degraded, never exceptional
    ASSERT_EQ(scores.size(), d);
    EXPECT_EQ(std::memcmp(scores.data(), reference.data() + i * d,
                          d * sizeof(float)),
              0)
        << "row " << i;
  }
  batcher.drain();
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.requests, x.n_rows());
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_EQ(stats.engine_fallbacks, engine->fallback_count());
  EXPECT_GE(stats.engine_fallbacks, 1u);
}

}  // namespace
}  // namespace gbmo::serve
