// PredictBatcher: thread-safe micro-batching front-end for an
// InferenceEngine.
//
// Callers submit single rows from any thread and get a future for the row's
// d-dimensional score vector. A background worker collects submissions into
// micro-batches — flushing when `max_batch` rows are pending or the oldest
// submission has waited `max_delay_ms` — and runs one engine.predict() per
// batch, so the device sees batched kernels instead of row-at-a-time
// launches.
//
// A submit wakes the worker only when the queue goes from empty to one row
// (the worker arms that row's deadline) or reaches max_batch, so a batch
// costs the worker at most two wake-ups, not one per row.
//
// Configuration is builder-style; the observability sink rides in
// BatcherConfig and is attached to the engine's device for the batcher's
// lifetime:
//
//   PredictBatcher batcher(*engine, n_features,
//                          BatcherConfig{}.batch(32).delay_ms(0.5)
//                                         .queue_limit(1024)
//                                         .stats_sink(&profiler));
//
// Admission control: queue_limit(N) bounds the number of rows waiting for a
// flush. try_submit() returns nullopt (and counts a rejection in
// LatencyStats::rejected_requests) instead of queueing past the bound;
// submit() throws gbmo::Error in the same case. Accepted requests are never
// dropped: the worker answers everything still queued before the destructor
// joins it.
//
// Per-request wall-clock latency (submit -> future fulfilled) is tracked in
// LatencyStats, including p50/p95/p99 percentiles over a deterministic
// bounded reservoir; when a sink is configured, every batch additionally
// emits a "predict_batch" span on the modeled timeline.
#pragma once

#include <condition_variable>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "serve/engine.h"
#include "sim/sink.h"

namespace gbmo::serve {

// Builder-style batcher configuration. All setters return *this.
struct BatcherConfig {
  std::size_t max_batch = 64;      // flush when this many rows are pending
  double max_delay_ms = 1.0;       // ... or the oldest row waited this long
  std::size_t max_queue = 0;       // admission bound on queued rows; 0 = unbounded
  sim::StatsSink* sink = nullptr;  // e.g. obs::Profiler; attached to the engine

  BatcherConfig& batch(std::size_t n) { max_batch = n; return *this; }
  BatcherConfig& delay_ms(double ms) { max_delay_ms = ms; return *this; }
  BatcherConfig& queue_limit(std::size_t n) { max_queue = n; return *this; }
  BatcherConfig& stats_sink(sim::StatsSink* s) { sink = s; return *this; }
};

struct LatencyStats {
  // Retained latency samples are a deterministic bounded reservoir: every
  // `sample_stride`-th recorded latency is kept; when the buffer reaches
  // kReservoirCapacity it is thinned to every other retained sample and the
  // stride doubles. The result is an evenly spaced subsample of the full
  // request sequence — no RNG, so identical request streams give identical
  // percentiles.
  static constexpr std::size_t kReservoirCapacity = 1024;

  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  double total_latency_ms = 0.0;  // summed submit->fulfil wall-clock
  double max_latency_ms = 0.0;
  // Fault-injection visibility (sim/faults.h): requests whose batch's
  // engine.predict() threw — their futures carry the exception instead of
  // scores — and the engine's cumulative fallback count (the "resilient"
  // engine's compiled→reference degradations) as of the last batch.
  std::uint64_t failed_requests = 0;
  std::uint64_t engine_fallbacks = 0;
  // Admission-control rejections: try_submit calls turned away because
  // max_queue rows were already waiting. Rejected rows are never queued and
  // never get a future — the caller decides whether to retry or shed load.
  std::uint64_t rejected_requests = 0;

  std::vector<double> latency_samples;  // the reservoir (see above)
  std::uint64_t sample_stride = 1;
  std::uint64_t samples_offered = 0;

  // Folds one request latency into the totals and the reservoir.
  void record_latency(double ms);
  // Accumulates counters and reservoir samples from `other` (used by the
  // registry to carry stats across hot-swapped versions).
  void merge_from(const LatencyStats& other);

  // Nearest-rank percentile over the reservoir (0.0 when empty).
  double percentile_ms(double p) const;
  double p50_ms() const { return percentile_ms(50.0); }
  double p95_ms() const { return percentile_ms(95.0); }
  double p99_ms() const { return percentile_ms(99.0); }

  double mean_latency_ms() const {
    return requests == 0 ? 0.0 : total_latency_ms / static_cast<double>(requests);
  }
  double mean_batch_size() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) / static_cast<double>(batches);
  }

 private:
  // Halves the reservoir until it is below kReservoirCapacity.
  void thin_reservoir();
};

class PredictBatcher {
 public:
  // The engine must outlive the batcher. `config.sink`, when non-null, is
  // attached to the engine's device for the batcher's lifetime.
  explicit PredictBatcher(InferenceEngine& engine, std::size_t n_features,
                          BatcherConfig config = {});
  ~PredictBatcher();  // drains pending requests, then joins the worker

  PredictBatcher(const PredictBatcher&) = delete;
  PredictBatcher& operator=(const PredictBatcher&) = delete;

  // Enqueues one feature row (size must equal n_features); the future
  // resolves to the row's n_outputs raw scores. Throws gbmo::Error when the
  // admission queue is full (see try_submit for the non-throwing form).
  std::future<std::vector<float>> submit(std::vector<float> row);

  // Like submit, but returns nullopt instead of throwing when max_queue rows
  // are already pending; the rejection is counted in stats().
  std::optional<std::future<std::vector<float>>> try_submit(
      std::vector<float> row);

  // Blocks until every request submitted so far has been answered.
  void drain();

  // Rows waiting for a flush (excludes rows already handed to the engine).
  std::size_t pending() const;

  LatencyStats stats() const;

 private:
  struct Pending {
    std::vector<float> row;
    std::promise<std::vector<float>> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop();
  void run_batch(std::vector<Pending> batch);

  InferenceEngine& engine_;
  const std::size_t n_features_;
  const BatcherConfig config_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // wakes the worker
  std::condition_variable drained_;   // wakes drain()
  std::deque<Pending> queue_;
  std::size_t in_flight_ = 0;         // rows handed to run_batch, unanswered
  bool stop_ = false;
  LatencyStats stats_;
  std::thread worker_;
};

}  // namespace gbmo::serve
