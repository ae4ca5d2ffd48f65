#include "serve/batcher.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace gbmo::serve {

void LatencyStats::record_latency(double ms) {
  total_latency_ms += ms;
  max_latency_ms = std::max(max_latency_ms, ms);
  if (samples_offered++ % sample_stride == 0) {
    latency_samples.push_back(ms);
    thin_reservoir();
  }
}

void LatencyStats::merge_from(const LatencyStats& other) {
  requests += other.requests;
  batches += other.batches;
  total_latency_ms += other.total_latency_ms;
  max_latency_ms = std::max(max_latency_ms, other.max_latency_ms);
  failed_requests += other.failed_requests;
  engine_fallbacks += other.engine_fallbacks;
  rejected_requests += other.rejected_requests;
  samples_offered += other.samples_offered;
  sample_stride = std::max(sample_stride, other.sample_stride);
  latency_samples.insert(latency_samples.end(), other.latency_samples.begin(),
                         other.latency_samples.end());
  thin_reservoir();
}

void LatencyStats::thin_reservoir() {
  // Keep every other retained sample; the stride doubles so the retained
  // set stays an evenly spaced subsample of the full sequence.
  while (latency_samples.size() >= kReservoirCapacity) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < latency_samples.size(); r += 2) {
      latency_samples[w++] = latency_samples[r];
    }
    latency_samples.resize(w);
    sample_stride *= 2;
  }
}

double LatencyStats::percentile_ms(double p) const {
  if (latency_samples.empty()) return 0.0;
  auto sorted = latency_samples;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

PredictBatcher::PredictBatcher(InferenceEngine& engine, std::size_t n_features,
                               BatcherConfig config)
    : engine_(engine), n_features_(n_features), config_(config) {
  GBMO_CHECK(config_.max_batch > 0);
  if (config_.sink != nullptr) engine_.set_sink(config_.sink);
  worker_ = std::thread([this] { worker_loop(); });
}

PredictBatcher::~PredictBatcher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
  if (config_.sink != nullptr) engine_.set_sink(nullptr);
}

std::future<std::vector<float>> PredictBatcher::submit(std::vector<float> row) {
  auto future = try_submit(std::move(row));
  if (!future.has_value()) {
    throw Error("batcher: admission queue full (" +
                std::to_string(config_.max_queue) + " rows pending)");
  }
  return std::move(*future);
}

std::optional<std::future<std::vector<float>>> PredictBatcher::try_submit(
    std::vector<float> row) {
  GBMO_CHECK(row.size() == n_features_)
      << "row has " << row.size() << " features, engine expects " << n_features_;
  Pending p;
  p.row = std::move(row);
  p.enqueued = std::chrono::steady_clock::now();
  auto future = p.promise.get_future();
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    GBMO_CHECK(!stop_) << "submit after shutdown";
    if (config_.max_queue > 0 && queue_.size() >= config_.max_queue) {
      ++stats_.rejected_requests;
      return std::nullopt;
    }
    queue_.push_back(std::move(p));
    // Only the first row (the idle worker arms its deadline) and the row
    // that fills a batch change what the worker does; any other row is seen
    // when the worker wakes at the oldest row's deadline.
    wake = queue_.size() == 1 || queue_.size() == config_.max_batch;
  }
  if (wake) cv_.notify_one();
  return future;
}

void PredictBatcher::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

std::size_t PredictBatcher::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

LatencyStats PredictBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PredictBatcher::worker_loop() {
  const auto max_delay =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(config_.max_delay_ms));
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    // Wait for a full batch, but no longer than the oldest row's deadline.
    const auto deadline = queue_.front().enqueued + max_delay;
    cv_.wait_until(lock, deadline, [this] {
      return stop_ || queue_.size() >= config_.max_batch;
    });
    const std::size_t take = std::min(queue_.size(), config_.max_batch);
    std::vector<Pending> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    in_flight_ += batch.size();
    lock.unlock();
    run_batch(std::move(batch));
    lock.lock();
    drained_.notify_all();
  }
}

void PredictBatcher::run_batch(std::vector<Pending> batch) {
  data::DenseMatrix x(batch.size(), n_features_);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::copy(batch[i].row.begin(), batch[i].row.end(), x.row(i).begin());
  }

  // The engine may throw under fault injection (e.g. the compiled engine's
  // retries exhaust). The exception must not escape the worker thread — that
  // would std::terminate the process and leave every promise broken — so it
  // is captured and forwarded through the batch's futures, and in_flight_ is
  // decremented on every path (drain()/~PredictBatcher stay live).
  if (config_.sink != nullptr) {
    config_.sink->on_span_begin("predict_batch", engine_.modeled_seconds());
  }
  std::vector<float> scores;
  std::exception_ptr error;
  try {
    scores = engine_.predict(x);
  } catch (...) {
    error = std::current_exception();
  }
  if (config_.sink != nullptr) config_.sink->on_span_end(engine_.modeled_seconds());

  const auto d = static_cast<std::size_t>(engine_.n_outputs());
  const auto done = std::chrono::steady_clock::now();
  std::vector<double> latencies_ms(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (error) {
      batch[i].promise.set_exception(error);
    } else {
      batch[i].promise.set_value(std::vector<float>(
          scores.begin() + static_cast<std::ptrdiff_t>(i * d),
          scores.begin() + static_cast<std::ptrdiff_t>((i + 1) * d)));
    }
    latencies_ms[i] =
        std::chrono::duration<double, std::milli>(done - batch[i].enqueued)
            .count();
  }

  std::lock_guard<std::mutex> lock(mu_);
  stats_.requests += batch.size();
  stats_.batches += 1;
  for (const double ms : latencies_ms) stats_.record_latency(ms);
  if (error) stats_.failed_requests += batch.size();
  stats_.engine_fallbacks = engine_.fallback_count();
  in_flight_ -= batch.size();
}

}  // namespace gbmo::serve
