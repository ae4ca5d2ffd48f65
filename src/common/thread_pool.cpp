#include "common/thread_pool.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <utility>

namespace gbmo {

namespace {

// Set for the lifetime of any pool-managed work (worker threads and the
// caller while it participates in run_workers).
thread_local bool tl_in_worker = false;

struct InWorkerScope {
  bool prev;
  InWorkerScope() : prev(tl_in_worker) { tl_in_worker = true; }
  ~InWorkerScope() { tl_in_worker = prev; }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (n_threads == 1) return;  // inline mode until ensure_workers() grows it
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.empty() ? 1 : workers_.size();
}

void ThreadPool::ensure_workers(std::size_t n_workers) {
  std::lock_guard<std::mutex> lock(mu_);
  while (workers_.size() < n_workers) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

bool ThreadPool::in_worker() { return tl_in_worker; }

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  InWorkerScope scope;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::run_workers(std::size_t n_workers,
                             const std::function<void(std::size_t)>& fn) {
  if (n_workers == 0) return;
  if (n_workers == 1 || in_worker()) {
    InWorkerScope scope;
    for (std::size_t w = 0; w < n_workers; ++w) fn(w);
    return;
  }
  // The caller runs worker 0, so only n_workers - 1 pool threads are needed;
  // grow the pool if the host has fewer (correctness never depends on real
  // parallelism, only on every worker index running).
  ensure_workers(n_workers - 1);
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::size_t remaining = n_workers - 1;
  std::size_t first_failed = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
  auto record = [&](std::size_t w, std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(done_mu);
    if (w < first_failed) {
      first_failed = w;
      error = std::move(e);
    }
  };
  for (std::size_t w = 1; w < n_workers; ++w) {
    submit([&, w] {
      try {
        fn(w);
      } catch (...) {
        record(w, std::current_exception());
      }
      std::lock_guard<std::mutex> lock(done_mu);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  {
    InWorkerScope scope;
    try {
      fn(0);
    } catch (...) {
      record(0, std::current_exception());
    }
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(0);
  return pool;
}

}  // namespace gbmo
