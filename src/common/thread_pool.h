// A small thread pool whose one fan-out primitive is run_workers.
//
// The GPU simulator distributes the blocks of commit-free launches over this
// pool (see sim/launch.h and sim/scheduler.h). Guarantees:
//   - exceptions thrown inside workers propagate to the caller (the
//     lowest-indexed captured exception is rethrown);
//   - run_workers called from inside a pool worker runs inline on the
//     calling thread, so nested parallelism cannot deadlock on the shared
//     task queue;
//   - ensure_workers() grows the pool on demand, so a simulation configured
//     for N workers really runs N OS threads even on hosts with fewer cores
//     (results never depend on the worker count — see sim/launch.h).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gbmo {

class ThreadPool {
 public:
  // n_threads == 0 selects hardware concurrency; 1 means inline execution.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const;

  // Grows the pool to at least n_workers OS threads (never shrinks). A pool
  // constructed inline (n_threads == 1) gains real workers on first use.
  void ensure_workers(std::size_t n_workers);

  // True on a thread currently executing pool work (including the caller
  // thread while it participates in run_workers). Nested parallel calls use
  // this to fall back to inline execution.
  static bool in_worker();

  // Runs fn(w) for w in [0, n_workers) with each invocation on its own
  // thread; the calling thread participates as worker 0. Blocks until every
  // worker returns. Runs all workers inline (in index order) when called
  // from a pool worker. Grows the pool as needed.
  void run_workers(std::size_t n_workers,
                   const std::function<void(std::size_t)>& fn);

  // Process-wide pool sized to hardware concurrency.
  static ThreadPool& global();

 private:
  void submit(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace gbmo
