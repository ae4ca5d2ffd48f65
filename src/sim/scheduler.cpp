#include "sim/scheduler.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#include "common/thread_pool.h"

namespace gbmo::sim {

namespace {

std::atomic<int> g_sim_threads{0};  // 0 = use the env/hardware default

int clamp_threads(long n) {
  return static_cast<int>(std::clamp<long>(n, 1, 1024));
}

int env_or_hardware() {
  if (const char* env = std::getenv("GBMO_SIM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) return clamp_threads(v);
  }
  return clamp_threads(
      static_cast<long>(std::max(1u, std::thread::hardware_concurrency())));
}

}  // namespace

int default_sim_threads() {
  static const int v = env_or_hardware();
  return v;
}

int sim_threads() {
  const int v = g_sim_threads.load(std::memory_order_relaxed);
  return v > 0 ? v : default_sim_threads();
}

int set_sim_threads(int n) {
  return g_sim_threads.exchange(n > 0 ? clamp_threads(n) : 0,
                                std::memory_order_relaxed);
}

int launch_workers(int grid_dim) {
  if (grid_dim <= 1) return 1;
  if (ThreadPool::in_worker()) return 1;
  return std::min(sim_threads(), grid_dim);
}

}  // namespace gbmo::sim
