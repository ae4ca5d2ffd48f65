// Open-loop serving load for the benchmark.
//
// One step = one fresh ModelServer with every tenant deployed (compiled
// engine, batch 32, 1 ms delay), fed by a single generator thread on a fixed
// arrival schedule (or, to measure capacity, in a closed loop with a fixed
// window). Requests are timed from when they were *due*, so a stall
// anywhere (generator, batcher, engine) shows up in every request queued
// behind it. A collector thread resolves replies as they complete and checks
// each one bitwise against Model::predict of the exact version that served
// it. A swap controller hot-swaps one tenant at a fixed cadence by reloading
// its model file and deploying it again, so model load, compile and drain
// run beside the reads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/booster.h"
#include "data/matrix.h"
#include "host_clock_sink.h"
#include "serve/batcher.h"

namespace perfbench {

struct ServedTenant {
  std::string name;
  std::string model_path;  // reloaded on every hot swap
  std::shared_ptr<const gbmo::core::Model> model;
};

struct OpenLoopConfig {
  double rate_rps = 1000.0;
  double seconds = 1.0;        // length of the arrival schedule
  // > 0: closed loop instead. The generator keeps this many requests
  // unanswered and submits the next as soon as one is answered, for
  // `seconds`; rate_rps is ignored. Achieved rate = the server's capacity.
  std::size_t window = 0;
  double swap_period_s = 0.0;  // 0 = no hot swaps
  std::size_t swap_tenant = 0;
  std::vector<double> weights;  // tenant traffic shares (any positive scale)
  std::uint64_t seed = 0;
  bool inject_mismatch = false;  // corrupt the first reply (self-check)
};

struct StepResult {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  // CPU time of the server's own threads (batchers and their engines) per
  // answered request: process CPU time over the step less that of the
  // generator, collector and swap controller. The submit call itself runs
  // on the generator thread and is left out with it. Unlike the latencies,
  // it does not read how long the host kept the threads waiting for a CPU.
  double server_cpu_us_per_req = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t swaps = 0;
  // A swap completed before the generator's last request to the swapped
  // tenant, so some reply must come from a swapped-in version; observed =
  // one did.
  bool swap_expected = false;
  bool swap_observed = false;

  // Due -> completion latency: p50 and the tail percentile (p99, or the
  // highest percentile with at least ten samples beyond it when the step has
  // fewer than 1000), with the sample count it rests on.
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_pct = 0.0;
  std::size_t samples = 0;

  double gen_late_p99_ms = 0.0;
  double gen_late_max_ms = 0.0;
  std::uint64_t backlog_max = 0;
  std::uint64_t backlog_end = 0;

  gbmo::serve::LatencyStats inside;  // the batchers' own, merged over tenants
  std::vector<double> deploy_ms;     // every deploy in the step
  std::vector<double> load_ms;       // every model-file reload in the step

  std::uint64_t engine_batches = 0;
  double engine_host_s = 0.0;
  double engine_modeled_s = 0.0;
  std::uint64_t engine_launches = 0;

  std::uint64_t errors() const { return rejected + failed + mismatches; }
};

StepResult run_open_loop(const std::vector<ServedTenant>& tenants,
                         const gbmo::data::DenseMatrix& pool,
                         const OpenLoopConfig& cfg);

// One measurement at a rate made of several steps, each on a fresh server
// (fresh threads, so a run is not bound to one thread placement): latency,
// rate and end backlog are medians over the steps, counters are sums, maxima
// are maxima.
StepResult combine_steps(const std::vector<StepResult>& steps);

// CPU time the hypervisor took from the system's CPUs (the "steal" column
// of /proc/stat), in CPU-seconds; 0 where it is not available. Printed as a
// diagnostic only: no measurement is filtered on it.
double steal_cpu_seconds();

// Nearest-rank median of unsorted samples; 0 when empty.
double median(std::vector<double> v);

}  // namespace perfbench
