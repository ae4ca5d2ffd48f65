// Simulated GPU device: a hardware description (DeviceSpec), cumulative
// event counters, modeled-time accounting bucketed by training phase, and
// memory-capacity accounting used to reproduce the paper's out-of-memory
// behaviour (Figure 7).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/counters.h"
#include "sim/sink.h"

namespace gbmo::sim {

// Static description of a device. Bandwidth/throughput figures are
// first-order public-spec numbers; the cost model only relies on their
// ratios, so modest inaccuracies shift absolute modeled seconds without
// changing which strategy wins.
struct DeviceSpec {
  std::string name;
  int sm_count = 128;
  std::size_t shared_mem_per_block = 48 * 1024;
  std::size_t memory_bytes = 24ull << 30;      // device memory capacity
  double mem_bandwidth = 1.008e12;             // global memory, bytes/s
  double smem_bandwidth = 20e12;               // aggregate shared memory, bytes/s
  double flops = 40e12;                        // sustained fp32 flop/s
  double atomic_throughput = 8e9;              // conflict-free atomics/s
  double atomic_serialization_s = 4e-9;        // extra latency per collision
  double kernel_launch_s = 4e-6;               // per kernel launch
  double pcie_bandwidth = 24e9;                // host<->device, bytes/s
  // Fully divergent gathers are transaction-limited, not bandwidth-limited:
  // one scattered 32B transaction per access, serviced at this rate.
  double random_access_throughput = 6e9;
  // Radix sort_by_key pairs/s (library sorts are compute/launch bound).
  double sort_throughput = 2e9;

  static DeviceSpec rtx4090();
  static DeviceSpec rtx3090();
  // A server-class CPU description used to model the paper's CPU baselines
  // (GBDT-MO's reference implementation is lightly parallel; effective
  // throughput is far below peak because of scattered access patterns).
  static DeviceSpec cpu_server();
};

// Charging (charge_kernel, including the sink forwarding) and the phase
// setter are serialized by an internal mutex, so kernels running on parallel
// scheduler workers may charge the device concurrently. The aggregate
// accessors are unsynchronized reads: call them from the launching thread
// between launches (the join at the end of every sim::launch makes all
// charges visible there).
class Device {
 public:
  explicit Device(DeviceSpec spec, int id = 0) : spec_(std::move(spec)), id_(id) {}

  const DeviceSpec& spec() const { return spec_; }
  int id() const { return id_; }

  // --- modeled-time accounting -------------------------------------------
  // Every charge adds its modeled seconds under the currently active phase
  // label (see PhaseTag for a scoped switch).
  void set_phase(std::string phase);
  const std::string& phase() const { return phase_; }
  double modeled_seconds() const { return modeled_seconds_; }
  const std::map<std::string, double>& phase_seconds() const { return phase_seconds_; }

  // --- cumulative event counters -----------------------------------------
  const KernelStats& total_stats() const { return total_stats_; }
  // Race/memory-checker findings charged to this device (sim/checker.h);
  // 0 unless the checker was armed and a kernel violated.
  std::uint64_t check_violations() const { return total_stats_.check_violations; }

  // The one way into the modeled clock and the counters: books `s` and
  // `seconds` under the current phase and hands an attached sink one event
  // named `name`. Callers go through sim::launch, sim::charge_kernel
  // (cost-modeled) or sim::charge_seconds (fixed costs).
  void charge_kernel(const char* name, const KernelStats& s, double seconds);

  // --- observability -------------------------------------------------------
  // Optional per-kernel event sink (non-owning; see sim/sink.h). Every
  // charge is forwarded with its kernel name, the phase and the (tree,
  // level) context.
  void set_sink(StatsSink* sink) { sink_ = sink; }
  StatsSink* sink() const { return sink_; }
  void set_trace_tree(int tree) { tree_ = tree; }
  void set_trace_level(int level) { level_ = level; }

  // --- fault injection (sim/faults.h) --------------------------------------
  // Launch-attempt ordinal: bumped once per fault_gate draw (one per
  // launch or tile-transfer attempt) when a fault plan is armed; the
  // injector's decisions key on (seed, device id, ordinal), so they are
  // independent of the scheduler's --sim-threads value. Permanent loss (a
  // scripted "kill") makes every subsequent launch on this device throw
  // SimDeviceLost at entry.
  std::uint64_t next_launch_ordinal() {
    return launch_ordinal_.fetch_add(1, std::memory_order_relaxed);
  }
  void mark_lost() { lost_.store(true, std::memory_order_relaxed); }
  bool is_lost() const { return lost_.load(std::memory_order_relaxed); }

  // --- memory accounting ---------------------------------------------------
  // Callers report their device allocations (the booster's resident
  // arrays, the grower's node histograms, the block cache's tiles);
  // exceeding the spec's capacity throws sim::OutOfDeviceMemory from
  // note_alloc.
  void note_alloc(std::size_t bytes);
  void note_free(std::size_t bytes);
  std::size_t allocated_bytes() const { return allocated_; }
  std::size_t peak_allocated_bytes() const { return peak_allocated_; }
  bool fits(std::size_t additional_bytes) const {
    return allocated_ + additional_bytes <= spec_.memory_bytes;
  }

 private:
  mutable std::mutex mu_;
  DeviceSpec spec_;
  int id_;
  std::string phase_ = "unattributed";
  double modeled_seconds_ = 0.0;
  std::map<std::string, double> phase_seconds_;
  KernelStats total_stats_;
  std::size_t allocated_ = 0;
  std::size_t peak_allocated_ = 0;
  StatsSink* sink_ = nullptr;
  std::string kernel_;  // the emitted event's name, valid during the callback
  int tree_ = -1;
  int level_ = -1;
  std::atomic<std::uint64_t> launch_ordinal_{0};
  std::atomic<bool> lost_{false};
};

// Charges a fixed cost (a PCIe transfer, a launch term, a per-round
// constant) with optional counters; a zero `seconds` books counters only.
inline void charge_seconds(Device& dev, const char* name, double seconds,
                           const KernelStats& s = {}) {
  dev.charge_kernel(name, s, seconds);
}

// RAII phase label: charges made against `dev` while in scope land in
// `phase`; the previous phase comes back on exit, also when a charge throws.
class PhaseTag {
 public:
  PhaseTag(Device& dev, std::string phase) : dev_(dev), prev_(dev.phase()) {
    dev_.set_phase(std::move(phase));
  }
  PhaseTag(const PhaseTag&) = delete;
  PhaseTag& operator=(const PhaseTag&) = delete;
  ~PhaseTag() { dev_.set_phase(std::move(prev_)); }

 private:
  Device& dev_;
  std::string prev_;
};

// Thrown when a simulated allocation exceeds device memory; the bench
// harness catches it to reproduce the paper's "OOM at large depth" cells.
class OutOfDeviceMemory : public std::runtime_error {
 public:
  OutOfDeviceMemory(std::size_t requested, std::size_t allocated, std::size_t capacity);
  std::size_t requested;
  std::size_t allocated;
  std::size_t capacity;
};

// Thrown when an allocation would overrun a configured budget below the
// device's capacity (the out-of-core block cache's, data/paged_dataset.h).
// Distinct from OutOfDeviceMemory so callers can tell a policy bound
// ("--max-device-mb too small") apart from physical capacity.
class DeviceBudgetExceeded : public std::runtime_error {
 public:
  DeviceBudgetExceeded(std::string account, std::size_t requested,
                       std::size_t used, std::size_t budget);
  std::string account;
  std::size_t requested;
  std::size_t used;
  std::size_t budget;
};

}  // namespace gbmo::sim
