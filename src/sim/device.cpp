#include "sim/device.h"

#include <algorithm>
#include <sstream>

namespace gbmo::sim {

DeviceSpec DeviceSpec::rtx4090() {
  DeviceSpec s;
  s.name = "RTX4090";
  s.sm_count = 128;
  s.shared_mem_per_block = 48 * 1024;
  s.memory_bytes = 24ull << 30;
  s.mem_bandwidth = 1.008e12;
  s.smem_bandwidth = 26e12;
  s.flops = 41e12;  // sustained, not peak boost
  s.atomic_throughput = 28e9;
  s.atomic_serialization_s = 3.5e-9;
  s.kernel_launch_s = 3.5e-6;
  s.pcie_bandwidth = 24e9;
  s.random_access_throughput = 6e9;
  s.sort_throughput = 2e9;
  return s;
}

DeviceSpec DeviceSpec::rtx3090() {
  DeviceSpec s;
  s.name = "RTX3090";
  s.sm_count = 82;
  s.shared_mem_per_block = 48 * 1024;
  s.memory_bytes = 24ull << 30;
  s.mem_bandwidth = 0.936e12;
  s.smem_bandwidth = 16e12;
  s.flops = 18e12;
  s.atomic_throughput = 26e9;
  s.atomic_serialization_s = 5e-9;
  s.kernel_launch_s = 4e-6;
  s.pcie_bandwidth = 20e9;
  s.random_access_throughput = 4.5e9;
  s.sort_throughput = 1.5e9;
  return s;
}

DeviceSpec DeviceSpec::cpu_server() {
  DeviceSpec s;
  s.name = "CPU-server";
  s.sm_count = 1;            // cost model treats the CPU as always "occupied"
  s.shared_mem_per_block = 32 * 1024 * 1024;  // L2/L3 stand-in; unused
  s.memory_bytes = 64ull << 30;  // per-process budget; mo-fu OOMs beyond this
  // Effective figures for a lightly-threaded tree learner with scattered
  // accesses (the GBDT-MO reference implementation), not peak hardware.
  s.mem_bandwidth = 2.5e9;
  s.smem_bandwidth = 60e9;
  s.flops = 6e9;
  s.atomic_throughput = 3e9;   // plain scalar RMW adds (no atomics single-threaded)
  s.atomic_serialization_s = 0.0;
  s.kernel_launch_s = 0.0;
  s.pcie_bandwidth = 18e9;
  s.random_access_throughput = 2.5e7;   // cache-missing pointer chases
  s.sort_throughput = 3e7;
  return s;
}

void Device::set_phase(std::string phase) {
  std::lock_guard<std::mutex> lock(mu_);
  phase_ = std::move(phase);
}

void Device::charge_kernel(const char* name, const KernelStats& s,
                          double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  total_stats_ += s;
  modeled_seconds_ += seconds;
  phase_seconds_[phase_] += seconds;
  if (sink_ == nullptr) return;
  kernel_ = name;
  KernelEvent e;
  e.name = &kernel_;
  e.phase = &phase_;
  e.device = id_;
  e.tree = tree_;
  e.level = level_;
  e.stats = s;
  e.seconds = seconds;
  e.t_end = modeled_seconds_;
  sink_->on_event(e);
}

void Device::note_alloc(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!fits(bytes)) {
    throw OutOfDeviceMemory(bytes, allocated_, spec_.memory_bytes);
  }
  allocated_ += bytes;
  peak_allocated_ = std::max(peak_allocated_, allocated_);
}

void Device::note_free(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  allocated_ = bytes > allocated_ ? 0 : allocated_ - bytes;
}

namespace {
std::string oom_message(std::size_t requested, std::size_t allocated,
                        std::size_t capacity) {
  std::ostringstream os;
  os << "simulated device out of memory: requested " << requested
     << " B with " << allocated << " B already allocated (capacity "
     << capacity << " B)";
  return os.str();
}
}  // namespace

OutOfDeviceMemory::OutOfDeviceMemory(std::size_t req, std::size_t alloc,
                                     std::size_t cap)
    : std::runtime_error(oom_message(req, alloc, cap)),
      requested(req),
      allocated(alloc),
      capacity(cap) {}

namespace {
std::string budget_message(const std::string& account, std::size_t requested,
                           std::size_t used, std::size_t budget) {
  std::ostringstream os;
  os << "device memory budget exceeded for account '" << account
     << "': requested " << requested << " B with " << used
     << " B already charged (budget " << budget << " B)";
  return os.str();
}
}  // namespace

DeviceBudgetExceeded::DeviceBudgetExceeded(std::string acct, std::size_t req,
                                           std::size_t in_use, std::size_t cap)
    : std::runtime_error(budget_message(acct, req, in_use, cap)),
      account(std::move(acct)),
      requested(req),
      used(in_use),
      budget(cap) {}

}  // namespace gbmo::sim
