// Analytical kernel-time model.
//
// Converts the event counters a kernel collected during functional execution
// into modeled seconds on a concrete DeviceSpec, using a roofline-style
// formulation: the kernel takes max(compute, global memory, shared memory,
// atomic serialization) plus launch overhead, scaled by achieved occupancy.
//
// The model is deliberately first-order: its purpose is to reproduce the
// *shape* of the paper's results (which histogram strategy wins where, how
// contention and bin packing move the needle), not cycle accuracy.
#pragma once

#include "sim/counters.h"
#include "sim/device.h"

namespace gbmo::sim {

struct KernelTimeBreakdown {
  double launch = 0.0;
  double compute = 0.0;
  double gmem = 0.0;
  double smem = 0.0;
  double atomics = 0.0;
  double sort = 0.0;
  double total = 0.0;
};

class CostModel {
 public:
  explicit CostModel(const DeviceSpec& spec) : spec_(spec) {}

  // Full breakdown for a kernel's stats.
  KernelTimeBreakdown breakdown(const KernelStats& s) const;

  // Shorthand: total modeled seconds.
  double kernel_seconds(const KernelStats& s) const { return breakdown(s).total; }

  // Occupancy factor in (0,1]: fraction of peak throughput achievable with
  // `blocks` resident blocks (a device needs ~2 blocks per SM to saturate).
  double occupancy(std::uint64_t blocks) const;

 private:
  const DeviceSpec& spec_;
};

// Charges one named kernel to `dev`: its counters plus the cost model's
// modeled seconds, delivered to any attached sink as a single event.
inline double charge_kernel(Device& dev, const char* name, const KernelStats& s) {
  const double seconds = CostModel(dev.spec()).kernel_seconds(s);
  dev.charge_kernel(name, s, seconds);
  return seconds;
}

}  // namespace gbmo::sim
