// Observability hook for the simulated substrate.
//
// Every counter / modeled-time charge on a Device can be routed into an
// optional StatsSink, tagged with the kernel name it was charged under and
// the pipeline phase and (tree, level) context active at charge time. The sink is how the obs
// layer builds its per-kernel registry and Chrome trace without the sim
// layer knowing anything about report formats: sim emits events, obs
// aggregates them (see src/obs/profiler.h).
//
// No sink attached (the default) means zero overhead beyond one branch.
#pragma once

#include <string>

#include "sim/counters.h"

namespace gbmo::sim {

// One charge against a device. `name`/`phase` point at strings the device
// owns (valid only for the duration of the callback — copy if kept).
struct KernelEvent {
  const std::string* name = nullptr;   // kernel name the charge was made under
  const std::string* phase = nullptr;  // training phase at charge time
  int device = 0;                      // device id within its group
  int tree = -1;                       // boosting round (-1 outside the tree loop)
  int level = -1;                      // tree level (-1 outside the level loop)
  KernelStats stats;                   // counters charged (zero for time-only charges)
  double seconds = 0.0;                // modeled seconds charged (0 for counter-only)
  double t_end = 0.0;                  // device-local modeled seconds after the charge
};

class StatsSink {
 public:
  virtual ~StatsSink() = default;

  // Called for every Device::charge_kernel on a device with this sink
  // attached.
  virtual void on_event(const KernelEvent& e) = 0;

  // Hierarchical pipeline spans (setup -> tree -> level -> phase), emitted by
  // the training loop via sim::TraceSpan. `ts` is the group-level modeled
  // timestamp in seconds (max over the group's devices, monotonic).
  virtual void on_span_begin(const std::string& name, double ts) = 0;
  virtual void on_span_end(double ts) = 0;
};

}  // namespace gbmo::sim
