// Seeded, deterministic fault injection for the cusim substrate.
//
// Production GBDT training at multi-GPU scale must survive transient kernel
// failures, permanent device loss and collective timeouts; the simulator is
// the one place those hazards can be reproduced *deterministically*. When a
// FaultPlan is armed (--sim-faults / GBMO_SIM_FAULTS / TrainConfig::faults),
// every sim::launch and every out-of-core tile transfer passes fault_gate()
// before it does anything. The gate draws a fault decision from a
// counter-based hash of (plan seed, device id, per-device launch ordinal) —
// independent of the host scheduler's --sim-threads value and of
// wall-clock, so a given plan fires the same faults at the same launches on
// every run:
//
//  - Transient kernel failure: the gate charges one modeled backoff under
//    the "retry" phase and draws again, up to the plan's retry budget; a
//    faulted attempt runs no block and charges nothing else, so the launch
//    that finally runs is bit-identical to a clean one. Once the budget is
//    spent the gate throws SimFaultError.
//  - Permanent device loss: a scripted "kill=DEV@LAUNCH" entry marks the
//    device lost; this launch and every later launch on it throws
//    SimDeviceLost at entry (no partial side effects). Recovery: the booster
//    fails over to the surviving devices and redoes the interrupted
//    boosting round.
//  - Collective timeout: DeviceGroup collectives charge a modeled
//    timeout-and-retransmit penalty to the "retry" phase before proceeding;
//    the exchanged values are unaffected, so results stay bit-identical.
//
// Spec grammar (keys separated by ';' or ','):
//
//   transient=P       per-launch transient-failure probability in [0,1]
//   timeout=P         per-collective timeout probability in [0,1]
//   seed=N            decision seed (default 0x5eed)
//   kernel=SUBSTR     only fault kernels whose name contains SUBSTR
//   device=D          only fault launches on device id D
//   fail=D@K          scripted transient failure at device D's K-th launch
//   kill=D@K          scripted permanent loss of device D at its K-th launch
//   kill-node=D@K     scripted loss of device D's WHOLE NODE at its K-th
//                     launch (the booster maps the device to its node via the
//                     group topology and marks every sibling lost)
//   retries=N         redraws a launch may take after its first failure
//   backoff=S         modeled base backoff seconds charged per retry
//   timeout-cost=S    modeled penalty seconds per collective timeout
//
// "", "0" and "off" parse to a disabled plan.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "sim/device.h"

namespace gbmo::sim {

enum class FaultKind : std::uint8_t { kNone, kTransient, kDeviceLoss, kNodeLoss };

// Explicit "fail launch #K on device D" script entry.
struct ScriptedFault {
  int device = -1;
  std::uint64_t launch = 0;  // per-device launch ordinal (0-based)
  FaultKind kind = FaultKind::kTransient;
};

struct FaultPlan {
  double transient_rate = 0.0;  // per-launch SimFaultError probability
  double timeout_rate = 0.0;    // per-collective timeout probability
  std::uint64_t seed = 0x5eed;
  std::string kernel_filter;    // substring of the kernel name; empty = all
  int device_filter = -1;       // probabilistic faults on this device only
  std::vector<ScriptedFault> script;
  int max_retries = 3;              // redraws after a launch's first failure
  double backoff_seconds = 25e-6;   // modeled base backoff per retry
  double timeout_seconds = 250e-6;  // modeled penalty per collective timeout

  bool enabled() const {
    return transient_rate > 0.0 || timeout_rate > 0.0 || !script.empty();
  }

  // Parses the spec grammar above; throws gbmo::Error on an unknown key or
  // on a value that does not parse whole. Empty / "0" / "off" return a
  // disabled plan.
  static FaultPlan parse(const std::string& spec);
};

// --- arming ------------------------------------------------------------------
// Mirrors the checker's arming model (sim/checker.h): a process-wide override
// set programmatically, else the cached GBMO_SIM_FAULTS env default.
std::shared_ptr<const FaultPlan> sim_fault_plan();  // never null
void set_sim_faults(FaultPlan plan);                // process-wide override
void set_sim_faults(const std::string& spec);       // parse + arm
void reset_sim_faults();                            // back to the env default
bool sim_faults_enabled();  // one relaxed atomic load on the hot path

// --- errors ------------------------------------------------------------------
// Transient kernel failure whose retry budget is spent. Thrown from the
// launch's fault gate before any block runs.
class SimFaultError : public Error {
 public:
  using Error::Error;
};

// Permanent device loss: NOT retryable at the launch level. The training
// layer recovers by failing over to surviving devices (or aborts). When
// node_wide() is set the failure took the device's whole node down and the
// booster must kill every sibling device before failing over.
class SimDeviceLost : public Error {
 public:
  explicit SimDeviceLost(int device, bool node_wide = false);
  int device() const { return device_; }
  bool node_wide() const { return node_wide_; }

 private:
  int device_;
  bool node_wide_;
};

// --- the fault gate ----------------------------------------------------------
// Called by sim::launch at entry and by the out-of-core block cache for each
// tile transfer; a no-op unless a plan is armed. Draws the decision for the
// launch of kernel `name` starting now on `dev` (one launch ordinal per
// draw) and:
//  - transient: charges one bounded-exponential backoff plus the
//    fault/retry counters to `dev` under kernel `name` and the "retry"
//    phase, and draws again; once the plan's retry budget is spent it throws
//    SimFaultError instead;
//  - kill= / kill-node=: marks the device lost and throws SimDeviceLost
//    (node-wide for kill-node=).
// Never inspects scheduler state, so the decision sequence is identical for
// every --sim-threads value.
void fault_gate(Device& dev, const char* name, int grid_dim);

// Deterministic per-collective timeout draw (DeviceGroup bumps and passes its
// own collective ordinal).
bool collective_timeout_fires(const FaultPlan& plan, std::uint64_t ordinal);

}  // namespace gbmo::sim
