// Observability layer: turns the sim substrate's per-charge events into a
// per-kernel profile (the nvprof stand-in) and a Chrome trace_event timeline.
//
// The Profiler implements sim::StatsSink, so attaching it to a Device /
// DeviceGroup (or via TrainSystem::set_sink) routes every kernel, primitive,
// collective and transfer charge here, tagged with its name, phase and
// (tree, level) context. Because the sink sees exactly the charges that build
// Device::total_stats() and Device::modeled_seconds(), the per-kernel rows
// sum to the aggregate totals by construction — nothing is sampled or lost.
//
// Timestamps are *modeled* seconds, not wall-clock: kernel slices use the
// owning device's local modeled time, pipeline spans use the group-level
// maximum (monotone, so spans nest). See DESIGN.md "Observability".
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/counters.h"
#include "sim/device.h"
#include "sim/sink.h"

namespace gbmo::obs {

// Accumulated profile for one kernel name.
struct KernelProfile {
  std::string name;
  std::uint64_t events = 0;  // number of time-charging launches/charges
  double seconds = 0.0;      // summed modeled seconds (over all devices)
  sim::KernelStats stats;    // summed counters
  // Modeled seconds split by the pipeline phase active at charge time;
  // profile rows report the dominant phase.
  std::map<std::string, double> phase_seconds;
};

// One Chrome trace_event record. Kernel charges become complete ('X') slices
// on the owning device's track; pipeline spans become 'B'/'E' pairs on the
// dedicated pipeline track (tid 0).
struct TraceEvent {
  std::string name;
  char ph = 'X';      // 'B' | 'E' | 'X'
  double ts_us = 0;   // start timestamp, microseconds of modeled time
  double dur_us = 0;  // duration ('X' only)
  int tid = 0;        // 0 = pipeline spans, device id + 1 = kernel slices
  int tree = -1;
  int level = -1;
  std::string phase;  // 'X' only
};

class Profiler : public sim::StatsSink {
 public:
  // capture_trace=false keeps only the per-kernel registry (cheaper for
  // long runs that just want the profile table).
  explicit Profiler(bool capture_trace = true) : capture_trace_(capture_trace) {}

  // sim::StatsSink. The sink callbacks are serialized by an internal mutex,
  // so one Profiler may be attached to a whole DeviceGroup even when kernels
  // charge from parallel scheduler workers. The total_* accessors and the
  // report builders below take the same mutex, so they are safe to call
  // while charges are still arriving (the serving registry reads per-model
  // totals under live traffic); kernels() and trace_events() return
  // references and must only be read between launches on the launching
  // thread.
  void on_event(const sim::KernelEvent& e) override;
  void on_span_begin(const std::string& name, double ts) override;
  void on_span_end(double ts) override;

  // --- per-kernel registry -------------------------------------------------
  const std::map<std::string, KernelProfile>& kernels() const { return kernels_; }
  // Counter totals over every kernel (equals Device::total_stats() summed
  // over attached devices).
  sim::KernelStats total_stats() const;
  // Time-charging launches/charges summed over every kernel.
  std::uint64_t total_events() const;
  // Race/memory-checker findings summed over every kernel
  // (KernelStats::check_violations; see sim/checker.h) — 0 unless
  // --sim-check was armed and a kernel violated. Per-kernel counts are in
  // kernels().at(name).stats.check_violations.
  std::uint64_t total_check_violations() const;
  // Fault-injection totals (KernelStats::faults_injected / fault_retries;
  // see sim/faults.h) — 0 unless a fault plan was armed. Injections count
  // retried transient faults and collective timeouts; retries count the
  // transient redraws alone, so injections minus retries counts the
  // timeout charges.
  std::uint64_t total_faults_injected() const;
  std::uint64_t total_fault_retries() const;
  // Modeled seconds summed over every kernel and device.
  double total_seconds() const;
  // Modeled seconds charged on one device / the busiest device. With one
  // device, max_device_seconds() equals TrainReport::modeled_seconds.
  double device_seconds(int device) const;
  double max_device_seconds() const;

  // --- trace ---------------------------------------------------------------
  const std::vector<TraceEvent>& trace_events() const { return trace_; }
  int span_depth() const { return static_cast<int>(span_stack_.size()); }
  // Serializes {"traceEvents": [...]} for chrome://tracing / Perfetto.
  std::string chrome_trace_json() const;
  void write_chrome_trace(const std::string& path) const;

  // --- reports -------------------------------------------------------------
  // Per-kernel table sorted by modeled time: name, dominant phase, launches,
  // modeled ms, share of total, GB moved, atomic conflict rate, and (when a
  // spec is given) average blocks per launch with the cost model's occupancy
  // factor at that geometry.
  std::string profile_table(const sim::DeviceSpec* spec = nullptr) const;

  void clear();

 private:
  double total_seconds_unlocked() const;

  mutable std::mutex mu_;
  bool capture_trace_;
  std::map<std::string, KernelProfile> kernels_;
  std::map<int, double> device_seconds_;
  std::vector<TraceEvent> trace_;
  std::vector<std::string> span_stack_;
};

}  // namespace gbmo::obs
