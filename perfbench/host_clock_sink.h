// Host-clock attribution for the benchmark's traced runs, measured from
// outside the program through the public sim::StatsSink hook.
//
// A sim::launch charges its kernel after the block loop has run, so the host
// interval that ends at a time-charging event is that launch's host cost
// (plus whatever host work the caller did since the previous charge). The
// sink reads the steady clock at every such event and books the interval,
// together with the event's modeled seconds and counters, under the event's
// kernel label and training phase. Nothing is written back into the device:
// modeled results are the same with or without the sink.
//
// Serving engines emit a "predict_batch" span around every batch; the sink
// restarts its clock there, so idle time between batches is never booked,
// and also keeps whole-batch host time. Intervals are kept per host thread:
// during a hot swap the old and the new version charge from their own
// batcher threads at the same time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "sim/sink.h"

namespace perfbench {

struct LayerTotals {
  double host_s = 0.0;
  double modeled_s = 0.0;
  std::uint64_t launches = 0;  // time-charging events
  std::uint64_t bytes = 0;     // computed from KernelStats, not measured
};

struct SchedulerTotals {
  std::uint64_t launches = 0;        // charges that carry a block count
  std::uint64_t blocks = 0;
  std::uint64_t small_launches = 0;  // fewer blocks than scheduler threads
  double host_s = 0.0;               // host time booked to those launches
};

class HostClockSink : public gbmo::sim::StatsSink {
 public:
  HostClockSink() { restart(); }
  HostClockSink(const HostClockSink&) = delete;
  HostClockSink& operator=(const HostClockSink&) = delete;

  // Starts a new host interval on the calling thread now; call right before
  // the traced work.
  void restart();

  void on_event(const gbmo::sim::KernelEvent& e) override;
  void on_span_begin(const std::string& name, double ts) override;
  void on_span_end(double ts) override;

  // Read these after the traced work has finished.
  std::map<std::string, LayerTotals> kernels() const;
  std::map<std::string, LayerTotals> phases() const;
  SchedulerTotals scheduler() const;
  std::uint64_t batches() const;
  double batch_host_s() const;

 private:
  using Clock = std::chrono::steady_clock;

  mutable std::mutex mu_;
  std::unordered_map<std::thread::id, Clock::time_point> last_;
  int threads_ = 1;  // scheduler threads at the last restart()
  std::map<std::string, LayerTotals> kernels_;
  std::map<std::string, LayerTotals> phases_;
  SchedulerTotals sched_;
  std::unordered_map<std::thread::id, Clock::time_point> batch_start_;
  std::uint64_t batches_ = 0;
  double batch_host_s_ = 0.0;
};

// Bytes a charge moved through device memory, by the same formula the obs
// profiler's "GB moved" column uses.
std::uint64_t bytes_moved(const gbmo::sim::KernelStats& s);

}  // namespace perfbench
