#include "host_clock_sink.h"

#include "sim/scheduler.h"

namespace perfbench {

std::uint64_t bytes_moved(const gbmo::sim::KernelStats& s) {
  return s.gmem_coalesced_bytes + s.gmem_random_accesses * 32 +
         s.sort_pairs_bytes + s.scan_bytes;
}

void HostClockSink::restart() {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  last_[std::this_thread::get_id()] = now;
  threads_ = gbmo::sim::sim_threads();
}

void HostClockSink::on_event(const gbmo::sim::KernelEvent& e) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  LayerTotals& k = kernels_[*e.name];
  LayerTotals& p = phases_[*e.phase];
  const std::uint64_t bytes = bytes_moved(e.stats);
  k.bytes += bytes;
  p.bytes += bytes;
  // Counter-only charges (seconds == 0) can happen mid-launch; only
  // time-charging events close a host interval.
  if (e.seconds <= 0.0) return;
  const auto [it, fresh] = last_.try_emplace(std::this_thread::get_id(), now);
  const double host =
      fresh ? 0.0 : std::chrono::duration<double>(now - it->second).count();
  it->second = now;
  for (LayerTotals* t : {&k, &p}) {
    t->host_s += host;
    t->modeled_s += e.seconds;
    ++t->launches;
  }
  if (e.stats.blocks > 0) {
    ++sched_.launches;
    sched_.blocks += e.stats.blocks;
    if (e.stats.blocks < static_cast<std::uint64_t>(threads_)) {
      ++sched_.small_launches;
    }
    sched_.host_s += host;
  }
}

void HostClockSink::on_span_begin(const std::string& name, double /*ts*/) {
  if (name != "predict_batch") return;
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  last_[std::this_thread::get_id()] = now;
  batch_start_[std::this_thread::get_id()] = now;
}

void HostClockSink::on_span_end(double /*ts*/) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = batch_start_.find(std::this_thread::get_id());
  if (it == batch_start_.end()) return;  // a training span, not a batch
  ++batches_;
  batch_host_s_ += std::chrono::duration<double>(now - it->second).count();
  batch_start_.erase(it);
}

std::map<std::string, LayerTotals> HostClockSink::kernels() const {
  std::lock_guard<std::mutex> lock(mu_);
  return kernels_;
}

std::map<std::string, LayerTotals> HostClockSink::phases() const {
  std::lock_guard<std::mutex> lock(mu_);
  return phases_;
}

SchedulerTotals HostClockSink::scheduler() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sched_;
}

std::uint64_t HostClockSink::batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

double HostClockSink::batch_host_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batch_host_s_;
}

}  // namespace perfbench
