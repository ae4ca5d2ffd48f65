// Test helpers for pinning what kernels charge: a StatsSink that sums every
// charge per kernel label, and a KernelStats record as one array of fields.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "sim/counters.h"
#include "sim/sink.h"

namespace gbmo::test {

struct KernelLog : sim::StatsSink {
  std::map<std::string, sim::KernelStats> stats;
  std::map<std::string, double> seconds;
  void on_event(const sim::KernelEvent& e) override {
    stats[*e.name] += e.stats;
    seconds[*e.name] += e.seconds;
  }
  void on_span_begin(const std::string&, double) override {}
  void on_span_end(double) override {}
};

// Every KernelStats field, in declaration order.
inline std::array<std::uint64_t, 16> fields(const sim::KernelStats& s) {
  return {s.gmem_coalesced_bytes, s.gmem_random_accesses,
          s.atomic_global_ops,    s.atomic_global_conflicts,
          s.atomic_shared_ops,    s.atomic_shared_conflicts,
          s.smem_bytes,           s.flops,
          s.blocks,               s.threads,
          s.barriers,             s.sort_pairs_bytes,
          s.scan_bytes,           s.check_violations,
          s.faults_injected,      s.fault_retries};
}

}  // namespace gbmo::test
