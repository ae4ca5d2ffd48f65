// Host-throughput bench for the parallel block scheduler (not a paper
// figure): trains the same modeled workload at 1 and N scheduler threads and
// reports host wall-clock speedup next to the modeled seconds, which must be
// identical — the scheduler is a host-performance knob only.
//
// Expect about 1.0x wall-clock speedup on every row: the histogram builders
// commit in every block, and ordered launches run inline at any thread count
// (sim/launch.h), so only the commit-free kernels around them (gradients,
// score updates) fan out. The gate is that modeled seconds are
// equal across thread counts.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "sim/scheduler.h"

namespace {

struct MethodConfig {
  const char* label;
  gbmo::core::HistMethod method;
};

}  // namespace

int main() {
  using gbmo::TextTable;
  using gbmo::bench::paper_config;
  using gbmo::bench::progress;
  using gbmo::bench::run_system;

  const std::vector<MethodConfig> methods = {
      {"gmem", gbmo::core::HistMethod::kGlobal},
      {"smem", gbmo::core::HistMethod::kShared},
      {"sort-reduce", gbmo::core::HistMethod::kSortReduce},
      {"adaptive", gbmo::core::HistMethod::kAuto},
  };
  const int hw = gbmo::sim::default_sim_threads();
  std::vector<int> thread_counts = {1};
  if (hw > 1) thread_counts.push_back(hw);
  // Always measure an oversubscribed many-worker row too: on small hosts it
  // exercises the fan-out of commit-free launches, on big ones it's a second
  // data point.
  if (hw != 4) thread_counts.push_back(4);

  gbmo::bench::JsonReport json("sim_throughput");
  json.set("hardware_threads", static_cast<double>(hw));
  json.set("dataset", "MNIST");
  json.set("trees_to_train", 3.0);

  const auto& spec = gbmo::data::find_dataset("MNIST");
  // Warm the replica cache so dataset generation doesn't pollute timings.
  gbmo::bench::replica_split(spec);

  std::printf("== sim throughput — host wall-clock vs scheduler threads "
              "(MNIST replica, 3 trees) ==\n");
  std::vector<std::string> header = {"hist"};
  for (int t : thread_counts) header.push_back("host s @" + std::to_string(t));
  header.push_back("speedup");
  header.push_back("modeled s equal?");
  TextTable table(header);

  bool all_modeled_equal = true;
  for (const auto& m : methods) {
    std::vector<std::string> row = {m.label};
    std::vector<double> host_s;
    std::vector<double> modeled_s;
    for (int t : thread_counts) {
      progress(std::string(m.label) + " @ " + std::to_string(t) + " threads");
      gbmo::sim::set_sim_threads(t);
      auto cfg = paper_config();
      cfg.hist_method = m.method;
      // Best-of-2 to damp scheduler noise on loaded hosts.
      double best_host = 1e30;
      double modeled = 0.0;
      for (int rep = 0; rep < 2; ++rep) {
        const auto out = run_system("ours", spec, cfg, /*trees_to_train=*/3);
        best_host = std::min(best_host, out.host_seconds);
        modeled = out.time_bench_100;
      }
      host_s.push_back(best_host);
      modeled_s.push_back(modeled);
      row.push_back(TextTable::num(best_host, 3));
      json.add_record({{"method", gbmo::bench::JsonReport::str(m.label)},
                       {"sim_threads", gbmo::bench::JsonReport::num(t)},
                       {"host_s", gbmo::bench::JsonReport::num(best_host)},
                       {"modeled_bench_100_s",
                        gbmo::bench::JsonReport::num(modeled)}});
    }
    const double speedup = host_s.back() > 0.0 ? host_s.front() / host_s.back()
                                               : 0.0;
    bool modeled_equal = true;
    for (double s : modeled_s) modeled_equal &= (s == modeled_s.front());
    all_modeled_equal &= modeled_equal;
    row.push_back(TextTable::num(speedup, 2) + "x");
    row.push_back(modeled_equal ? "yes" : "NO");
    table.add_row(std::move(row));
  }
  gbmo::sim::set_sim_threads(0);  // restore the process default

  std::printf("%s", table.to_string().c_str());
  std::printf("modeled seconds identical across thread counts: %s\n",
              all_modeled_equal ? "yes" : "NO");
  std::printf("hardware concurrency: %d (speedup column compares 1 thread vs "
              "the last column's count)\n", hw);
  return all_modeled_equal ? 0 : 1;
}
