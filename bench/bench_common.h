// Shared bench harness: replica datasets (cached), the paper's default
// configuration, and the timing/quality protocol.
//
// Timing protocol (documented in EXPERIMENTS.md): per (system, dataset,
// device count) we train a few trees on the bench-scale replica, take the
// steady-state per-tree modeled time, and extrapolate to the paper's 100
// trees (tree cost is constant across boosting rounds). Two numbers are
// reported:
//   bench  — modeled seconds at the replica's bench scale (the primary
//            number; all systems share the scale, so ratios are comparable)
//   full~  — bench seconds x the dataset's volume scale factor: a linear
//            volume extrapolation to the paper's full shape (upper bound for
//            launch-overhead-bound cases).
#pragma once

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "baselines/system.h"
#include "common/table.h"
#include "core/config.h"
#include "data/paper_datasets.h"

namespace gbmo::bench {

// The paper's §4.1 default parameters.
inline core::TrainConfig paper_config() {
  core::TrainConfig cfg;
  cfg.n_trees = 100;
  cfg.max_depth = 7;
  cfg.learning_rate = 1.0f;
  cfg.min_instances_per_node = 20;
  cfg.max_bins = 256;
  return cfg;
}

// The value after `key` on the command line, else `fallback`. The fallback's
// type picks the parse: integers through strtoull, floating point through
// strtod.
template <typename T>
T arg_or(int argc, char** argv, const char* key, T fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], key) != 0) continue;
    if constexpr (std::is_floating_point_v<T>) {
      return static_cast<T>(std::strtod(argv[i + 1], nullptr));
    } else {
      return static_cast<T>(std::strtoull(argv[i + 1], nullptr, 10));
    }
  }
  return fallback;
}

// The model file's text; bitwise-identity gates compare two of these.
std::string serialize_model(const core::Model& model);

// Cached replica generation + 80/20 split per dataset name.
const data::TrainTestSplit& replica_split(const data::ReplicaSpec& spec);

struct RunOutput {
  std::string system;
  std::string dataset;
  double time_bench_100 = 0.0;  // modeled s, extrapolated to 100 trees
  double time_full_100 = 0.0;   // x volume scale factor
  double host_seconds = 0.0;    // wall-clock spent in fit() on this host
  double quality = 0.0;
  std::string metric;
  core::TrainReport report;
};

// Trains `timing_trees` trees and extrapolates to 100; quality is evaluated
// on the held-out split of the replica with whatever the run trained.
// Tables 2-4 run on the paper's RTX 4090; the §4.3 sensitivity figures pass
// sim::DeviceSpec::rtx3090() to match the paper's testbed for those plots.
RunOutput run_system(const std::string& system, const data::ReplicaSpec& spec,
                     core::TrainConfig cfg, int trees_to_train,
                     int extrapolate_to = 100,
                     sim::DeviceSpec device = sim::DeviceSpec::rtx4090());

// One-line progress marker (benches run for minutes; stderr keeps the user
// informed without polluting the stdout tables).
void progress(const std::string& msg);

// Machine-readable bench output: accumulates run records plus free-form
// config keys and writes BENCH_<name>.json on destruction (or an explicit
// write()). Destination directory: $GBMO_BENCH_JSON_DIR, else the current
// directory. Every record carries both modeled seconds and host wall-clock,
// so the perf trajectory of the simulator itself can be tracked across PRs.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name);
  ~JsonReport();

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  // Top-level config keys (written under "config").
  void set(const std::string& key, double value);
  void set(const std::string& key, const std::string& value);

  // Appends one run record built from a RunOutput.
  void add_run(const RunOutput& out);
  // Appends one free-form run record (pre-serialized JSON values: pass
  // numbers via num() / strings via str()).
  void add_record(const std::vector<std::pair<std::string, std::string>>& kv);

  static std::string num(double v);
  static std::string str(const std::string& s);  // quoted + escaped

  // Writes BENCH_<name>.json; returns the path. Idempotent (the destructor
  // skips the write once it has happened).
  std::string write();

 private:
  std::string name_;
  bool written_ = false;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::string> records_;  // serialized JSON objects
};

}  // namespace gbmo::bench
