#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/timer.h"
#include "core/model_io.h"
#include "obs/profiler.h"
#include "sim/scheduler.h"

namespace gbmo::bench {

namespace {

// When GBMO_TRACE_DIR is set, every bench run drops a Chrome trace JSON
// (<dir>/<system>-<dataset>.trace.json) so a slow table entry can be
// inspected kernel-by-kernel without modifying the bench source.
const char* trace_dir() { return std::getenv("GBMO_TRACE_DIR"); }

}  // namespace

std::string serialize_model(const core::Model& model) {
  std::ostringstream os;
  core::write_model(os, model);
  return os.str();
}

const data::TrainTestSplit& replica_split(const data::ReplicaSpec& spec) {
  static std::map<std::string, std::unique_ptr<data::TrainTestSplit>> cache;
  auto it = cache.find(spec.name);
  if (it == cache.end()) {
    auto split = std::make_unique<data::TrainTestSplit>(
        data::split_dataset(data::make_replica(spec), 0.2));
    it = cache.emplace(spec.name, std::move(split)).first;
  }
  return *it->second;
}

RunOutput run_system(const std::string& system, const data::ReplicaSpec& spec,
                     core::TrainConfig cfg, int trees_to_train,
                     int extrapolate_to, sim::DeviceSpec device) {
  const auto& split = replica_split(spec);
  cfg.n_trees = trees_to_train;
  // Scale-consistent quantization: the paper's 256 bins against 50k-900k
  // instances keeps instances-per-bin high; against 1-5k-row replicas it
  // would leave one instance per bin and inflate per-bin (split) costs
  // relative to per-instance (histogram) costs. 64 bins restores the
  // full-scale cost balance; every system shares the setting.
  cfg.max_bins = std::min(cfg.max_bins, 64);

  auto sys = baselines::make_system(system, cfg, std::move(device));
  obs::Profiler profiler;
  if (trace_dir() != nullptr) sys->set_sink(&profiler);
  WallTimer fit_timer;
  sys->fit(split.train);
  const double host_seconds = fit_timer.seconds();
  if (const char* dir = trace_dir()) {
    const auto path =
        std::string(dir) + "/" + system + "-" + spec.name + ".trace.json";
    profiler.write_chrome_trace(path);
    progress("trace written to " + path);
  }

  RunOutput out;
  out.system = system;
  out.dataset = spec.name;
  out.host_seconds = host_seconds;
  out.report = sys->report();
  out.time_bench_100 = out.report.extrapolate_seconds(extrapolate_to);
  out.time_full_100 = out.time_bench_100 * spec.scale_factor();
  const auto eval = sys->evaluate(split.test);
  out.quality = eval.value;
  out.metric = eval.metric;
  return out;
}

void progress(const std::string& msg) {
  std::fprintf(stderr, "[bench] %s\n", msg.c_str());
  std::fflush(stderr);
}

JsonReport::JsonReport(std::string bench_name) : name_(std::move(bench_name)) {
  set("sim_threads", static_cast<double>(sim::sim_threads()));
}

JsonReport::~JsonReport() {
  try {
    write();
  } catch (...) {
    // Destructor must not throw; a failed JSON write never fails the bench.
  }
}

std::string JsonReport::num(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

std::string JsonReport::str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';  // control chars never appear in our names; keep it simple
      continue;
    }
    out += c;
  }
  out += '"';
  return out;
}

void JsonReport::set(const std::string& key, double value) {
  config_.emplace_back(key, num(value));
}

void JsonReport::set(const std::string& key, const std::string& value) {
  config_.emplace_back(key, str(value));
}

void JsonReport::add_run(const RunOutput& out) {
  add_record({{"system", str(out.system)},
              {"dataset", str(out.dataset)},
              {"modeled_bench_100_s", num(out.time_bench_100)},
              {"modeled_full_100_s", num(out.time_full_100)},
              {"modeled_s", num(out.report.modeled_seconds)},
              {"host_s", num(out.host_seconds)},
              {"quality", num(out.quality)},
              {"metric", str(out.metric)}});
}

void JsonReport::add_record(
    const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string rec = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) rec += ",";
    rec += str(kv[i].first) + ":" + kv[i].second;
  }
  rec += "}";
  records_.push_back(std::move(rec));
}

std::string JsonReport::write() {
  const char* dir = std::getenv("GBMO_BENCH_JSON_DIR");
  std::string path = (dir != nullptr && *dir != '\0')
                         ? std::string(dir) + "/BENCH_" + name_ + ".json"
                         : "BENCH_" + name_ + ".json";
  if (written_) return path;
  std::ofstream os(path);
  if (!os.good()) {
    progress("cannot write " + path + " (skipping JSON report)");
    return path;
  }
  os << "{\n  \"bench\": " << str(name_) << ",\n  \"config\": {";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    if (i > 0) os << ",";
    os << "\n    " << str(config_[i].first) << ": " << config_[i].second;
  }
  os << "\n  },\n  \"runs\": [";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (i > 0) os << ",";
    os << "\n    " << records_[i];
  }
  os << "\n  ]\n}\n";
  written_ = true;
  progress("json report written to " + path);
  return path;
}

}  // namespace gbmo::bench
