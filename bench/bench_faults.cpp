// Fault-injection overhead benchmark: the same training run at increasing
// transient fault rates (0%, 1%, 5% per launch by default).
//
// Two things are measured per rate: the modeled overhead — pure backoff
// charges under the "retry" phase, since a faulted attempt runs no block and
// costs nothing else — and the host wall-clock time of the run, whose
// retries are only redraws at launch entry. The zero-rate model is the
// baseline; every faulted run must reproduce it bitwise (the substrate's
// recovery guarantee), so the bench doubles as an end-to-end chaos
// regression at bench scale. Writes BENCH_faults.json.
//
// Args (for smoke runs): --rows N --features N --outputs N --trees N
//                        --depth N --rates "0,0.01,0.05"
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/booster.h"
#include "data/synthetic.h"
#include "obs/profiler.h"

namespace {

using gbmo::TextTable;
using gbmo::WallTimer;
using gbmo::bench::arg_or;
using gbmo::bench::serialize_model;
using gbmo::bench::JsonReport;
using gbmo::bench::progress;

std::vector<double> rates_arg(int argc, char** argv) {
  std::vector<double> rates = {0.0, 0.01, 0.05};
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--rates") == 0) {
      rates.clear();
      std::istringstream is(argv[i + 1]);
      std::string item;
      while (std::getline(is, item, ',')) rates.push_back(std::atof(item.c_str()));
    }
  }
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t rows = arg_or(argc, argv, "--rows", 4000);
  const std::size_t features = arg_or(argc, argv, "--features", 16);
  const int outputs = static_cast<int>(arg_or(argc, argv, "--outputs", 8));
  const int trees = static_cast<int>(arg_or(argc, argv, "--trees", 40));
  const int depth = static_cast<int>(arg_or(argc, argv, "--depth", 6));
  const auto rates = rates_arg(argc, argv);

  std::printf("== Fault injection: retry overhead vs transient rate ==\n");

  gbmo::data::MultiregressionSpec spec;
  spec.n_instances = rows;
  spec.n_features = features;
  spec.n_outputs = outputs;
  const auto train = gbmo::data::make_multiregression(spec);

  auto cfg = gbmo::bench::paper_config();
  cfg.n_trees = trees;
  cfg.max_depth = depth;
  cfg.max_bins = 64;

  JsonReport json("faults");
  json.set("rows", static_cast<double>(rows));
  json.set("features", static_cast<double>(features));
  json.set("outputs", static_cast<double>(outputs));
  json.set("trees", static_cast<double>(trees));
  json.set("depth", static_cast<double>(depth));

  std::string baseline_model;
  double baseline_modeled = 0.0;
  double baseline_host = 0.0;
  bool all_identical = true;

  TextTable table({"rate", "modeled (s)", "retry (s)", "overhead%", "faults",
                   "retries", "host (s)", "bitwise"});
  for (const double rate : rates) {
    std::ostringstream label;
    label << "transient rate " << rate;
    progress(label.str());

    auto run_cfg = cfg;
    if (rate > 0.0) {
      std::ostringstream plan;
      plan << "transient=" << rate << ";seed=41;retries=16";
      run_cfg.faults = plan.str();
    }
    gbmo::core::GbmoBooster booster(run_cfg);
    gbmo::obs::Profiler profiler(/*capture_trace=*/false);
    booster.set_sink(&profiler);
    WallTimer timer;
    const auto model = booster.fit(train);
    const double host = timer.seconds();
    const auto& report = booster.report();

    const auto it = report.phase_seconds.find("retry");
    const double retry_s = it == report.phase_seconds.end() ? 0.0 : it->second;
    const std::string serialized = serialize_model(model);
    if (rate == rates.front() || baseline_model.empty()) {
      baseline_model = serialized;
      baseline_modeled = report.modeled_seconds;
      baseline_host = host;
    }
    const bool identical = serialized == baseline_model;
    all_identical = all_identical && identical;
    const double overhead =
        baseline_modeled > 0.0
            ? 100.0 * (report.modeled_seconds - baseline_modeled) / baseline_modeled
            : 0.0;

    table.add_row({TextTable::num(rate, 3),
                   TextTable::num(report.modeled_seconds, 4),
                   TextTable::num(retry_s, 4), TextTable::num(overhead, 2),
                   std::to_string(profiler.total_faults_injected()),
                   std::to_string(profiler.total_fault_retries()),
                   TextTable::num(host, 3), identical ? "yes" : "NO"});
    json.add_record(
        {{"transient_rate", JsonReport::num(rate)},
         {"modeled_seconds", JsonReport::num(report.modeled_seconds)},
         {"retry_seconds", JsonReport::num(retry_s)},
         {"modeled_overhead_pct", JsonReport::num(overhead)},
         {"faults_injected",
          JsonReport::num(static_cast<double>(profiler.total_faults_injected()))},
         {"fault_retries",
          JsonReport::num(static_cast<double>(profiler.total_fault_retries()))},
         {"host_seconds", JsonReport::num(host)},
         {"host_overhead_pct",
          JsonReport::num(baseline_host > 0.0
                              ? 100.0 * (host - baseline_host) / baseline_host
                              : 0.0)},
         {"model_bitwise_identical", identical ? "true" : "false"}});
  }

  std::printf("%s", table.to_string().c_str());
  if (!all_identical) {
    std::printf("FAULT BENCH FAILED: faulted model diverged from clean model\n");
    return 1;
  }
  std::printf("all faulted models bitwise-identical to the clean model\n");
  return 0;
}
