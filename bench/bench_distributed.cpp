// Distributed-training crossover bench (DESIGN.md §13): the same training
// run on a 2x2 topology (2 nodes x 2 GPUs) under the three distribution
// strategies — feature-parallel, data-parallel, voting-parallel — across a
// ladder of shrinking inter-node bandwidths. The table and
// BENCH_distributed.json record modeled seconds plus the payload bytes each
// strategy moved over the intra-node and inter-node links, quantifying where
// the feature/data/voting crossover lands as the network gets slower.
//
// Gates, enforced with a non-zero exit code:
//   1. Equivalence — every distributed model (all three modes, every
//      bandwidth rung) is bitwise-identical to the single-device model.
//   2. Traffic — voting-parallel moves strictly fewer inter-node bytes than
//      data-parallel at equal (identical) model quality.
//
// Args (for smoke runs): --rows N --features N --outputs N --trees N
//                        --depth N --bins N --voting-k K
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/booster.h"
#include "data/synthetic.h"

namespace {

using gbmo::TextTable;
using gbmo::WallTimer;
using gbmo::bench::arg_or;
using gbmo::bench::serialize_model;
using gbmo::bench::JsonReport;
using gbmo::bench::progress;

}  // namespace

int main(int argc, char** argv) {
  const std::size_t rows = arg_or(argc, argv, "--rows", 2000);
  const std::size_t features = arg_or(argc, argv, "--features", 64);
  const int outputs = static_cast<int>(arg_or(argc, argv, "--outputs", 8));
  const int trees = static_cast<int>(arg_or(argc, argv, "--trees", 10));
  const int depth = static_cast<int>(arg_or(argc, argv, "--depth", 5));
  const int bins = static_cast<int>(arg_or(argc, argv, "--bins", 64));
  const int voting_k = static_cast<int>(arg_or(argc, argv, "--voting-k", 4));

  std::printf("== Distributed: mode x inter-node bandwidth crossover ==\n");

  gbmo::data::MultiregressionSpec spec;
  spec.n_instances = rows;
  spec.n_features = features;
  spec.n_outputs = outputs;
  const auto train = gbmo::data::make_multiregression(spec);

  auto cfg = gbmo::bench::paper_config();
  cfg.n_trees = trees;
  cfg.max_depth = depth;
  cfg.max_bins = bins;

  // Single-device reference: the model every distributed run must reproduce
  // bitwise (the canonical histogram is built in 1-device accumulation order
  // no matter how rows or columns are sharded).
  progress("single-device reference");
  gbmo::core::GbmoBooster ref_booster(cfg);
  const auto ref_model = ref_booster.fit(train);
  const std::string ref_serialized = serialize_model(ref_model);
  const double ref_modeled = ref_booster.report().modeled_seconds;

  struct Mode {
    const char* label;
    gbmo::core::MultiGpuMode mode;
  };
  const Mode modes[] = {
      {"feature", gbmo::core::MultiGpuMode::kFeatureParallel},
      {"data", gbmo::core::MultiGpuMode::kDataParallel},
      {"voting", gbmo::core::MultiGpuMode::kVotingParallel},
  };
  const double bandwidths_gbps[] = {100.0, 25.0, 10.0, 1.0};

  JsonReport json("distributed");
  json.set("rows", static_cast<double>(rows));
  json.set("features", static_cast<double>(features));
  json.set("outputs", static_cast<double>(outputs));
  json.set("trees", static_cast<double>(trees));
  json.set("depth", static_cast<double>(depth));
  json.set("bins", static_cast<double>(bins));
  json.set("voting_k", static_cast<double>(voting_k));
  json.set("nodes", 2.0);
  json.set("gpus_per_node", 2.0);
  json.set("reference_modeled_seconds", ref_modeled);

  bool all_identical = true;
  bool voting_beats_data = true;
  TextTable table({"inter Gb/s", "mode", "modeled (s)", "intra MB", "inter MB",
                   "vote miss", "bitwise"});
  for (const double gbps : bandwidths_gbps) {
    std::uint64_t data_inter = 0;
    std::uint64_t voting_inter = 0;
    for (const Mode& m : modes) {
      progress(std::string(m.label) + " @ " + std::to_string(gbps) + " Gb/s");
      auto run_cfg = cfg;
      run_cfg.n_devices = 4;
      run_cfg.n_nodes = 2;
      run_cfg.multi_gpu = m.mode;
      run_cfg.voting_k = voting_k;
      run_cfg.inter_gbps = gbps;
      gbmo::core::GbmoBooster booster(run_cfg);
      WallTimer timer;
      const auto model = booster.fit(train);
      const double host = timer.seconds();
      const auto& report = booster.report();

      const bool identical = serialize_model(model) == ref_serialized;
      all_identical = all_identical && identical;
      if (m.mode == gbmo::core::MultiGpuMode::kDataParallel) {
        data_inter = report.comm_inter_bytes;
      }
      if (m.mode == gbmo::core::MultiGpuMode::kVotingParallel) {
        voting_inter = report.comm_inter_bytes;
      }

      const double mb = 1024.0 * 1024.0;
      std::string miss = "-";
      if (report.vote_rounds > 0) {
        miss = std::to_string(report.vote_misses) + "/" +
               std::to_string(report.vote_rounds);
      }
      table.add_row({TextTable::num(gbps, 0), m.label,
                     TextTable::num(report.modeled_seconds, 4),
                     TextTable::num(
                         static_cast<double>(report.comm_intra_bytes) / mb, 3),
                     TextTable::num(
                         static_cast<double>(report.comm_inter_bytes) / mb, 3),
                     miss, identical ? "yes" : "NO"});
      json.add_record(
          {{"inter_gbps", JsonReport::num(gbps)},
           {"mode", JsonReport::str(m.label)},
           {"modeled_seconds", JsonReport::num(report.modeled_seconds)},
           {"comm_intra_bytes",
            JsonReport::num(static_cast<double>(report.comm_intra_bytes))},
           {"comm_inter_bytes",
            JsonReport::num(static_cast<double>(report.comm_inter_bytes))},
           {"vote_rounds",
            JsonReport::num(static_cast<double>(report.vote_rounds))},
           {"vote_misses",
            JsonReport::num(static_cast<double>(report.vote_misses))},
           {"host_seconds", JsonReport::num(host)},
           {"model_bitwise_identical", identical ? "true" : "false"}});
    }
    if (voting_inter >= data_inter) voting_beats_data = false;
  }

  std::printf("%s", table.to_string().c_str());
  std::printf("single-device reference: %.4f modeled s\n", ref_modeled);
  if (!all_identical) {
    std::printf(
        "DISTRIBUTED BENCH FAILED: a distributed model diverged from the "
        "single-device reference\n");
    return 1;
  }
  if (!voting_beats_data) {
    std::printf(
        "DISTRIBUTED BENCH FAILED: voting-parallel did not move strictly "
        "fewer inter-node bytes than data-parallel\n");
    return 1;
  }
  std::printf(
      "all modes bitwise-identical to the single-device model; "
      "voting-parallel moved strictly fewer inter-node bytes than "
      "data-parallel\n");
  return 0;
}
