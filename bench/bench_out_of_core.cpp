// Out-of-core sweep (DESIGN.md §12): the same training run across a ladder
// of descending device-memory budgets for the bin-block cache, from
// unbounded down to the floor (one feature's working set).
//
// Two gates, enforced with a non-zero exit code:
//   1. Equivalence — every out-of-core model, including the half-footprint
//      budget the ISSUE calls out, is bitwise-identical to the in-core model.
//   2. Monotonicity — modeled seconds (and paging traffic) never decrease as
//      the budget shrinks (uniform tiles + LRU's stack property).
//
// Per rung the table and BENCH_ooc.json record the cache hit/miss/eviction
// counts, bytes paged over the modeled PCIe link, and the "page" phase
// seconds, so transfer volume and time are first-class bench outputs.
//
// Args (for smoke runs): --rows N --features N --outputs N --trees N
//                        --depth N --bins N --chunk-rows N
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/booster.h"
#include "data/paged_dataset.h"
#include "data/quantize.h"
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
  const std::size_t rows = arg_or(argc, argv, "--rows", 4000);
  const std::size_t features = arg_or(argc, argv, "--features", 16);
  const int outputs = static_cast<int>(arg_or(argc, argv, "--outputs", 8));
  const int trees = static_cast<int>(arg_or(argc, argv, "--trees", 20));
  const int depth = static_cast<int>(arg_or(argc, argv, "--depth", 6));
  const int bins = static_cast<int>(arg_or(argc, argv, "--bins", 64));
  const int chunk_rows =
      static_cast<int>(arg_or(argc, argv, "--chunk-rows", rows / 16));

  std::printf("== Out-of-core: device budget ladder vs in-core ==\n");

  gbmo::data::MultiregressionSpec spec;
  spec.n_instances = rows;
  spec.n_features = features;
  spec.n_outputs = outputs;
  const auto train = gbmo::data::make_multiregression(spec);

  auto cfg = gbmo::bench::paper_config();
  cfg.n_trees = trees;
  cfg.max_depth = depth;
  cfg.max_bins = bins;

  // In-core baseline: the reference model every rung must reproduce bitwise.
  progress("in-core baseline");
  gbmo::core::GbmoBooster baseline_booster(cfg);
  WallTimer baseline_timer;
  const auto baseline_model = baseline_booster.fit(train);
  const double baseline_host = baseline_timer.seconds();
  const std::string baseline_serialized = serialize_model(baseline_model);
  const double baseline_modeled = baseline_booster.report().modeled_seconds;

  // Derive the budget ladder from the actual tile footprint training sees
  // (same cuts, same packing as the booster's setup stage).
  const auto cuts = gbmo::data::BinCuts::build(train.x, cfg.max_bins);
  gbmo::data::BinnedMatrix binned(train.x, cuts);
  if (cfg.warp_opt) binned.pack();
  const gbmo::data::PagedDataset paged(binned,
                                       static_cast<std::size_t>(chunk_rows));
  const std::size_t footprint = paged.total_bytes();
  const std::size_t feature_ws = paged.max_block_bytes() * paged.n_chunks();

  struct Rung {
    const char* label;
    std::size_t budget;  // 0 = unbounded cache
  };
  const Rung ladder[] = {
      {"unbounded", 0},
      {"full footprint", footprint},
      {"1/2 footprint", footprint / 2},
      {"1/4 footprint", footprint / 4},
      {"feature floor", feature_ws},
  };

  JsonReport json("ooc");
  json.set("rows", static_cast<double>(rows));
  json.set("features", static_cast<double>(features));
  json.set("outputs", static_cast<double>(outputs));
  json.set("trees", static_cast<double>(trees));
  json.set("depth", static_cast<double>(depth));
  json.set("bins", static_cast<double>(bins));
  json.set("chunk_rows", static_cast<double>(chunk_rows));
  json.set("footprint_bytes", static_cast<double>(footprint));
  json.set("baseline_modeled_seconds", baseline_modeled);
  json.set("baseline_host_seconds", baseline_host);

  bool all_identical = true;
  bool monotone = true;
  double prev_modeled = -1.0;
  TextTable table({"budget", "bytes", "modeled (s)", "page (s)", "hits",
                   "misses", "evict", "paged MB", "bitwise"});
  for (const Rung& rung : ladder) {
    progress(std::string("budget ") + rung.label);
    auto run_cfg = cfg;
    run_cfg.stream_chunk_rows = chunk_rows;
    run_cfg.device_budget_bytes = rung.budget;
    gbmo::core::GbmoBooster booster(run_cfg);
    WallTimer timer;
    const auto model = booster.fit(train);
    const double host = timer.seconds();
    const auto& report = booster.report();

    const auto it = report.phase_seconds.find("page");
    const double page_s = it == report.phase_seconds.end() ? 0.0 : it->second;
    const bool identical = serialize_model(model) == baseline_serialized;
    all_identical = all_identical && identical;
    // Descending budgets: modeled time must never decrease rung to rung.
    // The unbounded rung skips in-core's bulk h2d transfer, so it is only
    // required to be >= its own predecessor, not the in-core baseline.
    if (prev_modeled >= 0.0 && report.modeled_seconds < prev_modeled) {
      monotone = false;
    }
    prev_modeled = report.modeled_seconds;

    table.add_row({rung.label, std::to_string(rung.budget),
                   TextTable::num(report.modeled_seconds, 4),
                   TextTable::num(page_s, 4),
                   std::to_string(report.page_hits),
                   std::to_string(report.page_misses),
                   std::to_string(report.page_evictions),
                   TextTable::num(static_cast<double>(
                                      report.page_bytes_transferred) /
                                      (1024.0 * 1024.0),
                                  3),
                   identical ? "yes" : "NO"});
    json.add_record(
        {{"budget_label", JsonReport::str(rung.label)},
         {"budget_bytes", JsonReport::num(static_cast<double>(rung.budget))},
         {"modeled_seconds", JsonReport::num(report.modeled_seconds)},
         {"page_seconds", JsonReport::num(page_s)},
         {"page_hits", JsonReport::num(static_cast<double>(report.page_hits))},
         {"page_misses",
          JsonReport::num(static_cast<double>(report.page_misses))},
         {"page_evictions",
          JsonReport::num(static_cast<double>(report.page_evictions))},
         {"page_bytes_transferred",
          JsonReport::num(static_cast<double>(report.page_bytes_transferred))},
         {"host_seconds", JsonReport::num(host)},
         {"model_bitwise_identical", identical ? "true" : "false"}});
  }

  std::printf("%s", table.to_string().c_str());
  std::printf("in-core baseline: %.4f modeled s\n", baseline_modeled);
  if (!all_identical) {
    std::printf(
        "OOC BENCH FAILED: an out-of-core model diverged from in-core\n");
    return 1;
  }
  if (!monotone) {
    std::printf(
        "OOC BENCH FAILED: modeled time decreased as the budget shrank\n");
    return 1;
  }
  std::printf(
      "all budgets bitwise-identical to in-core; modeled time monotone\n");
  return 0;
}
