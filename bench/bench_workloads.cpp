// Categorical + ranking workload bench (DESIGN.md §14): trains the two new
// workloads — a multiclass dataset with categorical columns through the
// ordered-target-statistics encoder, and an MSRank-shaped ranking dataset
// under the pairwise LambdaRank loss — on a single device and on every
// multi-GPU mode, reporting modeled seconds and quality to the table and to
// BENCH_workloads.json.
//
// Gates, enforced with a non-zero exit code:
//   1. Equivalence — for both workloads, every distributed model (feature,
//      data, voting) is bitwise-identical to the single-device model.
//   2. Quality — in the encoder's target regime (cardinality far above the
//      bin budget), ordered-statistics encoding scores at least as high as
//      treating the category codes ordinally on a held-out split of the
//      categorical dataset, and ranking training lifts NDCG@10 over the
//      untrained scorer.
//
// Args (for smoke runs): --rows N --features N --cats N --queries N
//                        --docs-per-query N --trees N --depth N --bins N
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/booster.h"
#include "core/metrics.h"
#include "data/synthetic.h"

namespace {

using gbmo::TextTable;
using gbmo::WallTimer;
using gbmo::bench::arg_or;
using gbmo::bench::serialize_model;
using gbmo::bench::JsonReport;
using gbmo::bench::progress;

struct Mode {
  const char* label;
  int devices;
  int nodes;
  gbmo::core::MultiGpuMode mode;
};

constexpr Mode kModes[] = {
    {"1dev", 1, 1, gbmo::core::MultiGpuMode::kFeatureParallel},
    {"feature", 4, 2, gbmo::core::MultiGpuMode::kFeatureParallel},
    {"data", 4, 2, gbmo::core::MultiGpuMode::kDataParallel},
    {"voting", 4, 2, gbmo::core::MultiGpuMode::kVotingParallel},
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t rows = arg_or(argc, argv, "--rows", 2000);
  const std::size_t features = arg_or(argc, argv, "--features", 24);
  const int cats = static_cast<int>(arg_or(argc, argv, "--cats", 6));
  const std::size_t queries = arg_or(argc, argv, "--queries", 200);
  const int docs = static_cast<int>(arg_or(argc, argv, "--docs-per-query", 10));
  const int trees = static_cast<int>(arg_or(argc, argv, "--trees", 10));
  const int depth = static_cast<int>(arg_or(argc, argv, "--depth", 5));
  const int bins = static_cast<int>(arg_or(argc, argv, "--bins", 64));

  std::printf("== Workloads: categorical + pairwise ranking ==\n");

  gbmo::data::MulticlassSpec cat_spec;
  cat_spec.n_instances = rows;
  cat_spec.n_features = features;
  cat_spec.n_classes = 5;
  // Weak numeric clusters: the predictive signal must come from the
  // categorical columns, which is what the encoder gate below measures.
  cat_spec.cluster_sep = 0.25;
  cat_spec.n_categorical = cats;
  cat_spec.cat_cardinality = 40;  // divisible by n_classes, above the gate's
                                  // bin budget
  cat_spec.seed = 31;
  auto cat_full = gbmo::data::make_multiclass(cat_spec);
  // The generator gives each class one heavy code per column, which quantile
  // cuts isolate even at a tiny bin budget. Real high-cardinality columns
  // spread a class over many low-mass categories, so rewrite each code
  // v -> (v + n_classes*k) % cardinality with a deterministic per-row
  // stratum k. Class information now lives in (code mod n_classes) across
  // the whole range: contiguous ordinal bins mix every class, while the
  // per-category ordered statistics still recover the association.
  {
    const std::uint64_t card =
        static_cast<std::uint64_t>(cat_spec.cat_cardinality);
    const std::uint64_t strata = card / cat_spec.n_classes;
    for (int j = 0; j < cats; ++j) {
      for (std::size_t i = 0; i < cat_full.n_instances(); ++i) {
        float& v = cat_full.x.row(i)[static_cast<std::size_t>(j)];
        const std::uint64_t mix =
            (static_cast<std::uint64_t>(i) * 2654435761ULL) ^
            (static_cast<std::uint64_t>(j) * 40503ULL);
        const std::uint64_t k = (mix >> 7) % strata;
        const std::uint64_t code = static_cast<std::uint64_t>(v);
        v = static_cast<float>(
            (code + static_cast<std::uint64_t>(cat_spec.n_classes) * k) %
            card);
      }
    }
  }
  const auto cat_split = gbmo::data::split_dataset(cat_full, 0.25);
  const auto& cat_train = cat_split.train;

  gbmo::data::RankingSpec rank_spec;
  rank_spec.n_queries = queries;
  rank_spec.docs_per_query = docs;
  rank_spec.n_features = features;
  rank_spec.n_categorical = cats / 2;
  rank_spec.cat_cardinality = 16;
  rank_spec.seed = 37;
  const auto rank_train = gbmo::data::make_ranking(rank_spec);

  auto cfg = gbmo::bench::paper_config();
  cfg.n_trees = trees;
  cfg.max_depth = depth;
  cfg.max_bins = bins;
  std::vector<std::int32_t> cat_cols;
  for (int j = 0; j < cats; ++j) cat_cols.push_back(j);

  JsonReport json("workloads");
  json.set("rows", static_cast<double>(rows));
  json.set("features", static_cast<double>(features));
  json.set("categorical_cols", static_cast<double>(cats));
  json.set("queries", static_cast<double>(queries));
  json.set("docs_per_query", static_cast<double>(docs));
  json.set("trees", static_cast<double>(trees));
  json.set("depth", static_cast<double>(depth));
  json.set("bins", static_cast<double>(bins));

  struct Workload {
    const char* label;
    const gbmo::data::Dataset* train;
    const gbmo::data::Dataset* eval;  // held-out for categorical
    std::vector<std::int32_t> cat_cols;
  };
  const Workload workloads[] = {
      {"categorical", &cat_train, &cat_split.test, cat_cols},
      {"ranking", &rank_train, &rank_train,
       std::vector<std::int32_t>(cat_cols.begin(),
                                 cat_cols.begin() + cats / 2)},
  };

  bool all_identical = true;
  TextTable table({"workload", "mode", "modeled (s)", "metric", "value",
                   "bitwise"});
  double cat_quality = 0.0;
  double rank_quality = 0.0;
  for (const Workload& w : workloads) {
    std::string reference;
    for (const Mode& m : kModes) {
      progress(std::string(w.label) + " " + m.label);
      auto run_cfg = cfg;
      run_cfg.cat_cols = w.cat_cols;
      run_cfg.n_devices = m.devices;
      run_cfg.n_nodes = m.nodes;
      run_cfg.multi_gpu = m.mode;
      gbmo::core::GbmoBooster booster(run_cfg);
      WallTimer timer;
      const auto model = booster.fit(*w.train);
      const double host = timer.seconds();
      const auto& report = booster.report();

      const std::string bytes = serialize_model(model);
      if (reference.empty()) reference = bytes;
      const bool identical = bytes == reference;
      all_identical = all_identical && identical;

      const auto eval = model.evaluate(*w.eval);
      if (m.devices == 1) {
        if (std::strcmp(w.label, "categorical") == 0) cat_quality = eval.value;
        if (std::strcmp(w.label, "ranking") == 0) rank_quality = eval.value;
      }
      table.add_row({w.label, m.label,
                     TextTable::num(report.modeled_seconds, 4), eval.metric,
                     TextTable::num(eval.value, 4),
                     identical ? "yes" : "NO"});
      json.add_record(
          {{"workload", JsonReport::str(w.label)},
           {"mode", JsonReport::str(m.label)},
           {"modeled_seconds", JsonReport::num(report.modeled_seconds)},
           {"host_seconds", JsonReport::num(host)},
           {"metric", JsonReport::str(eval.metric)},
           {"value", JsonReport::num(eval.value)},
           {"bitwise_identical", JsonReport::num(identical ? 1.0 : 0.0)}});
    }
  }

  // Quality gates. The categorical gate runs in the encoder's target
  // regime — a bin budget far below the cardinality — where ordinal binning
  // must merge scrambled codes while ordered statistics keep one hash-table
  // entry per category. (At a generous bin budget quantile cuts isolate
  // every high-mass code on their own, so the treatments tie there; that
  // comparison is reported in the JSON but not gated.)
  progress("categorical ordinal baseline");
  {
    auto low_cfg = cfg;
    low_cfg.max_bins = 8;
    low_cfg.cat_cols = cat_cols;
    gbmo::core::GbmoBooster enc(low_cfg);
    const double encoded_low =
        enc.fit(cat_train).evaluate(cat_split.test).value;
    low_cfg.cat_cols.clear();
    gbmo::core::GbmoBooster ord(low_cfg);
    const double ordinal_low =
        ord.fit(cat_train).evaluate(cat_split.test).value;

    auto full_cfg = cfg;
    gbmo::core::GbmoBooster full(full_cfg);
    const double ordinal_full =
        full.fit(cat_train).evaluate(cat_split.test).value;

    json.set("categorical_encoded_accuracy", cat_quality);
    json.set("categorical_ordinal_accuracy", ordinal_full);
    json.set("categorical_lowbin_encoded_accuracy", encoded_low);
    json.set("categorical_lowbin_ordinal_accuracy", ordinal_low);
    std::printf("categorical held-out: encoded %.4f vs ordinal %.4f\n",
                cat_quality, ordinal_full);
    std::printf("categorical held-out (8 bins): encoded %.4f vs ordinal "
                "%.4f\n",
                encoded_low, ordinal_low);
    if (encoded_low + 1e-9 < ordinal_low) {
      std::fprintf(stderr,
                   "GATE FAILED: ordered-statistics encoding scored below "
                   "the ordinal baseline on held-out data at a low bin "
                   "budget\n");
      return 1;
    }
  }
  const std::vector<float> zeros(rank_train.n_instances(), 0.0f);
  const double untrained = gbmo::core::ndcg_at_k(zeros, rank_train.y, 10);
  json.set("ranking_trained_ndcg10", rank_quality);
  json.set("ranking_untrained_ndcg10", untrained);
  std::printf("ranking: trained ndcg@10 %.4f vs untrained %.4f\n",
              rank_quality, untrained);

  std::printf("%s", table.to_string().c_str());
  if (!all_identical) {
    std::fprintf(stderr,
                 "GATE FAILED: a distributed workload model diverged from the "
                 "single-device reference\n");
    return 1;
  }
  if (rank_quality <= untrained) {
    std::fprintf(stderr,
                 "GATE FAILED: LambdaRank training did not lift NDCG@10\n");
    return 1;
  }
  std::printf("gates passed: bitwise equivalence + workload quality\n");
  return 0;
}
