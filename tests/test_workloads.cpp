// Categorical features + pairwise ranking workloads (DESIGN.md §14).
//
// Two layers:
//
//   Workloads.*      (fast) — property tests pinning the categorical
//     encoding down (hash order-independence, unseen-category routing,
//     ordered-statistics invariance under row-chunk splits, leakage
//     freedom), hand-computed NDCG / LambdaRank fixtures (3 queries x <=4
//     docs, tied scores, single-document queries), ranking dataset
//     validation and IO round-trips, categorical model IO (including
//     pre-categorical files) and serving-engine encoding.
//
//   WorkloadsSlow.*  (slow) — the bitwise-identity sweeps: categorical and
//     ranking training produce byte-identical serialized models across
//     --sim-threads {1,2,4}, across 1-device vs every --mgpu mode, and
//     under a transient-fault/retry schedule.
//
// Both suites also carry the ctest label "workloads" (tests/CMakeLists.txt).
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/booster.h"
#include "core/gradients.h"
#include "core/loss.h"
#include "core/metrics.h"
#include "core/model_io.h"
#include "data/categorical.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "serve/engine.h"
#include "sim/faults.h"
#include "sim/scheduler.h"

namespace gbmo {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// ---------------------------------------------------------------------------
// fixtures

data::Dataset cat_dataset() {
  data::MulticlassSpec spec;
  spec.n_instances = 240;
  spec.n_features = 8;
  spec.n_classes = 3;
  spec.cluster_sep = 2.0;
  spec.n_categorical = 3;
  spec.cat_cardinality = 9;
  spec.seed = 11;
  return data::make_multiclass(spec);
}

data::Dataset rank_dataset() {
  data::RankingSpec spec;
  spec.n_queries = 40;
  spec.docs_per_query = 6;
  spec.n_features = 10;
  spec.n_categorical = 2;
  spec.cat_cardinality = 7;
  spec.seed = 13;
  return data::make_ranking(spec);
}

core::TrainConfig small_config() {
  core::TrainConfig cfg;
  cfg.n_trees = 5;
  cfg.max_depth = 4;
  cfg.learning_rate = 0.5f;
  cfg.min_instances_per_node = 4;
  cfg.max_bins = 32;
  return cfg;
}

std::string serialize(const core::Model& model) {
  std::ostringstream os;
  core::write_model(os, model);
  return os.str();
}

// A tiny hand-auditable categorical matrix: one categorical column (0) with
// integer category codes and one numeric column, class labels as targets.
struct TinyCat {
  data::DenseMatrix x;
  data::Labels y;
};

TinyCat tiny_cat() {
  // rows: cat code, numeric   class
  const float codes[] = {1.0f, 2.0f, 1.0f, 3.0f, 2.0f, 1.0f};
  const std::vector<std::int32_t> classes = {1, 0, 0, 1, 1, 0};
  TinyCat t{data::DenseMatrix(6, 2), data::Labels::multiclass(classes, 2)};
  for (std::size_t i = 0; i < 6; ++i) {
    t.x.at(i, 0) = codes[i];
    t.x.at(i, 1) = 0.25f * static_cast<float>(i);
  }
  return t;
}

// ---------------------------------------------------------------------------
// categorical properties

TEST(Workloads, CategoryHashNormalizesSignedZeroAndSeparatesValues) {
  EXPECT_EQ(data::category_hash(-0.0f), data::category_hash(0.0f));
  EXPECT_NE(data::category_hash(1.0f), data::category_hash(2.0f));
  EXPECT_NE(data::category_hash(1.0f), data::category_hash(1.5f));
  // Deterministic across calls (pure function of the bit pattern).
  EXPECT_EQ(data::category_hash(42.0f), data::category_hash(42.0f));
}

// The final tables are independent of the order categories are first seen:
// permuting the rows permutes the fold but leaves each category's
// (sum, count) multiset intact — exactly so with integer proxy targets —
// and finalize() sorts by hash, so the tables match field for field.
TEST(Workloads, FinalTablesAreRowOrderIndependent) {
  const TinyCat t = tiny_cat();
  const std::size_t n = t.x.n_rows();

  const std::vector<std::size_t> perm = {4, 0, 5, 2, 1, 3};
  data::DenseMatrix px(n, 2);
  std::vector<std::int32_t> pclasses(n);
  for (std::size_t i = 0; i < n; ++i) {
    px.at(i, 0) = t.x.at(perm[i], 0);
    px.at(i, 1) = t.x.at(perm[i], 1);
    pclasses[i] = t.y.class_id(perm[i]);
  }
  const auto py = data::Labels::multiclass(pclasses, 2);

  const float prior = data::CategoricalEncoder::target_prior(t.y);
  ASSERT_FLOAT_EQ(prior, data::CategoricalEncoder::target_prior(py));

  data::CategoricalEncoder a({0}, prior);
  data::CategoricalEncoder b({0}, prior);
  data::DenseMatrix out_a = t.x;
  data::DenseMatrix out_b = px;
  a.encode_ordered(t.x, t.y, 0, n, out_a);
  b.encode_ordered(px, py, 0, n, out_b);

  const auto ta = a.finalize();
  const auto tb = b.finalize();
  ASSERT_EQ(ta.size(), 1u);
  ASSERT_EQ(tb.size(), 1u);
  EXPECT_EQ(ta[0].col, tb[0].col);
  EXPECT_EQ(ta[0].hashes, tb[0].hashes);
  ASSERT_EQ(ta[0].values.size(), tb[0].values.size());
  for (std::size_t i = 0; i < ta[0].values.size(); ++i) {
    EXPECT_EQ(ta[0].values[i], tb[0].values[i]) << "table entry " << i;
  }
}

TEST(Workloads, UnseenCategoryEncodesAsPriorAndNaNStaysMissing) {
  const TinyCat t = tiny_cat();
  const float prior = data::CategoricalEncoder::target_prior(t.y);
  data::CategoricalEncoder enc({0}, prior);
  data::DenseMatrix out = t.x;
  enc.encode_ordered(t.x, t.y, 0, t.x.n_rows(), out);
  const auto tables = enc.finalize();
  ASSERT_EQ(tables.size(), 1u);
  const auto& table = tables[0];

  // The documented default rule: a category never seen in training encodes
  // as the prior; NaN is missing, not a category.
  EXPECT_EQ(table.value_for(99.0f), table.prior);
  EXPECT_EQ(table.prior, prior);
  EXPECT_TRUE(std::isnan(table.value_for(kNaN)));
  // Seen categories hit their table entry, and -0.0 aliases +0.0.
  EXPECT_NE(table.value_for(1.0f), table.prior);
  EXPECT_EQ(table.value_for(-0.0f), table.value_for(0.0f));
}

// The determinism rule itself: folding the rows in one call vs any ordered
// chunking yields bit-identical encodings and tables.
TEST(Workloads, OrderedStatsInvariantUnderRowChunkSplits) {
  const auto d = cat_dataset();
  const std::vector<std::int32_t> cols = {0, 1, 2};
  const float prior = data::CategoricalEncoder::target_prior(d.y);
  const std::size_t n = d.x.n_rows();

  data::CategoricalEncoder whole(cols, prior);
  data::DenseMatrix out_whole = d.x;
  whole.encode_ordered(d.x, d.y, 0, n, out_whole);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, n / 2, n}) {
    data::CategoricalEncoder split(cols, prior);
    data::DenseMatrix out_split = d.x;
    for (std::size_t start = 0; start < n; start += chunk) {
      split.encode_ordered(d.x, d.y, start, std::min(n, start + chunk),
                           out_split);
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < d.x.n_cols(); ++c) {
        ASSERT_EQ(out_whole.at(i, c), out_split.at(i, c))
            << "chunk=" << chunk << " cell (" << i << "," << c << ")";
      }
    }
    const auto tw = whole.finalize();
    const auto ts = split.finalize();
    ASSERT_EQ(tw.size(), ts.size());
    for (std::size_t k = 0; k < tw.size(); ++k) {
      ASSERT_EQ(tw[k].hashes, ts[k].hashes) << "chunk=" << chunk;
      ASSERT_EQ(tw[k].values, ts[k].values) << "chunk=" << chunk;
    }
  }
}

// Ordered statistics never leak the row's own target: the first occurrence
// of every category encodes exactly to the prior.
TEST(Workloads, FirstOccurrenceEncodesToPrior) {
  const TinyCat t = tiny_cat();
  const float prior = data::CategoricalEncoder::target_prior(t.y);
  data::CategoricalEncoder enc({0}, prior);
  data::DenseMatrix out = t.x;
  enc.encode_ordered(t.x, t.y, 0, t.x.n_rows(), out);
  // Rows 0, 1, 3 are the first sightings of categories 1, 2, 3.
  EXPECT_EQ(out.at(0, 0), prior);
  EXPECT_EQ(out.at(1, 0), prior);
  EXPECT_EQ(out.at(3, 0), prior);
  // Row 2 repeats category 1 (row 0, class 1, prior weight 1):
  // (1 + prior) / 2, exactly.
  EXPECT_EQ(out.at(2, 0), (1.0f + prior) / 2.0f);
  // Numeric column untouched.
  EXPECT_EQ(out.at(2, 1), t.x.at(2, 1));
}

TEST(Workloads, EncodeTrainingMatrixMatchesEncoderAndChargesKernels) {
  const auto d = cat_dataset();
  const std::vector<std::int32_t> cols = {0, 1, 2};
  const float prior = data::CategoricalEncoder::target_prior(d.y);

  data::CategoricalEncoder enc(cols, prior);
  data::DenseMatrix expected = d.x;
  enc.encode_ordered(d.x, d.y, 0, d.x.n_rows(), expected);

  sim::Device dev{sim::DeviceSpec::rtx4090(), 0};
  sim::Device* devp = &dev;
  const auto encoding =
      data::encode_training_matrix(d.x, d.y, cols, {&devp, 1});
  for (std::size_t i = 0; i < d.x.n_rows(); ++i) {
    for (std::size_t c = 0; c < d.x.n_cols(); ++c) {
      ASSERT_EQ(encoding.x.at(i, c), expected.at(i, c))
          << "cell (" << i << "," << c << ")";
    }
  }
  ASSERT_EQ(encoding.tables.size(), cols.size());
  // The modeled cost of the encode pass reached the device.
  EXPECT_GT(dev.modeled_seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// NDCG hand-computed fixtures

TEST(Workloads, NdcgHandComputedThreeQueries) {
  // Query 0: rels [3, 2, 0], scores [1.0, 2.0, 0.5] -> ranked rows 1, 0, 2.
  // Query 1: single doc, rel 1 -> perfect, contributes 1.
  // Query 2: single doc, rel 0 -> IDCG == 0, contributes 1 by convention.
  const auto y = data::Labels::ranking({3.0f, 2.0f, 0.0f, 1.0f, 0.0f},
                                       {0, 0, 0, 1, 2});
  const std::vector<float> scores = {1.0f, 2.0f, 0.5f, 0.3f, 0.9f};

  const double l3 = std::log2(3.0);
  const double dcg0 = 3.0 / 1.0 + 7.0 / l3;   // rel 2 at pos 0, rel 3 at pos 1
  const double idcg0 = 7.0 / 1.0 + 3.0 / l3;  // rels sorted desc
  const double expected = (dcg0 / idcg0 + 1.0 + 1.0) / 3.0;
  EXPECT_NEAR(core::ndcg_at_k(scores, y, 10), expected, 1e-12);
}

TEST(Workloads, NdcgTiedScoresBreakByRowIndex) {
  // Equal scores: stable order keeps row 0 (rel 0) ahead of row 1 (rel 3).
  const auto y = data::Labels::ranking({0.0f, 3.0f}, {0, 0});
  const std::vector<float> scores = {0.5f, 0.5f};
  const double l3 = std::log2(3.0);
  EXPECT_NEAR(core::ndcg_at_k(scores, y, 10), (7.0 / l3) / 7.0, 1e-12);
}

TEST(Workloads, NdcgTruncatesAtK) {
  // k=1 sees only the top doc (rel 1); the ideal top-1 is the rel-3 doc.
  const auto y = data::Labels::ranking({1.0f, 3.0f}, {0, 0});
  const std::vector<float> scores = {2.0f, 1.0f};
  EXPECT_NEAR(core::ndcg_at_k(scores, y, 1), 1.0 / 7.0, 1e-12);
}

TEST(Workloads, NdcgIsThePrimaryRankingMetric) {
  const auto y = data::Labels::ranking({1.0f, 0.0f}, {0, 0});
  const std::vector<float> scores = {1.0f, 0.0f};
  const auto eval = core::evaluate_primary(scores, y);
  EXPECT_EQ(eval.metric, "ndcg@10");
  EXPECT_TRUE(eval.higher_is_better);
  EXPECT_NEAR(eval.value, 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// LambdaRank hand-computed fixtures

TEST(Workloads, LambdaRankTwoDocFixture) {
  // Two docs, rels [1, 0], equal scores. maxDCG = 1 (gain 1 at discount 1),
  // |ΔNDCG| = |1 - 0| * |1/log2(2) - 1/log2(3)| / 1, rho = 1/2.
  const auto y = data::Labels::ranking({1.0f, 0.0f}, {0, 0});
  const std::vector<float> scores = {0.0f, 0.0f};
  std::vector<float> g(2, -1.0f), h(2, -1.0f);
  const core::LambdaRankLoss loss;
  loss.query_gradients(scores, y, 0, 2, g, h);

  const double delta = 1.0 - 1.0 / std::log2(3.0);
  EXPECT_NEAR(g[0], -0.5 * delta, 1e-7);
  EXPECT_NEAR(g[1], 0.5 * delta, 1e-7);
  EXPECT_NEAR(h[0], 0.25 * delta, 1e-7);
  EXPECT_NEAR(h[1], 0.25 * delta, 1e-7);
  // Pairwise pushes are antisymmetric: per-query gradients sum to zero.
  EXPECT_NEAR(g[0] + g[1], 0.0, 1e-9);
}

TEST(Workloads, LambdaRankAllTiedRelevanceHasNoPairs) {
  const auto y = data::Labels::ranking({2.0f, 2.0f, 2.0f}, {0, 0, 0});
  const std::vector<float> scores = {3.0f, -1.0f, 0.0f};
  std::vector<float> g(3, -1.0f), h(3, -1.0f);
  const core::LambdaRankLoss loss;
  loss.query_gradients(scores, y, 0, 3, g, h);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(g[i], 0.0f) << "doc " << i;
    EXPECT_EQ(h[i], 1e-6f) << "doc " << i;  // hessian floor
  }
}

TEST(Workloads, LambdaRankSingleDocQueryIsInert) {
  const auto y = data::Labels::ranking({3.0f}, {0});
  const std::vector<float> scores = {1.5f};
  std::vector<float> g(1, -1.0f), h(1, -1.0f);
  const core::LambdaRankLoss loss;
  loss.query_gradients(scores, y, 0, 1, g, h);
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(h[0], 1e-6f);
}

TEST(Workloads, LambdaRankGradientsPushTowardCorrectOrder) {
  // Mis-ordered pair (higher rel scored lower): the high-rel doc must get a
  // negative gradient (scores move against -g) and the pull strengthens as
  // the ordering gets worse.
  const auto y = data::Labels::ranking({2.0f, 0.0f}, {0, 0});
  const core::LambdaRankLoss loss;
  std::vector<float> g(2), h(2);
  const std::vector<float> misordered = {-1.0f, 1.0f};
  const std::vector<float> ordered = {1.0f, -1.0f};
  loss.query_gradients(misordered, y, 0, 2, g, h);
  EXPECT_LT(g[0], 0.0f);
  EXPECT_GT(g[1], 0.0f);
  const float pull_bad = -g[0];
  loss.query_gradients(ordered, y, 0, 2, g, h);
  const float pull_good = -g[0];
  EXPECT_GT(pull_bad, pull_good);
}

TEST(Workloads, PairwiseLossValueHandComputed) {
  // One discordant-capable pair with score gap 2 in the correct order:
  // mean pairwise logistic = log(1 + exp(-2)).
  const auto y = data::Labels::ranking({1.0f, 0.0f}, {0, 0});
  const core::LambdaRankLoss loss;
  const std::vector<float> scores = {2.0f, 0.0f};
  EXPECT_NEAR(loss.value(scores, y), std::log1p(std::exp(-2.0)), 1e-12);
  // No comparable pairs at all -> 0 by convention.
  const auto tied = data::Labels::ranking({1.0f, 1.0f}, {0, 0});
  EXPECT_EQ(loss.value(scores, tied), 0.0);
}

TEST(Workloads, ComputeGradientsDispatchesPerQueryAndMatchesDirectCalls) {
  const auto d = rank_dataset();
  const std::size_t n = d.n_instances();
  std::vector<float> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = 0.01f * static_cast<float>(i % 17) - 0.05f;
  }
  const core::LambdaRankLoss loss;
  ASSERT_TRUE(loss.per_query());

  sim::Device dev{sim::DeviceSpec::rtx4090(), 0};
  std::vector<float> g_dev(n), h_dev(n);
  core::compute_gradients(dev, loss, scores, d.y, g_dev, h_dev);

  std::vector<float> g_ref(n), h_ref(n);
  for (const auto& span : d.y.query_spans()) {
    loss.query_gradients(scores, d.y, span.begin, span.end, g_ref, h_ref);
  }
  EXPECT_EQ(g_dev, g_ref);
  EXPECT_EQ(h_dev, h_ref);
}

// ---------------------------------------------------------------------------
// ranking labels, datasets, IO

TEST(Workloads, RankingLabelsRejectNonContiguousQueryIds) {
  EXPECT_THROW(data::Labels::ranking({1.0f, 0.0f, 1.0f}, {0, 1, 0}),
               gbmo::Error);
  EXPECT_THROW(data::Labels::ranking({1.0f, -2.0f}, {0, 0}), gbmo::Error);
}

TEST(Workloads, RankingQuerySpansCoverRuns) {
  const auto y = data::Labels::ranking({0.0f, 1.0f, 2.0f, 0.0f, 1.0f, 3.0f},
                                       {5, 5, 2, 2, 2, 7});
  const auto spans = y.query_spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].begin, 0u);
  EXPECT_EQ(spans[0].end, 2u);
  EXPECT_EQ(spans[1].begin, 2u);
  EXPECT_EQ(spans[1].end, 5u);
  EXPECT_EQ(spans[2].begin, 5u);
  EXPECT_EQ(spans[2].end, 6u);
}

TEST(Workloads, RankingGeneratorShapesAndGrades) {
  const auto d = rank_dataset();
  EXPECT_EQ(d.task(), data::TaskKind::kRanking);
  EXPECT_EQ(d.n_outputs(), 1);
  const auto spans = d.y.query_spans();
  EXPECT_EQ(spans.size(), 40u);
  std::size_t covered = 0;
  for (const auto& s : spans) covered += s.end - s.begin;
  EXPECT_EQ(covered, d.n_instances());
  for (std::size_t i = 0; i < d.n_instances(); ++i) {
    const float rel = d.y.target(i, 0);
    EXPECT_GE(rel, 0.0f);
    EXPECT_LE(rel, 4.0f);
    EXPECT_EQ(rel, std::floor(rel)) << "graded relevance must be integral";
  }
  // The categorical columns hold integer category codes.
  for (std::size_t i = 0; i < d.n_instances(); ++i) {
    for (int c = 0; c < 2; ++c) {
      const float v = d.x.at(i, static_cast<std::size_t>(c));
      EXPECT_EQ(v, std::floor(v));
      EXPECT_GE(v, 0.0f);
      EXPECT_LT(v, 7.0f);
    }
  }
}

TEST(Workloads, RankingCsvRoundTrip) {
  const auto d = rank_dataset();
  std::ostringstream os;
  data::write_csv(os, d);

  std::istringstream is(os.str());
  const auto back = data::read_csv(is, d.n_features());
  ASSERT_EQ(back.task(), data::TaskKind::kRanking);
  ASSERT_EQ(back.n_instances(), d.n_instances());
  for (std::size_t i = 0; i < d.n_instances(); ++i) {
    ASSERT_EQ(back.y.target(i, 0), d.y.target(i, 0)) << "row " << i;
    ASSERT_EQ(back.y.query_ids()[i], d.y.query_ids()[i]) << "row " << i;
  }
  ASSERT_EQ(back.y.query_spans().size(), d.y.query_spans().size());
}

TEST(Workloads, RankingLibsvmRoundTrip) {
  const auto d = rank_dataset();
  std::ostringstream os;
  data::write_libsvm(os, d);
  std::istringstream is(os.str());
  const auto back =
      data::read_libsvm(is, d.n_features(), data::TaskKind::kRanking, 1);
  ASSERT_EQ(back.n_instances(), d.n_instances());
  for (std::size_t i = 0; i < d.n_instances(); ++i) {
    ASSERT_EQ(back.y.target(i, 0), d.y.target(i, 0)) << "row " << i;
    ASSERT_EQ(back.y.query_ids()[i], d.y.query_ids()[i]) << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// model IO + serving

TEST(Workloads, CategoricalModelRoundTripsByteStable) {
  const auto d = cat_dataset();
  auto cfg = small_config();
  cfg.cat_cols = {0, 1, 2};
  core::GbmoBooster booster(cfg);
  const auto model = booster.fit(d);
  ASSERT_TRUE(model.has_categoricals());
  ASSERT_EQ(model.categoricals.size(), 3u);

  const std::string first = serialize(model);
  ASSERT_NE(first.find("\ncategoricals 3\n"), std::string::npos);
  std::istringstream is(first);
  const auto reloaded = core::read_model(is);
  EXPECT_EQ(serialize(reloaded), first) << "save(load(m)) changed bytes";

  const auto base = model.predict(d.x);
  const auto again = reloaded.predict(d.x);
  ASSERT_EQ(base.size(), again.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(base[i], again[i]) << "score " << i;
  }
}

TEST(Workloads, PreCategoricalModelFilesStillLoad) {
  const auto d = cat_dataset();
  auto cfg = small_config();
  cfg.cat_cols = {0, 1, 2};
  core::GbmoBooster booster(cfg);
  const auto model = booster.fit(d);
  std::string text = serialize(model);

  // Strip the trailing section: exactly what a file written before the
  // categoricals section existed looks like.
  const auto pos = text.find("categoricals ");
  ASSERT_NE(pos, std::string::npos);
  text.resize(pos);
  std::istringstream is(text);
  const auto legacy = core::read_model(is);
  EXPECT_FALSE(legacy.has_categoricals());
  EXPECT_EQ(legacy.trees.size(), model.trees.size());
  // It predicts as a plain numeric model over the same trees.
  const auto enc = model.encode(d.x);
  EXPECT_EQ(legacy.predict(enc), model.predict(d.x));
}

TEST(Workloads, RankingModelRoundTripsWithTaskTag) {
  const auto d = rank_dataset();
  auto cfg = small_config();
  cfg.cat_cols = {0, 1};
  core::GbmoBooster booster(cfg);
  const auto model = booster.fit(d);
  EXPECT_EQ(model.task, data::TaskKind::kRanking);

  const std::string first = serialize(model);
  ASSERT_NE(first.find("task ranking 1"), std::string::npos);
  std::istringstream is(first);
  const auto reloaded = core::read_model(is);
  EXPECT_EQ(reloaded.task, data::TaskKind::kRanking);
  EXPECT_EQ(serialize(reloaded), first);
  const auto eval = reloaded.evaluate(d);
  EXPECT_EQ(eval.metric, "ndcg@10");
  EXPECT_GT(eval.value, 0.5);
}

TEST(Workloads, ServingEnginesEncodeCategoricalInputs) {
  const auto d = cat_dataset();
  auto cfg = small_config();
  cfg.cat_cols = {0, 1, 2};
  core::GbmoBooster booster(cfg);
  auto model = std::make_shared<const core::Model>(booster.fit(d));
  const auto expected = model->predict(d.x);

  for (const auto& name : serve::engine_names()) {
    auto engine = serve::make_engine(name, model);
    const auto scores = engine->predict(d.x);
    ASSERT_EQ(scores.size(), expected.size()) << name;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      ASSERT_EQ(scores[i], expected[i]) << name << " score " << i;
    }
  }
}

// Quality sanity: when the cardinality exceeds the bin budget, ordinal
// binning has to lump unrelated categories into shared bins while the
// ordered statistic orders them by target — so the encoded model wins on
// held-out data. (At training time ordinal can simply memorize codes, which
// is why the comparison is held-out.)
TEST(Workloads, CategoricalEncodingBeatsOrdinalOnHeldOutHighCardinality) {
  data::MulticlassSpec spec;
  spec.n_instances = 600;
  spec.n_features = 6;
  spec.n_classes = 3;
  spec.cluster_sep = 0.5;  // numeric columns nearly uninformative
  spec.n_categorical = 4;
  spec.cat_cardinality = 64;
  spec.seed = 17;
  const auto split = data::split_dataset(data::make_multiclass(spec), 0.3);

  auto cfg = small_config();
  cfg.max_bins = 8;  // << cardinality: ordinal bins must merge categories
  core::GbmoBooster ordinal(cfg);
  const auto m_ordinal = ordinal.fit(split.train);
  cfg.cat_cols = {0, 1, 2, 3};
  core::GbmoBooster encoded(cfg);
  const auto m_encoded = encoded.fit(split.train);
  const double acc_encoded = m_encoded.evaluate(split.test).value;
  const double acc_ordinal = m_ordinal.evaluate(split.test).value;
  EXPECT_GT(acc_encoded, acc_ordinal)
      << "held-out accuracy: encoded " << acc_encoded << " vs ordinal "
      << acc_ordinal;
}

TEST(Workloads, RankingTrainingImprovesNdcg) {
  const auto d = rank_dataset();
  auto cfg = small_config();
  cfg.n_trees = 10;
  core::GbmoBooster booster(cfg);
  const auto model = booster.fit(d);
  const std::vector<float> zeros(d.n_instances(), 0.0f);
  const double before = core::ndcg_at_k(zeros, d.y, 10);
  const double after = model.evaluate(d).value;
  EXPECT_GT(after, before + 0.05) << "boosting should lift NDCG@10";
}

// ---------------------------------------------------------------------------
// bitwise-identity sweeps (slow)

struct Topology {
  const char* label;
  int devices;
  int nodes;
  core::MultiGpuMode mode;
};

constexpr Topology kTopologies[] = {
    {"1dev", 1, 1, core::MultiGpuMode::kFeatureParallel},
    {"4dev-feature", 4, 1, core::MultiGpuMode::kFeatureParallel},
    {"4dev-data-2node", 4, 2, core::MultiGpuMode::kDataParallel},
    {"4dev-voting-2node", 4, 2, core::MultiGpuMode::kVotingParallel},
};

std::string train_serialized(const data::Dataset& d, core::TrainConfig cfg,
                             const Topology& topo) {
  cfg.n_devices = topo.devices;
  cfg.n_nodes = topo.nodes;
  cfg.multi_gpu = topo.mode;
  core::GbmoBooster booster(cfg);
  return serialize(booster.fit(d));
}

void sweep_bitwise(const data::Dataset& d, const core::TrainConfig& cfg) {
  sim::set_sim_threads(1);
  const std::string reference = train_serialized(d, cfg, kTopologies[0]);
  for (const int threads : {1, 2, 4}) {
    sim::set_sim_threads(threads);
    for (const auto& topo : kTopologies) {
      EXPECT_EQ(train_serialized(d, cfg, topo), reference)
          << "threads=" << threads << " topo=" << topo.label;
    }
  }
  sim::set_sim_threads(0);
}

TEST(WorkloadsSlow, CategoricalTrainingBitwiseAcrossThreadsAndTopologies) {
  auto cfg = small_config();
  cfg.cat_cols = {0, 1, 2};
  sweep_bitwise(cat_dataset(), cfg);
}

TEST(WorkloadsSlow, RankingTrainingBitwiseAcrossThreadsAndTopologies) {
  auto cfg = small_config();
  cfg.cat_cols = {0, 1};
  sweep_bitwise(rank_dataset(), cfg);
}

// Transient faults + retries must not perturb either workload: a faulted
// launch attempt runs no block, so a retried schedule reproduces the
// unfaulted model byte for byte.
TEST(WorkloadsSlow, WorkloadsBitwiseUnderTransientFaultRetries) {
  for (const bool ranking : {false, true}) {
    const auto d = ranking ? rank_dataset() : cat_dataset();
    auto cfg = small_config();
    cfg.cat_cols = ranking ? std::vector<std::int32_t>{0, 1}
                           : std::vector<std::int32_t>{0, 1, 2};
    const std::string clean = train_serialized(d, cfg, kTopologies[0]);
    sim::set_sim_faults("transient=0.05;seed=9;retries=16");
    const std::string faulted = train_serialized(d, cfg, kTopologies[0]);
    sim::reset_sim_faults();
    EXPECT_EQ(faulted, clean)
        << (ranking ? "ranking" : "categorical") << " under faults";
  }
}

// Out-of-core training pages tiles of the *encoded* matrix, so the paged
// run reproduces the in-core categorical model exactly.
TEST(WorkloadsSlow, CategoricalOutOfCoreMatchesInCore) {
  const auto d = cat_dataset();
  auto cfg = small_config();
  cfg.cat_cols = {0, 1, 2};
  const std::string in_core = train_serialized(d, cfg, kTopologies[0]);
  cfg.device_budget_bytes = 1u << 20;
  cfg.stream_chunk_rows = 37;
  const std::string streamed = train_serialized(d, cfg, kTopologies[0]);
  EXPECT_EQ(streamed, in_core);
}

}  // namespace
}  // namespace gbmo
