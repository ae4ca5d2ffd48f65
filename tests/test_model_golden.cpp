// Model persistence: in-memory round-trip stability plus a golden-file check
// against tests/golden/multiclass_small.gbmo committed to the repository —
// loading the golden model and re-serializing it must reproduce the file
// byte for byte, and its predictions on the (seeded, deterministic) training
// dataset must match the committed expectations within epsilon.
//
// Regenerating the goldens (after a deliberate format or training change):
//   GBMO_REGEN_GOLDEN=1 ./gbmo_tests --gtest_filter='ModelGolden.*'
// then commit the rewritten files under tests/golden/.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/booster.h"
#include "core/model_io.h"
#include "data/synthetic.h"

#ifndef GBMO_GOLDEN_DIR
#define GBMO_GOLDEN_DIR "tests/golden"
#endif

namespace gbmo {
namespace {

constexpr const char* kGoldenModel = GBMO_GOLDEN_DIR "/multiclass_small.gbmo";
constexpr const char* kGoldenPreds =
    GBMO_GOLDEN_DIR "/multiclass_small.preds.txt";
constexpr const char* kGoldenCatModel =
    GBMO_GOLDEN_DIR "/categorical_small.gbmo";
constexpr const char* kGoldenCatPreds =
    GBMO_GOLDEN_DIR "/categorical_small.preds.txt";
constexpr const char* kGoldenRankModel = GBMO_GOLDEN_DIR "/ranking_small.gbmo";
constexpr const char* kGoldenRankPreds =
    GBMO_GOLDEN_DIR "/ranking_small.preds.txt";
constexpr float kEps = 1e-5f;

data::Dataset golden_data() {
  data::MulticlassSpec spec;
  spec.n_instances = 120;
  spec.n_features = 6;
  spec.n_classes = 3;
  spec.cluster_sep = 2.0;
  spec.seed = 7;
  return data::make_multiclass(spec);
}

// Categorical golden: the leading two columns are category codes trained
// through the ordered-statistics encoder, so the committed file pins the
// trailing `categoricals` model section (hash tables included) byte for
// byte.
data::Dataset golden_cat_data() {
  data::MulticlassSpec spec;
  spec.n_instances = 120;
  spec.n_features = 6;
  spec.n_classes = 3;
  spec.cluster_sep = 2.0;
  spec.n_categorical = 2;
  spec.cat_cardinality = 6;
  spec.seed = 21;
  return data::make_multiclass(spec);
}

// Ranking golden: pins the "task ranking" tag and a LambdaRank-trained
// model (with one categorical column) against format drift.
data::Dataset golden_rank_data() {
  data::RankingSpec spec;
  spec.n_queries = 25;
  spec.docs_per_query = 5;
  spec.n_features = 6;
  spec.n_categorical = 1;
  spec.cat_cardinality = 5;
  spec.seed = 23;
  return data::make_ranking(spec);
}

core::Model train_golden_model(const data::Dataset& d,
                               std::vector<std::int32_t> cat_cols = {}) {
  core::TrainConfig cfg;
  cfg.n_trees = 3;
  cfg.max_depth = 3;
  cfg.learning_rate = 0.5f;
  cfg.min_instances_per_node = 5;
  cfg.max_bins = 16;
  cfg.cat_cols = std::move(cat_cols);
  core::GbmoBooster booster(cfg);
  return booster.fit(d);
}

std::string serialize(const core::Model& model) {
  std::ostringstream os;
  core::write_model(os, model);
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return {};
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// Save -> load -> save reproduces the exact bytes (floats are printed with 9
// significant digits, enough to round-trip binary32), and the reloaded model
// predicts identically.
TEST(ModelGolden, SaveLoadByteStable) {
  const auto d = golden_data();
  const auto model = train_golden_model(d);
  const std::string first = serialize(model);

  std::istringstream is(first);
  const auto reloaded = core::read_model(is);
  EXPECT_EQ(serialize(reloaded), first) << "save(load(m)) changed bytes";

  EXPECT_EQ(reloaded.n_outputs, model.n_outputs);
  ASSERT_EQ(reloaded.trees.size(), model.trees.size());
  const auto base = model.predict(d.x);
  const auto again = reloaded.predict(d.x);
  ASSERT_EQ(base.size(), again.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(base[i], again[i], kEps) << "score " << i;
  }
}

// Shared golden protocol: regenerate under GBMO_REGEN_GOLDEN=1, otherwise
// assert (a) re-serializing the committed file reproduces it byte for byte
// (no lossy fields) and (b) predictions on the seed-deterministic dataset
// match the committed expectations within epsilon.
void run_golden_check(const char* model_path, const char* preds_path,
                      const data::Dataset& d,
                      std::vector<std::int32_t> cat_cols = {}) {
  if (std::getenv("GBMO_REGEN_GOLDEN") != nullptr) {
    const auto model = train_golden_model(d, std::move(cat_cols));
    core::save_model(model_path, model);
    const auto preds = model.predict(d.x);
    std::ofstream os(preds_path);
    ASSERT_TRUE(os.good()) << "cannot write " << preds_path;
    os << std::setprecision(9);
    for (float p : preds) os << p << '\n';
    GTEST_SKIP() << "regenerated golden files under " GBMO_GOLDEN_DIR;
  }

  const std::string committed = read_file(model_path);
  ASSERT_FALSE(committed.empty())
      << model_path
      << " missing; regenerate with GBMO_REGEN_GOLDEN=1 and commit it";

  const auto model = core::load_model(model_path);
  EXPECT_EQ(serialize(model), committed)
      << "re-serializing the golden model changed bytes";

  std::ifstream ps(preds_path);
  ASSERT_TRUE(ps.good())
      << preds_path
      << " missing; regenerate with GBMO_REGEN_GOLDEN=1 and commit it";
  std::vector<float> expected;
  for (float v = 0.0f; ps >> v;) expected.push_back(v);
  const auto preds = model.predict(d.x);
  ASSERT_EQ(preds.size(), expected.size());
  for (std::size_t i = 0; i < preds.size(); ++i) {
    EXPECT_NEAR(preds[i], expected[i], kEps) << "score " << i;
  }
}

TEST(ModelGolden, GoldenFileRoundTrip) {
  run_golden_check(kGoldenModel, kGoldenPreds, golden_data());
}

TEST(ModelGolden, CategoricalGoldenFileRoundTrip) {
  const auto d = golden_cat_data();
  run_golden_check(kGoldenCatModel, kGoldenCatPreds, d, {0, 1});
  if (std::getenv("GBMO_REGEN_GOLDEN") != nullptr) return;
  // The committed file must actually carry the trailing section.
  const auto model = core::load_model(kGoldenCatModel);
  EXPECT_EQ(model.categoricals.size(), 2u);
}

TEST(ModelGolden, RankingGoldenFileRoundTrip) {
  const auto d = golden_rank_data();
  run_golden_check(kGoldenRankModel, kGoldenRankPreds, d, {0});
  if (std::getenv("GBMO_REGEN_GOLDEN") != nullptr) return;
  const auto model = core::load_model(kGoldenRankModel);
  EXPECT_EQ(model.task, data::TaskKind::kRanking);
  EXPECT_EQ(model.categoricals.size(), 1u);
}

// Rewrites field `field` (0 = the tag) of the first line of `text` that
// starts with the tag `tag`.
std::string with_field(std::string text, const std::string& tag, int field,
                       const std::string& value) {
  std::size_t start = text.find("\n" + tag + " ") + 1;
  for (int i = 0; i < field; ++i) start = text.find(' ', start) + 1;
  text.replace(start, text.find_first_of(" \n", start) - start, value);
  return text;
}

// Rewrites one field of the golden's first node line (0 = the "node" tag,
// 1 = feature, 4 = left, 5 = right).
std::string with_first_node_field(int field, const std::string& value) {
  return with_field(read_file(kGoldenModel), "node", field, value);
}

void expect_load_error(const std::string& text) {
  ASSERT_FALSE(text.empty());
  std::istringstream is(text);
  EXPECT_THROW(core::read_model(is), Error);
}

TEST(ModelGolden, RejectsSplitThatIsItsOwnChild) {
  std::istringstream unchanged(with_first_node_field(4, "1"));
  EXPECT_EQ(serialize(core::read_model(unchanged)), read_file(kGoldenModel));
  expect_load_error(with_first_node_field(4, "0"));
}

TEST(ModelGolden, RejectsOutOfRangeChild) {
  expect_load_error(with_first_node_field(5, "100000"));
}

TEST(ModelGolden, RejectsSplitFeaturePastFeatureCount) {
  expect_load_error(with_first_node_field(1, "4000"));
}

// Counts come from the file, and the loader sizes nothing from them before
// it reads the elements: a count no machine could allocate (2^40) runs into
// the end of the input and throws gbmo::Error, not std::bad_alloc.
TEST(ModelGolden, RejectsCountsPastTheEndOfTheInput) {
  const std::string huge = "1099511627776";
  const std::string model = read_file(kGoldenModel);
  const std::string cat = read_file(kGoldenCatModel);
  expect_load_error(with_field(model, "features", 1, huge));
  expect_load_error(with_field(model, "cuts", 1, huge));
  expect_load_error(with_field(model, "trees", 1, huge));
  expect_load_error(with_field(model, "tree", 1, huge));  // nodes
  expect_load_error(with_field(model, "tree", 2, huge));  // leaf values
  expect_load_error(with_field(cat, "categoricals", 1, huge));
  expect_load_error(with_field(cat, "cat", 3, huge));  // hashes and values
}

// A categorical table must name one of the model's features; otherwise the
// model would load (and deploy) and then fail every prediction.
TEST(ModelGolden, RejectsCategoricalColumnPastFeatureCount) {
  const std::string cat = read_file(kGoldenCatModel);
  std::istringstream is(with_field(cat, "cat", 1, "4000"));
  try {
    (void)core::read_model(is);
    ADD_FAILURE() << "a table on column 4000 of 6 features loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("categorical column 4000"),
              std::string::npos)
        << e.what();
  }
  expect_load_error(with_field(cat, "cat", 1, "-1"));
  expect_load_error(with_field(cat, "cat", 1, "6"));
}

// A model needs at least one output; the loader rejects a smaller count at
// the task line, naming it.
TEST(ModelGolden, RejectsNonPositiveOutputCount) {
  const std::string model = read_file(kGoldenModel);
  for (const std::string count : {"0", "-2"}) {
    std::istringstream is(with_field(model, "task", 2, count));
    try {
      (void)core::read_model(is);
      ADD_FAILURE() << "a model with " << count << " outputs loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("output count " + count),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace gbmo
