// Metrics against hand-computed values; CSV/LIBSVM round trips for all
// three task kinds; synthetic generator contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "core/metrics.h"
#include "data/io.h"
#include "data/paper_datasets.h"
#include "data/synthetic.h"

namespace gbmo {
namespace {

TEST(MetricsTest, AccuracyByHand) {
  const auto y = data::Labels::multiclass({0, 1, 2, 1}, 3);
  // Instance scores: argmax = 0, 1, 0, 1 -> 3 of 4 correct.
  const std::vector<float> scores = {
      5, 1, 1,  //
      0, 2, 1,  //
      9, 1, 3,  //
      0, 7, 2,
  };
  EXPECT_DOUBLE_EQ(core::accuracy(scores, y), 0.75);
}

TEST(MetricsTest, RmseByHand) {
  const auto y = data::Labels::multiregression({1.0f, 2.0f, 3.0f, 4.0f}, 2, 2);
  const std::vector<float> scores = {2.0f, 2.0f, 3.0f, 2.0f};
  // errors: 1, 0, 0, -2 -> mean square 5/4 -> rmse sqrt(1.25)
  EXPECT_NEAR(core::rmse(scores, y), std::sqrt(1.25), 1e-9);
}

TEST(MetricsTest, MicroF1ByHand) {
  const auto y = data::Labels::multilabel({1, 0, 1, 1}, 2, 2);
  // predictions (score > 0): {1, 1}, {0, 1}; truth: {1, 0}, {1, 1}
  const std::vector<float> scores = {1.0f, 1.0f, -1.0f, 1.0f};
  // tp=2, fp=1, fn=1 -> f1 = 2*2/(2*2+1+1) = 2/3
  EXPECT_NEAR(core::micro_f1(scores, y), 2.0 / 3.0, 1e-9);
}

TEST(MetricsTest, PrimaryMetricPerTask) {
  const auto mc = data::Labels::multiclass({0}, 2);
  const std::vector<float> s1 = {1.0f, 0.0f};
  EXPECT_EQ(core::evaluate_primary(s1, mc).metric, "accuracy%");
  EXPECT_DOUBLE_EQ(core::evaluate_primary(s1, mc).value, 100.0);

  const auto mr = data::Labels::multiregression({0.0f}, 1, 1);
  EXPECT_EQ(core::evaluate_primary({s1.data(), 1}, mr).metric, "rmse");
}

data::Dataset roundtrip_csv(const data::Dataset& d) {
  std::stringstream ss;
  data::write_csv(ss, d);
  return data::read_csv(ss, d.n_features());
}

data::Dataset roundtrip_libsvm(const data::Dataset& d) {
  std::stringstream ss;
  data::write_libsvm(ss, d);
  return data::read_libsvm(ss, d.n_features(), d.task(), d.n_outputs());
}

void expect_same(const data::Dataset& a, const data::Dataset& b) {
  ASSERT_EQ(a.n_instances(), b.n_instances());
  ASSERT_EQ(a.n_features(), b.n_features());
  ASSERT_EQ(a.n_outputs(), b.n_outputs());
  ASSERT_EQ(a.task(), b.task());
  for (std::size_t i = 0; i < a.n_instances(); ++i) {
    for (std::size_t f = 0; f < a.n_features(); ++f) {
      EXPECT_NEAR(a.x.at(i, f), b.x.at(i, f), 1e-4f) << i << "," << f;
    }
    for (int k = 0; k < a.n_outputs(); ++k) {
      EXPECT_NEAR(a.y.target(i, k), b.y.target(i, k), 1e-4f);
    }
  }
}

TEST(IoTest, CsvRoundTripAllTasks) {
  data::MulticlassSpec mc;
  mc.n_instances = 40;
  mc.n_features = 5;
  mc.n_classes = 3;
  expect_same(data::make_multiclass(mc), roundtrip_csv(data::make_multiclass(mc)));

  data::MultilabelSpec ml;
  ml.n_instances = 40;
  ml.n_features = 6;
  ml.n_outputs = 4;
  expect_same(data::make_multilabel(ml), roundtrip_csv(data::make_multilabel(ml)));

  data::MultiregressionSpec mr;
  mr.n_instances = 40;
  mr.n_features = 5;
  mr.n_outputs = 3;
  expect_same(data::make_multiregression(mr),
              roundtrip_csv(data::make_multiregression(mr)));
}

TEST(IoTest, LibsvmRoundTripAllTasks) {
  data::MulticlassSpec mc;
  mc.n_instances = 30;
  mc.n_features = 5;
  mc.n_classes = 3;
  mc.sparsity = 0.6;
  expect_same(data::make_multiclass(mc),
              roundtrip_libsvm(data::make_multiclass(mc)));

  data::MultilabelSpec ml;
  ml.n_instances = 30;
  ml.n_features = 6;
  ml.n_outputs = 4;
  expect_same(data::make_multilabel(ml),
              roundtrip_libsvm(data::make_multilabel(ml)));

  data::MultiregressionSpec mr;
  mr.n_instances = 30;
  mr.n_features = 5;
  mr.n_outputs = 3;
  mr.sparsity = 0.5;
  expect_same(data::make_multiregression(mr),
              roundtrip_libsvm(data::make_multiregression(mr)));
}

// write_libsvm leaves the label field of a multilabel row with no active
// labels empty; the reader must not take that row's first feature pair for
// its labels, nor drop a row that has no feature pair either.
TEST(IoTest, LibsvmMultilabelRowWithoutLabelsRoundTrips) {
  data::Dataset d;
  d.x = data::DenseMatrix(3, 3);
  d.x.at(0, 2) = 1.5f;
  d.x.at(1, 0) = 2.5f;
  d.x.at(1, 1) = 3.5f;
  // Row 2 has neither a label nor a nonzero feature.
  d.y = data::Labels::multilabel({0, 1, 1, 0, 0, 0, 0, 0, 0}, 3, 3);
  const auto back = roundtrip_libsvm(d);
  ASSERT_EQ(back.n_instances(), 3u);
  const auto xa = d.x.values();
  const auto xb = back.x.values();
  ASSERT_EQ(xa.size(), xb.size());
  EXPECT_EQ(std::memcmp(xa.data(), xb.data(), xa.size() * sizeof(float)), 0);
  const auto ya = d.y.indicators();
  const auto yb = back.y.indicators();
  ASSERT_EQ(ya.size(), yb.size());
  EXPECT_TRUE(std::equal(ya.begin(), ya.end(), yb.begin()));

  // Every other task needs a label field: a line without one is an error
  // that names the line.
  std::istringstream is("0 0:1\n0:2.5 1:3.5\n");
  try {
    data::read_libsvm(is, 3, data::TaskKind::kMulticlass, 3);
    FAIL() << "expected gbmo::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

// The gbmo::Error message of reading `text`, or "" when it loads.
std::string csv_error(const std::string& text, std::size_t n_features) {
  std::istringstream is(text);
  try {
    data::read_csv(is, n_features);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

std::string libsvm_error(const std::string& text, std::size_t n_features,
                         data::TaskKind task, int n_outputs) {
  std::istringstream is(text);
  try {
    data::read_libsvm(is, n_features, task, n_outputs);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

bool has(const std::string& message, const std::string& part) {
  return message.find(part) != std::string::npos;
}

// A cell parses whole: "0.590679xyz" used to load as 0.590679.
TEST(IoTest, CellWithTrailingGarbageIsRejected) {
  const auto csv =
      csv_error("task,multiclass,3\n0.5,1,0\n0.590679xyz,2,1\n", 2);
  EXPECT_TRUE(has(csv, "CSV line 3, column 1") && has(csv, "'0.590679xyz'"))
      << csv;
  const auto svm = libsvm_error("0 0:0.5\n1 0:0.590679xyz 1:2\n", 2,
                                data::TaskKind::kMulticlass, 3);
  EXPECT_TRUE(has(svm, "libsvm line 2, column 2") &&
              has(svm, "'0.590679xyz'"))
      << svm;
}

// Class ids are integers: "1.9" used to load as class 1.
TEST(IoTest, FractionalClassIdIsRejected) {
  const auto csv = csv_error("task,multiclass,3\n0.5,1.9\n", 1);
  EXPECT_TRUE(has(csv, "CSV line 2, column 2") && has(csv, "'1.9'")) << csv;
  const auto svm =
      libsvm_error("0 0:1\n1.9 0:0.5\n", 1, data::TaskKind::kMulticlass, 3);
  EXPECT_TRUE(has(svm, "libsvm line 2, column 1") && has(svm, "'1.9'"))
      << svm;
}

// Non-numeric cells and header counts used to fail with a bare "stof" or
// "stoi" that named neither the line nor the column.
TEST(IoTest, NonNumericTokenNamesLineAndColumn) {
  const auto cell = csv_error("task,multiclass,3\n0.5,abc,0\n", 2);
  EXPECT_TRUE(has(cell, "CSV line 2, column 2") && has(cell, "'abc'")) << cell;
  const auto count = csv_error("task,multiclass,x\n0.5,0\n", 1);
  EXPECT_TRUE(has(count, "CSV line 1, column 3") && has(count, "'x'"))
      << count;
  const auto huge = csv_error("task,multiclass,99999999999\n0.5,0\n", 1);
  EXPECT_TRUE(has(huge, "CSV line 1, column 3")) << huge;
  EXPECT_TRUE(has(csv_error("task,multiclass,0\n", 1), "0 outputs"));
  const auto index = libsvm_error("0 0:1 a:2\n", 2,
                                  data::TaskKind::kMulticlass, 3);
  EXPECT_TRUE(has(index, "libsvm line 1, column 3") && has(index, "'a'"))
      << index;
}

// A row with the wrong number of cells names the count it expected and
// where that count comes from: the features plus the task's label cells.
TEST(IoTest, RaggedRowNamesExpectedCellCount) {
  // 16 cells per row, read as 15 features + 6 multiregression targets.
  std::string row;
  for (int c = 0; c < 22; ++c) row += (c == 0 ? "" : ",") + std::to_string(c);
  const auto wide = csv_error("task,multiregress,6\n" + row + "\n", 15);
  EXPECT_TRUE(has(wide, "CSV line 2 has 22 cells, expected 21") &&
              has(wide, "15 features + 6 label cells for multiregress"))
      << wide;
  EXPECT_FALSE(has(wide, "check failed")) << wide;
  const auto rank = csv_error("task,ranking,1\n0.5,1,2\n0.5,1\n", 1);
  EXPECT_TRUE(has(rank, "CSV line 3 has 2 cells, expected 3") &&
              has(rank, "1 features + 2 label cells for ranking"))
      << rank;
}

// The rejections below used to name a source file of the program (a failed
// GBMO_CHECK) instead of a place in the input.
TEST(IoTest, LibsvmFeatureIndexPastFeaturesNamesLineAndColumn) {
  const auto e =
      libsvm_error("0 0:1\n1 0:2 40:1\n", 40, data::TaskKind::kMulticlass, 3);
  EXPECT_TRUE(has(e, "libsvm line 2, column 3") &&
              has(e, "feature index 40 is past the 40 features"))
      << e;
}

TEST(IoTest, LibsvmPairWithoutColonNamesLineAndColumn) {
  const auto e = libsvm_error("0 0:1 5\n", 6, data::TaskKind::kMulticlass, 3);
  EXPECT_TRUE(has(e, "libsvm line 1, column 3") && has(e, "'5'")) << e;
}

TEST(IoTest, LibsvmMultilabelIdPastOutputsNamesLine) {
  const auto e =
      libsvm_error("0,1 0:1\n0,3 0:2\n", 1, data::TaskKind::kMultilabel, 3);
  EXPECT_TRUE(has(e, "libsvm line 2, column 1") && has(e, "label id 3")) << e;
}

TEST(IoTest, LibsvmMultiregressTargetCountNamesLine) {
  const auto e = libsvm_error("1,2,3 0:1\n1,2 0:1\n", 1,
                              data::TaskKind::kMultiregression, 3);
  EXPECT_TRUE(has(e, "libsvm line 2, column 1") &&
              has(e, "expected 3 targets, got 2"))
      << e;
}

TEST(IoTest, LibsvmRankingLabelMustBeQidRel) {
  const auto e =
      libsvm_error("1,2 0:1\n3 0:1\n", 1, data::TaskKind::kRanking, 1);
  EXPECT_TRUE(has(e, "libsvm line 2, column 1") && has(e, "'3'")) << e;
}

TEST(IoTest, ClassIdPastOutputsNamesLineAndColumn) {
  const auto csv = csv_error("task,multiclass,3\n0.5,1\n0.5,7\n", 1);
  EXPECT_TRUE(has(csv, "CSV line 3, column 2") && has(csv, "label id 7"))
      << csv;
  const auto svm =
      libsvm_error("1 0:1\n-1 0:1\n", 1, data::TaskKind::kMulticlass, 3);
  EXPECT_TRUE(has(svm, "libsvm line 2, column 1") && has(svm, "label id -1"))
      << svm;
}

TEST(IoTest, NonContiguousQueryNamesLineAndColumn) {
  const auto csv =
      csv_error("task,ranking,1\n0.5,1,0\n0.5,2,1\n0.5,1,2\n", 1);
  EXPECT_TRUE(has(csv, "CSV line 4, column 2") &&
              has(csv, "query id 1 is not contiguous"))
      << csv;
  const auto svm = libsvm_error("1,0 0:1\n2,1 0:1\n1,2 0:1\n", 1,
                                data::TaskKind::kRanking, 1);
  EXPECT_TRUE(has(svm, "libsvm line 3, column 1") &&
              has(svm, "query id 1 is not contiguous"))
      << svm;
}

TEST(IoTest, NegativeRelevanceNamesLineAndColumn) {
  const auto csv = csv_error("task,ranking,1\n0.5,1,0\n0.5,1,-1\n", 1);
  EXPECT_TRUE(has(csv, "CSV line 3, column 3") && has(csv, "'-1'")) << csv;
  const auto svm =
      libsvm_error("1,-1 0:1\n", 1, data::TaskKind::kRanking, 1);
  EXPECT_TRUE(has(svm, "libsvm line 1, column 1") && has(svm, "'-1'")) << svm;
}

// A CSV indicator cell of 3 used to load and train.
TEST(IoTest, CsvMultilabelIndicatorMustBeZeroOrOne) {
  const auto e = csv_error("task,multilabel,2\n0.5,1,0\n0.5,3,1\n", 1);
  EXPECT_TRUE(has(e, "CSV line 3, column 2") && has(e, "'3' is not 0 or 1"))
      << e;
}

// Files with CRLF line endings load exactly as their LF originals.
TEST(IoTest, CrlfFilesLoadLikeLf) {
  data::MulticlassSpec mc;
  mc.n_instances = 20;
  mc.n_features = 4;
  mc.n_classes = 3;
  mc.sparsity = 0.5;
  const auto d = data::make_multiclass(mc);
  const auto crlf = [](const std::string& text) {
    std::string out;
    for (const char c : text) {
      if (c == '\n') out += '\r';
      out += c;
    }
    return out + "\r\n";  // and a trailing blank line
  };
  const auto same = [](const data::Dataset& a, const data::Dataset& b) {
    const auto xa = a.x.values();
    const auto xb = b.x.values();
    return xa.size() == xb.size() &&
           std::memcmp(xa.data(), xb.data(), xa.size() * sizeof(float)) == 0 &&
           std::equal(a.y.class_ids().begin(), a.y.class_ids().end(),
                      b.y.class_ids().begin(), b.y.class_ids().end());
  };

  std::stringstream csv;
  data::write_csv(csv, d);
  std::istringstream csv_lf(csv.str()), csv_crlf(crlf(csv.str()));
  EXPECT_TRUE(same(data::read_csv(csv_lf, 4), data::read_csv(csv_crlf, 4)));

  std::stringstream svm;
  data::write_libsvm(svm, d);
  std::istringstream svm_lf(svm.str()), svm_crlf(crlf(svm.str()));
  EXPECT_TRUE(same(
      data::read_libsvm(svm_lf, 4, data::TaskKind::kMulticlass, 3),
      data::read_libsvm(svm_crlf, 4, data::TaskKind::kMulticlass, 3)));
}

TEST(SyntheticTest, DeterministicBySeed) {
  data::MulticlassSpec spec;
  spec.n_instances = 50;
  spec.n_features = 8;
  spec.n_classes = 4;
  const auto a = data::make_multiclass(spec);
  const auto b = data::make_multiclass(spec);
  for (std::size_t i = 0; i < a.x.values().size(); ++i) {
    ASSERT_EQ(a.x.values()[i], b.x.values()[i]);
  }
  spec.seed += 1;
  const auto c = data::make_multiclass(spec);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.x.values().size(); ++i) {
    any_diff |= a.x.values()[i] != c.x.values()[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticTest, SparsityIsRespected) {
  data::MulticlassSpec spec;
  spec.n_instances = 500;
  spec.n_features = 20;
  spec.n_classes = 3;
  spec.sparsity = 0.7;
  const auto d = data::make_multiclass(spec);
  EXPECT_NEAR(d.x.zero_fraction(), 0.7, 0.05);
}

TEST(SyntheticTest, MultilabelDensityTracksSpec) {
  data::MultilabelSpec spec;
  spec.n_instances = 800;
  spec.n_outputs = 20;
  spec.labels_per_instance = 3.0;
  const auto d = data::make_multilabel(spec);
  double total = 0.0;
  for (std::size_t i = 0; i < d.n_instances(); ++i) {
    for (int k = 0; k < 20; ++k) total += d.y.target(i, k);
  }
  const double avg = total / static_cast<double>(d.n_instances());
  EXPECT_GT(avg, 1.0);
  EXPECT_LT(avg, 7.0);
}

TEST(PaperDatasetsTest, AllNineReplicasGenerate) {
  const auto& specs = data::paper_datasets();
  ASSERT_EQ(specs.size(), 9u);
  for (const auto& spec : specs) {
    const auto d = data::make_replica(spec);
    EXPECT_EQ(d.n_instances(), spec.bench.n_instances) << spec.name;
    EXPECT_EQ(d.n_features(), spec.bench.n_features) << spec.name;
    EXPECT_EQ(d.n_outputs(), spec.bench.n_outputs) << spec.name;
    EXPECT_EQ(d.task(), spec.task) << spec.name;
    EXPECT_GT(spec.scale_factor(), 1.0) << spec.name;
  }
  EXPECT_EQ(data::find_dataset("MNIST").full.n_features, 784u);
  EXPECT_THROW(data::find_dataset("nope"), Error);
}

}  // namespace
}  // namespace gbmo
