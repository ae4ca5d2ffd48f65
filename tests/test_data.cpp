// Dense matrix, labels and train/test splitting.
#include <gtest/gtest.h>

#include <sstream>

#include "data/io.h"
#include "data/matrix.h"

namespace gbmo::data {
namespace {

TEST(DenseMatrixTest, BasicAccess) {
  DenseMatrix m(3, 2);
  m.at(0, 0) = 1.0f;
  m.at(2, 1) = 5.0f;
  EXPECT_FLOAT_EQ(m.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.at(2, 1), 5.0f);
  EXPECT_FLOAT_EQ(m.row(2)[1], 5.0f);
  const auto col1 = m.col(1);
  EXPECT_FLOAT_EQ(col1[2], 5.0f);
  EXPECT_NEAR(m.zero_fraction(), 4.0 / 6.0, 1e-9);
}

TEST(LabelsTest, DenseTargetViews) {
  const auto mc = Labels::multiclass({0, 2, 1}, 3);
  EXPECT_FLOAT_EQ(mc.target(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(mc.target(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(mc.target(1, 2), 1.0f);

  const auto ml = Labels::multilabel({1, 0, 0, 1}, 2, 2);
  EXPECT_FLOAT_EQ(ml.target(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(ml.target(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(ml.target(1, 1), 1.0f);

  const auto mr = Labels::multiregression({0.5f, -1.0f}, 1, 2);
  EXPECT_FLOAT_EQ(mr.target(0, 1), -1.0f);
}

TEST(LabelsTest, SubsetPreservesTargets) {
  const auto mc = Labels::multiclass({0, 2, 1, 2}, 3);
  const std::vector<std::uint32_t> rows = {3, 1};
  const auto sub = mc.subset(rows);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.class_id(0), 2);
  EXPECT_EQ(sub.class_id(1), 2);
}

TEST(LabelsTest, RejectsOutOfRangeClassIds) {
  EXPECT_THROW(Labels::multiclass({0, 5}, 3), Error);
}

TEST(SplitDatasetTest, PartitionsAllInstances) {
  Dataset d;
  d.x = DenseMatrix(100, 2);
  for (std::size_t i = 0; i < 100; ++i) d.x.at(i, 0) = static_cast<float>(i);
  std::vector<std::int32_t> ids(100);
  for (std::size_t i = 0; i < 100; ++i) ids[i] = static_cast<std::int32_t>(i % 4);
  d.y = Labels::multiclass(std::move(ids), 4);

  const auto split = split_dataset(d, 0.25, 3);
  EXPECT_EQ(split.train.n_instances() + split.test.n_instances(), 100u);
  EXPECT_GT(split.test.n_instances(), 10u);
  EXPECT_LT(split.test.n_instances(), 45u);
  // Feature values identify the original instances: no duplicates across
  // the two sides.
  std::vector<bool> seen(100, false);
  auto mark = [&](const Dataset& part) {
    for (std::size_t i = 0; i < part.n_instances(); ++i) {
      const auto orig = static_cast<std::size_t>(part.x.at(i, 0));
      EXPECT_FALSE(seen[orig]);
      seen[orig] = true;
      EXPECT_EQ(part.y.class_id(i), static_cast<std::int32_t>(orig % 4));
    }
  };
  mark(split.train);
  mark(split.test);
  for (bool s : seen) EXPECT_TRUE(s);
}

}  // namespace
}  // namespace gbmo::data
