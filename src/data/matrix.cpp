#include "data/matrix.h"

#include <unordered_set>

#include "common/rng.h"

namespace gbmo::data {

const char* task_name(TaskKind t) {
  switch (t) {
    case TaskKind::kMulticlass:
      return "multiclass";
    case TaskKind::kMultilabel:
      return "multilabel";
    case TaskKind::kMultiregression:
      return "multiregress";
    case TaskKind::kRanking:
      return "ranking";
  }
  return "?";
}

TaskKind parse_task(const std::string& name) {
  for (const TaskKind t : {TaskKind::kMulticlass, TaskKind::kMultilabel,
                           TaskKind::kMultiregression, TaskKind::kRanking}) {
    if (name == task_name(t)) return t;
  }
  throw Error("unknown task '" + name +
              "' (multiclass|multilabel|multiregress|ranking)");
}

std::vector<float> DenseMatrix::col(std::size_t c) const {
  GBMO_CHECK(c < n_cols_);
  std::vector<float> out(n_rows_);
  for (std::size_t r = 0; r < n_rows_; ++r) out[r] = values_[r * n_cols_ + c];
  return out;
}

double DenseMatrix::zero_fraction() const {
  if (values_.empty()) return 0.0;
  std::size_t zeros = 0;
  for (float v : values_) zeros += (v == 0.0f) ? 1 : 0;
  return static_cast<double>(zeros) / static_cast<double>(values_.size());
}

Labels Labels::multiclass(std::vector<std::int32_t> class_ids, int n_classes) {
  GBMO_CHECK(n_classes >= 2);
  for (auto c : class_ids) GBMO_CHECK(c >= 0 && c < n_classes) << "class id " << c;
  Labels l;
  l.task_ = TaskKind::kMulticlass;
  l.n_ = class_ids.size();
  l.n_outputs_ = n_classes;
  l.class_ids_ = std::move(class_ids);
  return l;
}

Labels Labels::multilabel(std::vector<std::uint8_t> indicators, std::size_t n,
                          int n_outputs) {
  GBMO_CHECK(indicators.size() == n * static_cast<std::size_t>(n_outputs));
  Labels l;
  l.task_ = TaskKind::kMultilabel;
  l.n_ = n;
  l.n_outputs_ = n_outputs;
  l.indicators_ = std::move(indicators);
  return l;
}

Labels Labels::multiregression(std::vector<float> targets, std::size_t n,
                               int n_outputs) {
  GBMO_CHECK(targets.size() == n * static_cast<std::size_t>(n_outputs));
  Labels l;
  l.task_ = TaskKind::kMultiregression;
  l.n_ = n;
  l.n_outputs_ = n_outputs;
  l.targets_ = std::move(targets);
  return l;
}

Labels Labels::ranking(std::vector<float> relevance,
                       std::vector<std::uint32_t> query_ids) {
  GBMO_CHECK(relevance.size() == query_ids.size());
  for (float r : relevance) GBMO_CHECK(r >= 0.0f) << "negative relevance " << r;
  // Rows of one query must be contiguous: a qid may not reappear after a
  // different qid intervened.
  std::unordered_set<std::uint32_t> closed;
  for (std::size_t i = 0; i < query_ids.size(); ++i) {
    if (i > 0 && query_ids[i] != query_ids[i - 1]) {
      GBMO_CHECK(closed.insert(query_ids[i - 1]).second)
          << "query id " << query_ids[i - 1] << " is not contiguous";
      GBMO_CHECK(closed.find(query_ids[i]) == closed.end())
          << "query id " << query_ids[i] << " is not contiguous";
    }
  }
  Labels l;
  l.task_ = TaskKind::kRanking;
  l.n_ = relevance.size();
  l.n_outputs_ = 1;
  l.targets_ = std::move(relevance);
  l.query_ids_ = std::move(query_ids);
  return l;
}

std::vector<Labels::QuerySpan> Labels::query_spans() const {
  GBMO_CHECK(task_ == TaskKind::kRanking);
  std::vector<QuerySpan> spans;
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= n_; ++i) {
    if (i == n_ || query_ids_[i] != query_ids_[begin]) {
      spans.push_back({static_cast<std::uint32_t>(begin),
                       static_cast<std::uint32_t>(i)});
      begin = i;
    }
  }
  return spans;
}

Labels Labels::subset(std::span<const std::uint32_t> rows) const {
  Labels out;
  out.task_ = task_;
  out.n_ = rows.size();
  out.n_outputs_ = n_outputs_;
  switch (task_) {
    case TaskKind::kMulticlass:
      out.class_ids_.reserve(rows.size());
      for (auto r : rows) out.class_ids_.push_back(class_ids_[r]);
      break;
    case TaskKind::kMultilabel:
      out.indicators_.reserve(rows.size() * n_outputs_);
      for (auto r : rows) {
        const auto* src = indicators_.data() + static_cast<std::size_t>(r) * n_outputs_;
        out.indicators_.insert(out.indicators_.end(), src, src + n_outputs_);
      }
      break;
    case TaskKind::kMultiregression:
      out.targets_.reserve(rows.size() * n_outputs_);
      for (auto r : rows) {
        const auto* src = targets_.data() + static_cast<std::size_t>(r) * n_outputs_;
        out.targets_.insert(out.targets_.end(), src, src + n_outputs_);
      }
      break;
    case TaskKind::kRanking:
      out.targets_.reserve(rows.size());
      out.query_ids_.reserve(rows.size());
      for (auto r : rows) {
        out.targets_.push_back(targets_[r]);
        out.query_ids_.push_back(query_ids_[r]);
      }
      break;
  }
  return out;
}

TrainTestSplit split_dataset(const Dataset& full, double test_fraction,
                             std::uint64_t seed) {
  GBMO_CHECK(test_fraction > 0.0 && test_fraction < 1.0);
  Rng rng(seed);
  std::vector<std::uint32_t> train_rows;
  std::vector<std::uint32_t> test_rows;
  for (std::uint32_t i = 0; i < full.n_instances(); ++i) {
    (rng.next_double() < test_fraction ? test_rows : train_rows).push_back(i);
  }
  GBMO_CHECK(!train_rows.empty() && !test_rows.empty());

  auto take = [&](std::span<const std::uint32_t> rows) {
    Dataset d;
    d.name = full.name;
    d.x = DenseMatrix(rows.size(), full.n_features());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      auto src = full.x.row(rows[i]);
      std::copy(src.begin(), src.end(), d.x.row(i).begin());
    }
    d.y = full.y.subset(rows);
    return d;
  };

  TrainTestSplit split;
  split.train = take(train_rows);
  split.test = take(test_rows);
  return split;
}

}  // namespace gbmo::data
