#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"

namespace gbmo::data {

namespace {

// Applies exact-zero sparsification in place (keeps determinism by using its
// own RNG stream).
void sparsify(DenseMatrix& x, double sparsity, std::uint64_t seed) {
  if (sparsity <= 0.0) return;
  Rng rng(seed ^ 0x5a5a5a5a5a5a5a5aULL);
  for (float& v : x.values()) {
    if (rng.next_double() < sparsity) v = 0.0f;
  }
}

// Overwrites the first n_categorical columns with label-correlated category
// codes: with probability 0.6 the code is derived from the label signal
// (informative), otherwise uniform over the cardinality. Codes are small
// non-negative integers stored as floats.
void categorize_columns(DenseMatrix& x, int n_categorical, int cardinality,
                        std::uint64_t seed,
                        const std::vector<std::int32_t>& label_signal) {
  if (n_categorical <= 0) return;
  GBMO_CHECK(cardinality >= 2);
  const int n_cat =
      std::min<int>(n_categorical, static_cast<int>(x.n_cols()));
  Rng rng(seed ^ 0xca7e60121ULL);
  for (std::size_t i = 0; i < x.n_rows(); ++i) {
    for (int c = 0; c < n_cat; ++c) {
      const std::uint64_t card = static_cast<std::uint64_t>(cardinality);
      std::uint64_t code;
      if (rng.bernoulli(0.6)) {
        code = (static_cast<std::uint64_t>(label_signal[i]) +
                static_cast<std::uint64_t>(c)) %
               card;
      } else {
        code = rng.next_below(card);
      }
      x.at(i, static_cast<std::size_t>(c)) = static_cast<float>(code);
    }
  }
}

}  // namespace

Dataset make_multiclass(const MulticlassSpec& spec) {
  GBMO_CHECK(spec.n_classes >= 2);
  GBMO_CHECK(spec.n_features >= 1);
  Rng rng(spec.seed);

  const int informative =
      std::clamp<int>(spec.n_informative, 1, static_cast<int>(spec.n_features));

  // Class centers: random vertices of a scaled hypercube in the informative
  // subspace, jittered so no two classes coincide even when
  // n_classes > 2^informative.
  std::vector<float> centers(static_cast<std::size_t>(spec.n_classes) * informative);
  for (int c = 0; c < spec.n_classes; ++c) {
    for (int j = 0; j < informative; ++j) {
      const float vertex = rng.bernoulli(0.5) ? 1.0f : -1.0f;
      centers[static_cast<std::size_t>(c) * informative + j] =
          static_cast<float>(spec.cluster_sep) * vertex +
          0.35f * static_cast<float>(spec.cluster_sep) * rng.normal_f();
    }
  }

  // Random rotation from the informative subspace into feature space; the
  // remaining features are pure noise.
  std::vector<float> rotation(static_cast<std::size_t>(informative) * spec.n_features);
  for (float& v : rotation) v = rng.normal_f() / std::sqrt(static_cast<float>(informative));

  Dataset d;
  d.name = "synthetic-multiclass";
  d.x = DenseMatrix(spec.n_instances, spec.n_features);
  std::vector<std::int32_t> class_ids(spec.n_instances);

  std::vector<float> latent(static_cast<std::size_t>(informative));
  std::vector<float> acc(spec.n_features);
  for (std::size_t i = 0; i < spec.n_instances; ++i) {
    const int c = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(spec.n_classes)));
    class_ids[i] = c;
    for (int j = 0; j < informative; ++j) {
      latent[static_cast<std::size_t>(j)] =
          centers[static_cast<std::size_t>(c) * informative + j] +
          static_cast<float>(spec.noise_std) * rng.normal_f();
    }
    // Each feature adds its informative terms in ascending j; running the
    // features side by side keeps their sums independent rather than one
    // long dependent chain per feature.
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (int j = 0; j < informative; ++j) {
      const float l = latent[static_cast<std::size_t>(j)];
      const float* rot = rotation.data() + static_cast<std::size_t>(j) * spec.n_features;
      for (std::size_t f = 0; f < spec.n_features; ++f) acc[f] += l * rot[f];
    }
    auto row = d.x.row(i);
    for (std::size_t f = 0; f < spec.n_features; ++f) {
      // Noise floor keeps non-informative directions non-degenerate.
      row[f] = acc[f] + 0.05f * rng.normal_f();
    }
  }

  sparsify(d.x, spec.sparsity, spec.seed);
  categorize_columns(d.x, spec.n_categorical, spec.cat_cardinality, spec.seed,
                     class_ids);
  d.y = Labels::multiclass(std::move(class_ids), spec.n_classes);
  return d;
}

Dataset make_multilabel(const MultilabelSpec& spec) {
  GBMO_CHECK(spec.n_outputs >= 1 && spec.n_topics >= 1);
  Rng rng(spec.seed);

  // Topic -> feature emission strengths and topic -> label affinities.
  std::vector<float> topic_feat(static_cast<std::size_t>(spec.n_topics) * spec.n_features);
  for (float& v : topic_feat) v = rng.bernoulli(0.25) ? rng.uniform(0.5f, 2.0f) : 0.0f;
  std::vector<float> topic_label(static_cast<std::size_t>(spec.n_topics) * spec.n_outputs);
  for (float& v : topic_label) v = rng.bernoulli(0.3) ? rng.uniform(0.5f, 1.5f) : 0.0f;

  Dataset d;
  d.name = "synthetic-multilabel";
  d.x = DenseMatrix(spec.n_instances, spec.n_features);
  std::vector<std::uint8_t> indicators(spec.n_instances * static_cast<std::size_t>(spec.n_outputs), 0);

  const double label_bias =
      spec.labels_per_instance / std::max(1.0, static_cast<double>(spec.n_outputs));
  std::vector<float> topic_weight(static_cast<std::size_t>(spec.n_topics));

  for (std::size_t i = 0; i < spec.n_instances; ++i) {
    for (int t = 0; t < spec.n_topics; ++t) {
      topic_weight[static_cast<std::size_t>(t)] =
          rng.bernoulli(2.0 / spec.n_topics) ? rng.uniform(0.5f, 1.5f) : 0.0f;
    }
    auto row = d.x.row(i);
    for (std::size_t f = 0; f < spec.n_features; ++f) {
      float acc = 0.0f;
      for (int t = 0; t < spec.n_topics; ++t) {
        acc += topic_weight[static_cast<std::size_t>(t)] *
               topic_feat[static_cast<std::size_t>(t) * spec.n_features + f];
      }
      row[f] = acc > 0.0f ? acc + 0.1f * rng.normal_f() : 0.0f;
    }
    for (int k = 0; k < spec.n_outputs; ++k) {
      float activation = 0.0f;
      for (int t = 0; t < spec.n_topics; ++t) {
        activation += topic_weight[static_cast<std::size_t>(t)] *
                      topic_label[static_cast<std::size_t>(t) * spec.n_outputs + k];
      }
      const double p = label_bias + 0.45 * std::tanh(activation);
      if (rng.bernoulli(std::clamp(p, 0.0, 1.0))) {
        indicators[i * static_cast<std::size_t>(spec.n_outputs) +
                   static_cast<std::size_t>(k)] = 1;
      }
    }
  }

  sparsify(d.x, spec.sparsity, spec.seed);
  d.y = Labels::multilabel(std::move(indicators), spec.n_instances, spec.n_outputs);
  return d;
}

Dataset make_multiregression(const MultiregressionSpec& spec) {
  GBMO_CHECK(spec.n_outputs >= 1 && spec.rank >= 1);
  Rng rng(spec.seed);

  // y = tanh(X A) B + noise: A maps features to `rank` latent factors,
  // B maps factors to outputs — outputs are correlated through the factors,
  // and tanh adds the non-linearity trees are good at.
  const int rank = std::min<int>(spec.rank, static_cast<int>(spec.n_features));
  std::vector<float> a(spec.n_features * static_cast<std::size_t>(rank));
  for (float& v : a) v = rng.normal_f() / std::sqrt(static_cast<float>(spec.n_features));
  std::vector<float> b(static_cast<std::size_t>(rank) * spec.n_outputs);
  for (float& v : b) v = rng.normal_f();

  Dataset d;
  d.name = "synthetic-multiregression";
  d.x = DenseMatrix(spec.n_instances, spec.n_features);
  std::vector<float> targets(spec.n_instances * static_cast<std::size_t>(spec.n_outputs));

  std::vector<float> factors(static_cast<std::size_t>(rank));
  for (std::size_t i = 0; i < spec.n_instances; ++i) {
    auto row = d.x.row(i);
    for (float& v : row) v = rng.normal_f();
    for (int j = 0; j < rank; ++j) {
      float acc = 0.0f;
      for (std::size_t f = 0; f < spec.n_features; ++f) {
        acc += row[f] * a[f * static_cast<std::size_t>(rank) + j];
      }
      factors[static_cast<std::size_t>(j)] = std::tanh(2.0f * acc);
    }
    for (int k = 0; k < spec.n_outputs; ++k) {
      float acc = 0.0f;
      for (int j = 0; j < rank; ++j) {
        acc += factors[static_cast<std::size_t>(j)] *
               b[static_cast<std::size_t>(j) * spec.n_outputs + k];
      }
      targets[i * static_cast<std::size_t>(spec.n_outputs) + static_cast<std::size_t>(k)] =
          acc + static_cast<float>(spec.noise_std) * rng.normal_f();
    }
  }

  sparsify(d.x, spec.sparsity, spec.seed);
  d.y = Labels::multiregression(std::move(targets), spec.n_instances, spec.n_outputs);
  return d;
}

Dataset make_ranking(const RankingSpec& spec) {
  GBMO_CHECK(spec.n_queries >= 1 && spec.docs_per_query >= 1);
  GBMO_CHECK(spec.n_features >= 1 && spec.max_relevance >= 1);
  Rng rng(spec.seed);

  const int informative =
      std::clamp<int>(spec.n_informative, 1, static_cast<int>(spec.n_features));
  // The hidden utility model: one weight vector over the informative
  // subspace, shared by all queries (what the ranker has to learn).
  std::vector<float> w(static_cast<std::size_t>(informative));
  for (float& v : w) v = rng.normal_f();

  // Two passes would need the doc counts up front; draw them first.
  std::vector<int> docs(spec.n_queries);
  std::size_t n = 0;
  for (auto& k : docs) {
    k = 1 + static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(2 * spec.docs_per_query - 1)));
    n += static_cast<std::size_t>(k);
  }

  Dataset d;
  d.name = "synthetic-ranking";
  d.x = DenseMatrix(n, spec.n_features);
  std::vector<float> relevance(n);
  std::vector<std::uint32_t> query_ids(n);
  std::vector<std::int32_t> grade_signal(n);

  std::size_t row = 0;
  std::vector<float> query_center(static_cast<std::size_t>(informative));
  std::vector<double> utility;
  for (std::size_t q = 0; q < spec.n_queries; ++q) {
    for (float& v : query_center) v = rng.normal_f();
    const std::size_t q_begin = row;
    utility.assign(static_cast<std::size_t>(docs[q]), 0.0);
    for (int doc = 0; doc < docs[q]; ++doc, ++row) {
      auto r = d.x.row(row);
      double u = 0.0;
      for (std::size_t f = 0; f < spec.n_features; ++f) {
        const float base = f < static_cast<std::size_t>(informative)
                               ? query_center[f]
                               : 0.0f;
        r[f] = base + rng.normal_f();
        if (f < static_cast<std::size_t>(informative)) u += r[f] * w[f];
      }
      utility[static_cast<std::size_t>(doc)] =
          u + spec.noise_std * rng.normal();
      query_ids[row] = static_cast<std::uint32_t>(q);
    }
    // Grade assignment: scale each document's utility into 0..max_relevance
    // by its position between the query's min and max utility. A
    // single-document query gets a uniform random grade.
    double lo = utility[0], hi = utility[0];
    for (double u : utility) {
      lo = std::min(lo, u);
      hi = std::max(hi, u);
    }
    for (int doc = 0; doc < docs[q]; ++doc) {
      const std::size_t i = q_begin + static_cast<std::size_t>(doc);
      int grade;
      if (hi - lo < 1e-12) {
        grade = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(spec.max_relevance + 1)));
      } else {
        const double frac =
            (utility[static_cast<std::size_t>(doc)] - lo) / (hi - lo);
        grade = std::min(spec.max_relevance,
                         static_cast<int>(frac * (spec.max_relevance + 1)));
      }
      relevance[i] = static_cast<float>(grade);
      grade_signal[i] = grade;
    }
  }
  GBMO_CHECK(row == n);

  categorize_columns(d.x, spec.n_categorical, spec.cat_cardinality, spec.seed,
                     grade_signal);
  d.y = Labels::ranking(std::move(relevance), std::move(query_ids));
  return d;
}

}  // namespace gbmo::data
