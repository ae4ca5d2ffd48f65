#include "core/model_io.h"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>

#include "common/error.h"
#include "common/parse.h"

namespace gbmo::core {

namespace {
constexpr const char* kMagic = "gbmo-model-v1";

// operator<< renders non-finite floats as "nan"/"inf"/"-inf", which
// operator>> refuses to parse back; thresholds of splits past the last cut
// are legitimately +inf, so floats and doubles go through parse_number.
template <typename T>
T read_number(std::istream& is) {
  std::string tok;
  GBMO_CHECK(static_cast<bool>(is >> tok)) << "truncated model or checkpoint";
  return parse_number<T>(tok, "model value");
}

// Appends `n` numbers read from the stream. Counts come from the file, so
// nothing is sized from them up front: a count past the end of the input
// ends in a truncation or parse error, not in an allocation the input
// cannot fill.
template <typename T>
void read_numbers(std::istream& is, std::size_t n, std::vector<T>& out) {
  for (std::size_t i = 0; i < n; ++i) out.push_back(read_number<T>(is));
}

}  // namespace

void write_model(std::ostream& os, const Model& model) {
  os << kMagic << '\n';
  os << std::setprecision(9);
  os << "task " << data::task_name(model.task) << ' ' << model.n_outputs << '\n';

  // Cut points: n_features then per feature "cuts <k> v v v ...".
  os << "features " << model.cuts.n_features() << ' ' << model.cuts.max_bins()
     << '\n';
  for (std::size_t f = 0; f < model.cuts.n_features(); ++f) {
    const auto c = model.cuts.cuts(f);
    os << "cuts " << c.size();
    for (float v : c) os << ' ' << v;
    os << '\n';
  }

  os << "trees " << model.trees.size() << '\n';
  for (const auto& tree : model.trees) {
    const auto nodes = tree.raw_nodes();
    os << "tree " << nodes.size() << ' ' << tree.all_leaf_values().size() << '\n';
    for (const auto& n : nodes) {
      // Trailing field: missing-value routing (1 = NaN goes left). Appended
      // after the v1 fields so readers of either vintage stay compatible —
      // old files simply lack it and load as default-left.
      os << "node " << n.feature << ' ' << n.split_bin << ' ' << n.threshold
         << ' ' << n.left << ' ' << n.right << ' ' << n.leaf_offset << ' '
         << n.gain << ' ' << n.n_instances << ' ' << (n.default_left ? 1 : 0)
         << '\n';
    }
    os << "leaves";
    for (float v : tree.all_leaf_values()) os << ' ' << v;
    os << '\n';
  }

  // Trailing section: categorical ordered-statistic tables. Appended after
  // the v1 body so pre-categorical readers of old files and this reader of
  // old files both keep working — a fully numeric model writes nothing here.
  if (model.has_categoricals()) {
    os << "categoricals " << model.categoricals.size() << '\n';
    for (const auto& t : model.categoricals) {
      os << "cat " << t.col << ' ' << t.prior << ' ' << t.hashes.size() << '\n';
      for (std::size_t i = 0; i < t.hashes.size(); ++i) {
        os << t.hashes[i] << ' ' << t.values[i] << '\n';
      }
    }
  }
}

Model read_model(std::istream& is) {
  std::string line;
  GBMO_CHECK(static_cast<bool>(std::getline(is, line)) && line == kMagic)
      << "not a gbmo model file";

  Model model;
  std::string tag, task_str;

  GBMO_CHECK(static_cast<bool>(is >> tag >> task_str >> model.n_outputs) &&
             tag == "task");
  GBMO_CHECK(model.n_outputs >= 1)
      << "model output count " << model.n_outputs << " is below 1";
  model.task = data::parse_task(task_str);

  std::size_t n_features = 0;
  int max_bins = 0;
  GBMO_CHECK(static_cast<bool>(is >> tag >> n_features >> max_bins) &&
             tag == "features");

  // Rebuild BinCuts through a synthetic dense matrix is lossy; instead the
  // cuts are reconstructed directly via the serialization-friendly path: a
  // one-row matrix cannot express them, so BinCuts gains no loader — we
  // rebuild by re-binning the cut values themselves, which reproduces the
  // exact cut array (bin_for/threshold_for only read that array).
  std::vector<std::vector<float>> feature_cuts;
  for (std::size_t f = 0; f < n_features; ++f) {
    std::size_t k = 0;
    GBMO_CHECK(static_cast<bool>(is >> tag >> k) && tag == "cuts");
    read_numbers(is, k, feature_cuts.emplace_back());
  }
  model.cuts = data::BinCuts::from_cut_arrays(feature_cuts, max_bins);

  std::size_t n_trees = 0;
  GBMO_CHECK(static_cast<bool>(is >> tag >> n_trees) && tag == "trees");
  for (std::size_t t = 0; t < n_trees; ++t) {
    std::size_t n_nodes = 0, n_leaf_values = 0;
    GBMO_CHECK(static_cast<bool>(is >> tag >> n_nodes >> n_leaf_values) &&
               tag == "tree");
    std::vector<TreeNode> nodes;
    for (std::size_t i = 0; i < n_nodes; ++i) {
      TreeNode& n = nodes.emplace_back();
      GBMO_CHECK(static_cast<bool>(is >> tag >> n.feature >> n.split_bin) &&
                 tag == "node");
      GBMO_CHECK(n.is_leaf() || static_cast<std::size_t>(n.feature) < n_features)
          << "split feature " << n.feature << " out of range for "
          << n_features << " features";
      n.threshold = read_number<float>(is);
      GBMO_CHECK(static_cast<bool>(is >> n.left >> n.right >> n.leaf_offset));
      n.gain = read_number<float>(is);
      GBMO_CHECK(static_cast<bool>(is >> n.n_instances));
      // Tolerant format bump: a trailing default-left flag may follow on the
      // same line; files written before the flag existed read as left (the
      // behaviour their training partition had).
      n.default_left = true;
      int c = is.peek();
      while (c == ' ' || c == '\t') {
        is.get();
        c = is.peek();
      }
      if (c >= '0' && c <= '9') {
        int flag = 1;
        GBMO_CHECK(static_cast<bool>(is >> flag));
        n.default_left = flag != 0;
      }
    }
    std::vector<float> leaf_values;
    GBMO_CHECK(static_cast<bool>(is >> tag) && tag == "leaves");
    read_numbers(is, n_leaf_values, leaf_values);
    Tree tree(model.n_outputs);
    tree.set_raw(std::move(nodes), std::move(leaf_values), model.n_outputs);
    model.trees.push_back(std::move(tree));
  }

  // Tolerant trailing section: categorical tables. Files written before the
  // section existed simply end here (EOF on the tag read), and load as a
  // fully numeric model. Inside a checkpoint the model is the final record,
  // so the same EOF probe works for embedded models too.
  if (is >> tag) {
    GBMO_CHECK(tag == "categoricals") << "unexpected trailing tag: " << tag;
    std::size_t n_tables = 0;
    GBMO_CHECK(static_cast<bool>(is >> n_tables));
    for (std::size_t c = 0; c < n_tables; ++c) {
      auto& t = model.categoricals.emplace_back();
      GBMO_CHECK(static_cast<bool>(is >> tag >> t.col) && tag == "cat");
      GBMO_CHECK(t.col >= 0 && static_cast<std::size_t>(t.col) < n_features)
          << "categorical column " << t.col << " out of range for "
          << n_features << " features";
      t.prior = read_number<float>(is);
      std::size_t k = 0;
      GBMO_CHECK(static_cast<bool>(is >> k));
      for (std::size_t i = 0; i < k; ++i) {
        GBMO_CHECK(static_cast<bool>(is >> t.hashes.emplace_back()))
            << "truncated categorical table";
        t.values.push_back(read_number<float>(is));
      }
    }
  } else {
    is.clear();  // pre-categoricals file: EOF at the probe is the old format
  }
  return model;
}

namespace {
constexpr const char* kCkptMagic = "gbmo-ckpt-v1";
}  // namespace

void write_checkpoint(std::ostream& os, const Checkpoint& ckpt) {
  os << kCkptMagic << '\n';
  os << "progress " << ckpt.trees_completed << '\n';
  os << "rng";
  for (const std::uint64_t w : ckpt.rng_state) os << ' ' << w;
  os << '\n';
  // Floats at max_digits10 = 9 round-trip exactly (same as the model
  // format); the early-stopping doubles need 17.
  os << std::setprecision(9);
  os << "scores " << ckpt.scores.size();
  for (const float v : ckpt.scores) os << ' ' << v;
  os << '\n';
  os << "earlystop " << std::setprecision(17) << ckpt.best_valid << ' '
     << ckpt.rounds_since_best << ' ' << ckpt.best_tree_count << '\n';
  os << std::setprecision(9) << "validscores " << ckpt.valid_scores.size();
  for (const float v : ckpt.valid_scores) os << ' ' << v;
  os << '\n';
  os << std::setprecision(17) << "validmetrics "
     << ckpt.valid_metric_per_tree.size();
  for (const double v : ckpt.valid_metric_per_tree) os << ' ' << v;
  os << '\n';
  os << "model\n";
  write_model(os, ckpt.model);
}

Checkpoint read_checkpoint(std::istream& is) {
  std::string line;
  GBMO_CHECK(static_cast<bool>(std::getline(is, line)) && line == kCkptMagic)
      << "not a gbmo checkpoint file";

  Checkpoint ckpt;
  std::string tag;
  GBMO_CHECK(static_cast<bool>(is >> tag >> ckpt.trees_completed) &&
             tag == "progress");
  GBMO_CHECK(static_cast<bool>(is >> tag) && tag == "rng");
  for (auto& w : ckpt.rng_state) {
    GBMO_CHECK(static_cast<bool>(is >> w)) << "truncated checkpoint file";
  }
  std::size_t n = 0;
  GBMO_CHECK(static_cast<bool>(is >> tag >> n) && tag == "scores");
  read_numbers(is, n, ckpt.scores);
  GBMO_CHECK(static_cast<bool>(is >> tag) && tag == "earlystop");
  ckpt.best_valid = read_number<double>(is);
  GBMO_CHECK(static_cast<bool>(is >> ckpt.rounds_since_best >>
                               ckpt.best_tree_count));
  GBMO_CHECK(static_cast<bool>(is >> tag >> n) && tag == "validscores");
  read_numbers(is, n, ckpt.valid_scores);
  GBMO_CHECK(static_cast<bool>(is >> tag >> n) && tag == "validmetrics");
  read_numbers(is, n, ckpt.valid_metric_per_tree);
  GBMO_CHECK(static_cast<bool>(is >> tag) && tag == "model");
  is >> std::ws;  // consume the newline before the model's magic line
  ckpt.model = read_model(is);
  GBMO_CHECK(ckpt.trees_completed ==
             static_cast<int>(ckpt.model.trees.size()))
      << "checkpoint progress disagrees with its embedded model";
  return ckpt;
}

void save_checkpoint(const std::string& path, const Checkpoint& ckpt) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    GBMO_CHECK(os.good()) << "cannot open " << tmp;
    write_checkpoint(os, ckpt);
    GBMO_CHECK(os.good()) << "failed writing " << tmp;
  }
  GBMO_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0)
      << "cannot rename " << tmp << " to " << path;
}

std::optional<Checkpoint> load_checkpoint(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) return std::nullopt;  // no checkpoint yet: fresh start
  return read_checkpoint(is);
}

void save_model(const std::string& path, const Model& model) {
  std::ofstream os(path);
  GBMO_CHECK(os.good()) << "cannot open " << path;
  write_model(os, model);
}

Model load_model(const std::string& path) {
  // Plain Errors, not GBMO_CHECKs: these are the user-facing failure modes
  // of `gbmo <cmd> --model`, and the CLI prints e.what() verbatim.
  std::ifstream is(path);
  if (!is.good()) throw Error("cannot open model file: " + path);
  try {
    return read_model(is);
  } catch (const Error& e) {
    throw Error("failed to load model from " + path + ": " + e.what());
  }
}

}  // namespace gbmo::core
