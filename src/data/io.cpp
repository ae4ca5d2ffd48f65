#include "data/io.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "common/error.h"
#include "common/parse.h"

namespace gbmo::data {

namespace {

std::vector<std::string> split_line(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::string cell;
  std::istringstream is(line);
  while (std::getline(is, cell, sep)) out.push_back(cell);
  return out;
}

// Reads the next line without its line ending, so CRLF files read like LF.
bool next_line(std::istream& is, std::string& line) {
  if (!std::getline(is, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

// Every rejection of a data file names the file format, the 1-based line
// and the 1-based column (CSV cell or whitespace-separated libsvm field).
[[noreturn]] void fail_at(const char* format, std::size_t line,
                          std::size_t column, const std::string& what) {
  throw Error(std::string(format) + " line " + std::to_string(line) +
              ", column " + std::to_string(column) + ": " + what);
}

// Parses one whole token of a data file.
template <typename T>
T parse_cell(const std::string& token, const char* format, std::size_t line,
             std::size_t column) {
  try {
    return parse_number<T>(token, "value");
  } catch (const Error& e) {
    fail_at(format, line, column, e.what());
  }
}

// A label id (a class, or one of a multilabel row's active outputs) lies in
// [0, n_outputs).
int parse_label_id(const std::string& token, int n_outputs, const char* format,
                   std::size_t line, std::size_t column) {
  const int id = parse_cell<int>(token, format, line, column);
  if (id < 0 || id >= n_outputs) {
    fail_at(format, line, column,
            "label id " + token + " is outside [0, " +
                std::to_string(n_outputs) + ")");
  }
  return id;
}

// Ranking labels: a relevance grade is >= 0, and a query's rows are
// contiguous, so a query id may not come back once another one followed it.
struct RankingLabels {
  std::vector<float> relevance;
  std::vector<std::uint32_t> query_ids;
  std::unordered_set<std::uint32_t> closed;

  void add(const std::string& qid, std::size_t qid_column,
           const std::string& rel, std::size_t rel_column, const char* format,
           std::size_t line) {
    const auto q = parse_cell<std::uint32_t>(qid, format, line, qid_column);
    if (!query_ids.empty() && query_ids.back() != q) {
      closed.insert(query_ids.back());
      if (closed.count(q) != 0) {
        fail_at(format, line, qid_column,
                "query id " + qid + " is not contiguous");
      }
    }
    const auto r = parse_cell<float>(rel, format, line, rel_column);
    if (!(r >= 0.0f)) {
      fail_at(format, line, rel_column,
              "relevance grade '" + rel + "' is not >= 0");
    }
    query_ids.push_back(q);
    relevance.push_back(r);
  }
};

}  // namespace

void write_csv(std::ostream& os, const Dataset& d) {
  os << "task," << task_name(d.task()) << ',' << d.n_outputs() << '\n';
  for (std::size_t i = 0; i < d.n_instances(); ++i) {
    const auto row = d.x.row(i);
    for (float v : row) os << v << ',';
    switch (d.task()) {
      case TaskKind::kMulticlass:
        os << d.y.class_id(i);
        break;
      case TaskKind::kMultilabel:
        for (int k = 0; k < d.n_outputs(); ++k) {
          os << static_cast<int>(d.y.target(i, k));
          if (k + 1 < d.n_outputs()) os << ',';
        }
        break;
      case TaskKind::kMultiregression:
        for (int k = 0; k < d.n_outputs(); ++k) {
          os << d.y.target(i, k);
          if (k + 1 < d.n_outputs()) os << ',';
        }
        break;
      case TaskKind::kRanking:
        // Two label cells: query id, then the relevance grade.
        os << d.y.query_ids()[i] << ',' << d.y.target(i, 0);
        break;
    }
    os << '\n';
  }
}

Dataset read_csv(std::istream& is, std::size_t n_features) {
  std::string line;
  GBMO_CHECK(next_line(is, line)) << "empty CSV";
  const auto header = split_line(line, ',');
  if (header.size() != 3 || header[0] != "task") {
    fail_at("CSV", 1, 1, "the header is not task,<task>,<outputs>");
  }
  const TaskKind task = parse_task(header[1]);
  const int n_outputs = parse_cell<int>(header[2], "CSV", 1, 3);
  if (n_outputs < 1) {
    fail_at("CSV", 1, 3, "the header has " + header[2] + " outputs");
  }
  const std::size_t label_cells =
      task == TaskKind::kMulticlass ? 1
      : task == TaskKind::kRanking  ? 2  // query id + relevance
                                    : static_cast<std::size_t>(n_outputs);

  std::vector<float> features;
  std::vector<std::int32_t> class_ids;
  std::vector<std::uint8_t> indicators;
  std::vector<float> targets;
  RankingLabels ranking;
  std::size_t n = 0;
  std::size_t line_no = 1;
  while (next_line(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto cells = split_line(line, ',');
    if (cells.size() != n_features + label_cells) {
      throw Error("CSV line " + std::to_string(line_no) + " has " +
                  std::to_string(cells.size()) + " cells, expected " +
                  std::to_string(n_features + label_cells) + " (" +
                  std::to_string(n_features) + " features + " +
                  std::to_string(label_cells) + " label cells for " +
                  task_name(task) + ")");
    }
    for (std::size_t f = 0; f < n_features; ++f) {
      features.push_back(parse_cell<float>(cells[f], "CSV", line_no, f + 1));
    }
    switch (task) {
      case TaskKind::kMulticlass:
        class_ids.push_back(parse_label_id(cells[n_features], n_outputs, "CSV",
                                           line_no, n_features + 1));
        break;
      case TaskKind::kMultilabel:
        for (std::size_t c = n_features; c < cells.size(); ++c) {
          const auto v = parse_cell<std::uint8_t>(cells[c], "CSV", line_no, c + 1);
          if (v > 1) {
            fail_at("CSV", line_no, c + 1,
                    "label indicator '" + cells[c] + "' is not 0 or 1");
          }
          indicators.push_back(v);
        }
        break;
      case TaskKind::kMultiregression:
        for (std::size_t c = n_features; c < cells.size(); ++c) {
          targets.push_back(parse_cell<float>(cells[c], "CSV", line_no, c + 1));
        }
        break;
      case TaskKind::kRanking:
        ranking.add(cells[n_features], n_features + 1, cells[n_features + 1],
                    n_features + 2, "CSV", line_no);
        break;
    }
    ++n;
  }

  Dataset d;
  d.name = "csv";
  d.x = DenseMatrix(n, n_features);
  std::copy(features.begin(), features.end(), d.x.values().begin());
  switch (task) {
    case TaskKind::kMulticlass:
      d.y = Labels::multiclass(std::move(class_ids), n_outputs);
      break;
    case TaskKind::kMultilabel:
      d.y = Labels::multilabel(std::move(indicators), n, n_outputs);
      break;
    case TaskKind::kMultiregression:
      d.y = Labels::multiregression(std::move(targets), n, n_outputs);
      break;
    case TaskKind::kRanking:
      d.y = Labels::ranking(std::move(ranking.relevance),
                            std::move(ranking.query_ids));
      break;
  }
  return d;
}

void write_csv_file(const std::string& path, const Dataset& d) {
  std::ofstream os(path);
  GBMO_CHECK(os.good()) << "cannot open " << path;
  write_csv(os, d);
}

Dataset read_csv_file(const std::string& path, std::size_t n_features) {
  std::ifstream is(path);
  GBMO_CHECK(is.good()) << "cannot open " << path;
  return read_csv(is, n_features);
}

void write_libsvm(std::ostream& os, const Dataset& d) {
  for (std::size_t i = 0; i < d.n_instances(); ++i) {
    const auto row = d.x.row(i);
    switch (d.task()) {
      case TaskKind::kMulticlass:
        os << d.y.class_id(i);
        break;
      case TaskKind::kMultilabel: {
        bool first = true;
        for (int k = 0; k < d.n_outputs(); ++k) {
          if (d.y.target(i, k) != 0.0f) {
            if (!first) os << ',';
            os << k;
            first = false;
          }
        }
        // No labels leave the label field empty, so the line starts with a
        // feature pair. With no nonzero feature either the line would be
        // blank, which read_libsvm skips: write an explicit zero instead.
        if (first && !row.empty() &&
            std::all_of(row.begin(), row.end(),
                        [](float v) { return v == 0.0f; })) {
          os << "0:0";
        }
        break;
      }
      case TaskKind::kMultiregression:
        for (int k = 0; k < d.n_outputs(); ++k) {
          if (k > 0) os << ',';
          os << d.y.target(i, k);
        }
        break;
      case TaskKind::kRanking:
        os << d.y.query_ids()[i] << ',' << d.y.target(i, 0);
        break;
    }
    for (std::size_t f = 0; f < row.size(); ++f) {
      if (row[f] != 0.0f) os << ' ' << f << ':' << row[f];
    }
    os << '\n';
  }
}

Dataset read_libsvm(std::istream& is, std::size_t n_features, TaskKind task,
                    int n_outputs) {
  std::vector<std::vector<std::pair<std::uint32_t, float>>> rows;
  std::vector<std::int32_t> class_ids;
  std::vector<std::uint8_t> indicators;
  std::vector<float> targets;
  RankingLabels ranking;

  std::string line;
  std::size_t line_no = 0;
  while (next_line(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string label_field;
    ls >> label_field;
    std::size_t column = 2;  // whitespace-separated field of the next pair
    if (label_field.find(':') != std::string::npos) {
      // write_libsvm leaves the label field of a multilabel row with no
      // active labels empty, so its first token is already a feature pair.
      if (task != TaskKind::kMultilabel) {
        fail_at("libsvm", line_no, 1, "no label field");
      }
      label_field.clear();
      ls.clear();
      ls.seekg(0);
      column = 1;
    }
    switch (task) {
      case TaskKind::kMulticlass:
        class_ids.push_back(
            parse_label_id(label_field, n_outputs, "libsvm", line_no, 1));
        break;
      case TaskKind::kMultilabel: {
        std::vector<std::uint8_t> ind(static_cast<std::size_t>(n_outputs), 0);
        if (!label_field.empty()) {
          for (const auto& tok : split_line(label_field, ',')) {
            if (tok.empty()) continue;
            ind[static_cast<std::size_t>(
                parse_label_id(tok, n_outputs, "libsvm", line_no, 1))] = 1;
          }
        }
        indicators.insert(indicators.end(), ind.begin(), ind.end());
        break;
      }
      case TaskKind::kMultiregression: {
        const auto toks = split_line(label_field, ',');
        if (toks.size() != static_cast<std::size_t>(n_outputs)) {
          fail_at("libsvm", line_no, 1,
                  "expected " + std::to_string(n_outputs) + " targets, got " +
                      std::to_string(toks.size()));
        }
        for (const auto& tok : toks) {
          targets.push_back(parse_cell<float>(tok, "libsvm", line_no, 1));
        }
        break;
      }
      case TaskKind::kRanking: {
        const auto toks = split_line(label_field, ',');
        if (toks.size() != 2) {
          fail_at("libsvm", line_no, 1,
                  "ranking label '" + label_field + "' is not qid,rel");
        }
        ranking.add(toks[0], 1, toks[1], 1, "libsvm", line_no);
        break;
      }
    }
    std::vector<std::pair<std::uint32_t, float>> row;
    std::string kv;
    for (; ls >> kv; ++column) {
      const auto colon = kv.find(':');
      if (colon == std::string::npos) {
        fail_at("libsvm", line_no, column, "'" + kv + "' is not index:value");
      }
      const auto f = parse_cell<std::uint32_t>(kv.substr(0, colon), "libsvm",
                                               line_no, column);
      if (f >= n_features) {
        fail_at("libsvm", line_no, column,
                "feature index " + std::to_string(f) + " is past the " +
                    std::to_string(n_features) + " features");
      }
      row.emplace_back(f, parse_cell<float>(kv.substr(colon + 1), "libsvm",
                                            line_no, column));
    }
    rows.push_back(std::move(row));
  }

  Dataset d;
  d.name = "libsvm";
  d.x = DenseMatrix(rows.size(), n_features);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (const auto& [f, v] : rows[i]) d.x.at(i, f) = v;
  }
  const std::size_t n = rows.size();
  switch (task) {
    case TaskKind::kMulticlass:
      d.y = Labels::multiclass(std::move(class_ids), n_outputs);
      break;
    case TaskKind::kMultilabel:
      d.y = Labels::multilabel(std::move(indicators), n, n_outputs);
      break;
    case TaskKind::kMultiregression:
      d.y = Labels::multiregression(std::move(targets), n, n_outputs);
      break;
    case TaskKind::kRanking:
      d.y = Labels::ranking(std::move(ranking.relevance),
                            std::move(ranking.query_ids));
      break;
  }
  return d;
}

}  // namespace gbmo::data
