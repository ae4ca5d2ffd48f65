#include "data/io.h"

#include <algorithm>
#include <fstream>
#include <sstream>

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

// Parses one whole token of a data file; a failure names the file format,
// the 1-based line and the 1-based column (CSV cell or libsvm field).
template <typename T>
T parse_cell(const std::string& token, const char* format, std::size_t line,
             std::size_t column) {
  try {
    return parse_number<T>(token, "value");
  } catch (const Error& e) {
    throw Error(std::string(format) + " line " + std::to_string(line) +
                ", column " + std::to_string(column) + ": " + e.what());
  }
}

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
  GBMO_CHECK(header.size() == 3 && header[0] == "task") << "bad CSV header";
  const TaskKind task = parse_task(header[1]);
  const int n_outputs = parse_cell<int>(header[2], "CSV", 1, 3);
  GBMO_CHECK(n_outputs >= 1) << "CSV header has " << n_outputs << " outputs";
  const std::size_t label_cells =
      task == TaskKind::kMulticlass ? 1
      : task == TaskKind::kRanking  ? 2  // query id + relevance
                                    : static_cast<std::size_t>(n_outputs);

  std::vector<float> features;
  std::vector<std::int32_t> class_ids;
  std::vector<std::uint8_t> indicators;
  std::vector<float> targets;
  std::vector<std::uint32_t> query_ids;
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
        class_ids.push_back(parse_cell<std::int32_t>(
            cells[n_features], "CSV", line_no, n_features + 1));
        break;
      case TaskKind::kMultilabel:
        for (std::size_t c = n_features; c < cells.size(); ++c) {
          indicators.push_back(
              parse_cell<std::uint8_t>(cells[c], "CSV", line_no, c + 1));
        }
        break;
      case TaskKind::kMultiregression:
        for (std::size_t c = n_features; c < cells.size(); ++c) {
          targets.push_back(parse_cell<float>(cells[c], "CSV", line_no, c + 1));
        }
        break;
      case TaskKind::kRanking:
        query_ids.push_back(parse_cell<std::uint32_t>(
            cells[n_features], "CSV", line_no, n_features + 1));
        targets.push_back(parse_cell<float>(cells[n_features + 1], "CSV",
                                            line_no, n_features + 2));
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
      d.y = Labels::ranking(std::move(targets), std::move(query_ids));
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
  std::vector<std::uint32_t> query_ids;

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
        throw Error("libsvm line " + std::to_string(line_no) +
                    " has no label field");
      }
      label_field.clear();
      ls.clear();
      ls.seekg(0);
      column = 1;
    }
    switch (task) {
      case TaskKind::kMulticlass:
        class_ids.push_back(
            parse_cell<std::int32_t>(label_field, "libsvm", line_no, 1));
        break;
      case TaskKind::kMultilabel: {
        std::vector<std::uint8_t> ind(static_cast<std::size_t>(n_outputs), 0);
        if (!label_field.empty()) {
          for (const auto& tok : split_line(label_field, ',')) {
            if (tok.empty()) continue;
            const int k = parse_cell<int>(tok, "libsvm", line_no, 1);
            GBMO_CHECK(k >= 0 && k < n_outputs);
            ind[static_cast<std::size_t>(k)] = 1;
          }
        }
        indicators.insert(indicators.end(), ind.begin(), ind.end());
        break;
      }
      case TaskKind::kMultiregression: {
        const auto toks = split_line(label_field, ',');
        GBMO_CHECK(toks.size() == static_cast<std::size_t>(n_outputs));
        for (const auto& tok : toks) {
          targets.push_back(parse_cell<float>(tok, "libsvm", line_no, 1));
        }
        break;
      }
      case TaskKind::kRanking: {
        const auto toks = split_line(label_field, ',');
        GBMO_CHECK(toks.size() == 2) << "ranking label must be qid,rel";
        query_ids.push_back(
            parse_cell<std::uint32_t>(toks[0], "libsvm", line_no, 1));
        targets.push_back(parse_cell<float>(toks[1], "libsvm", line_no, 1));
        break;
      }
    }
    std::vector<std::pair<std::uint32_t, float>> row;
    std::string kv;
    for (; ls >> kv; ++column) {
      const auto colon = kv.find(':');
      GBMO_CHECK(colon != std::string::npos) << "bad libsvm pair: " << kv;
      const auto f = parse_cell<std::uint32_t>(kv.substr(0, colon), "libsvm",
                                               line_no, column);
      GBMO_CHECK(f < n_features) << "feature index out of range: " << f;
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
      d.y = Labels::ranking(std::move(targets), std::move(query_ids));
      break;
  }
  return d;
}

}  // namespace gbmo::data
