// Dataset (de)serialization: a simple CSV format for dense data and a
// LIBSVM-style sparse text format. Both round-trip through the unit tests so
// users can bring their own data files.
//
// CSV layout: first line is a header `task,<kind>,<n_outputs>`; each data
// line is `<m feature values>,<label block>` where the label block is one
// class id (multiclass), d 0/1 indicators (multilabel) or d floats
// (multiregression).
#pragma once

#include <iosfwd>
#include <string>

#include "data/matrix.h"

namespace gbmo::data {

void write_csv(std::ostream& os, const Dataset& d);
Dataset read_csv(std::istream& is, std::size_t n_features);

void write_csv_file(const std::string& path, const Dataset& d);
Dataset read_csv_file(const std::string& path, std::size_t n_features);

// Incremental CSV reader for the out-of-core ingest path: parses the header
// eagerly, then yields bounded row chunks so the caller never holds more
// than one chunk of raw rows at a time (read_csv is a thin wrapper that
// requests one unbounded chunk). Concatenating every chunk reproduces the
// one-shot loader's Dataset exactly (regression-tested in
// tests/test_out_of_core.cpp).
class CsvChunkReader {
 public:
  // Reads and validates the header immediately; throws gbmo::Error on a
  // malformed file.
  CsvChunkReader(std::istream& is, std::size_t n_features);

  TaskKind task() const { return task_; }
  int n_outputs() const { return n_outputs_; }
  std::size_t n_features() const { return n_features_; }

  // Parses up to max_rows further data rows into a Dataset chunk (empty
  // lines are skipped and don't count). A chunk with 0 instances signals
  // end of stream.
  Dataset next_chunk(std::size_t max_rows);

  bool done() const { return done_; }
  std::size_t rows_read() const { return rows_read_; }

 private:
  std::istream* is_;
  std::size_t n_features_;
  TaskKind task_;
  int n_outputs_ = 0;
  bool done_ = false;
  std::size_t rows_read_ = 0;
};

// Streams the file through a CsvChunkReader in chunks of `chunk_rows`
// (0 = one chunk) and concatenates the chunks. Produces a Dataset identical
// to read_csv_file while bounding the parse working set.
Dataset read_csv_file_chunked(const std::string& path, std::size_t n_features,
                              std::size_t chunk_rows);

// LIBSVM-like sparse lines: `<label[,label...]> <idx>:<val> ...` with
// 0-based feature indices. Multiclass labels are single integers; multilabel
// lines list active label ids; multiregression lists d floats.
void write_libsvm(std::ostream& os, const Dataset& d);
Dataset read_libsvm(std::istream& is, std::size_t n_features, TaskKind task,
                    int n_outputs);

}  // namespace gbmo::data
