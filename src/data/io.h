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

// LIBSVM-like sparse lines: `<label[,label...]> <idx>:<val> ...` with
// 0-based feature indices. Multiclass labels are single integers; multilabel
// lines list active label ids; multiregression lists d floats.
void write_libsvm(std::ostream& os, const Dataset& d);
Dataset read_libsvm(std::istream& is, std::size_t n_features, TaskKind task,
                    int n_outputs);

}  // namespace gbmo::data
