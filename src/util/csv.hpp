#pragma once
/// \file csv.hpp
/// Minimal CSV writer used by experiment harnesses to dump raw series
/// (figure data) next to the printed summary tables.

#include <fstream>
#include <string>
#include <vector>

namespace ssamr {

/// Streams rows to a CSV file.  Fields containing commas or quotes are
/// escaped per RFC 4180.
class CsvWriter {
 public:
  /// Open (truncate) the file and write the header row; throws
  /// ssamr::Error naming `path` when the file cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Append one data row; must match the header arity.
  void add_row(const std::vector<std::string>& row);

 private:
  void write_row(const std::vector<std::string>& row);
  std::ofstream out_;
  std::size_t arity_;
};

/// Escape a single CSV field.
std::string csv_escape(const std::string& field);

}  // namespace ssamr
