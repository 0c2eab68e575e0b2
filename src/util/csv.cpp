#include "util/csv.hpp"

#include "util/error.hpp"

namespace ssamr {

std::string csv_escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : out_(path), arity_(header.size()) {
  SSAMR_REQUIRE(!header.empty(), "csv header must be non-empty");
  SSAMR_REQUIRE(out_.is_open(), "cannot open csv file '" + path + "'");
  write_row(header);
}

void CsvWriter::add_row(const std::vector<std::string>& row) {
  SSAMR_REQUIRE(row.size() == arity_, "csv row arity must match header");
  write_row(row);
}

void CsvWriter::write_row(const std::vector<std::string>& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i) out_ << ',';
    out_ << csv_escape(row[i]);
  }
  out_ << '\n';
}

}  // namespace ssamr
