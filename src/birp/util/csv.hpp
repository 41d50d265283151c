// Minimal CSV emission/parsing for experiment artifacts and trace files.
//
// Supports quoted fields with embedded commas/quotes/newlines — sufficient
// for round-tripping the workload traces and benchmark outputs this repo
// produces (not a general RFC 4180 implementation of exotic inputs).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace birp::util {

/// Streams rows of a CSV document to an std::ostream.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Writes one row; fields are quoted only when necessary.
  void row(std::initializer_list<std::string_view> fields);
  void row(const std::vector<std::string>& fields);

  /// Convenience for numeric rows: formatted with max_digits10 precision.
  void numeric_row(std::initializer_list<double> values);

 private:
  void write_field(std::string_view field, bool first);
  std::ostream* out_;
};

/// Parses a full CSV document into rows of fields. Handles quoted fields,
/// escaped quotes ("") and both \n and \r\n terminators. The final row may
/// omit the trailing newline.
[[nodiscard]] std::vector<std::vector<std::string>> parse_csv(
    std::string_view text);

/// Formats a double with enough digits to round-trip.
[[nodiscard]] std::string format_double(double value);

/// Strict numeric field parsers for the CSV readers: the whole field must be
/// one base-10 number (no whitespace, sign '+' or trailing characters) that
/// fits the result type; parse_double also rejects inf and nan. A malformed
/// field throws std::logic_error (util::fail) naming `what` and the field.
[[nodiscard]] int parse_int(std::string_view field, const char* what);
[[nodiscard]] std::int64_t parse_int64(std::string_view field,
                                       const char* what);
[[nodiscard]] double parse_double(std::string_view field, const char* what);

}  // namespace birp::util
