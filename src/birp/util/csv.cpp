#include "birp/util/csv.hpp"

#include <charconv>
#include <cmath>
#include <type_traits>

#include "birp/util/check.hpp"

namespace birp::util {
namespace {

bool needs_quoting(std::string_view field) {
  return field.find_first_of(",\"\n\r") != std::string_view::npos;
}

template <typename T>
T parse_number(std::string_view field, const char* what, const char* kind) {
  T value{};
  const char* end = field.data() + field.size();
  const auto result = std::from_chars(field.data(), end, value);
  bool ok = result.ec == std::errc{} && result.ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    fail(std::string(what) + ": malformed " + kind + " field '" +
         std::string(field) + "'");
  }
  return value;
}

}  // namespace

void CsvWriter::write_field(std::string_view field, bool first) {
  if (!first) *out_ << ',';
  if (!needs_quoting(field)) {
    *out_ << field;
    return;
  }
  *out_ << '"';
  for (const char c : field) {
    if (c == '"') *out_ << '"';
    *out_ << c;
  }
  *out_ << '"';
}

void CsvWriter::row(std::initializer_list<std::string_view> fields) {
  bool first = true;
  for (const auto field : fields) {
    write_field(field, first);
    first = false;
  }
  *out_ << '\n';
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  bool first = true;
  for (const auto& field : fields) {
    write_field(field, first);
    first = false;
  }
  *out_ << '\n';
}

void CsvWriter::numeric_row(std::initializer_list<double> values) {
  bool first = true;
  for (const double v : values) {
    write_field(format_double(v), first);
    first = false;
  }
  *out_ << '\n';
}

std::vector<std::vector<std::string>> parse_csv(std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  const auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  const auto end_row = [&] {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        end_field();
        field_started = true;  // next field exists even if empty
        break;
      case '\r':
        break;  // swallow; \n handles the row end
      case '\n':
        end_row();
        break;
      default:
        field += c;
        field_started = true;
        break;
    }
  }
  if (field_started || !field.empty() || !row.empty()) end_row();
  return rows;
}

std::string format_double(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    return std::to_string(static_cast<long long>(value));
  }
  char buffer[64];
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, 17);
  return std::string(buffer, result.ptr);
}

int parse_int(std::string_view field, const char* what) {
  return parse_number<int>(field, what, "integer");
}

std::int64_t parse_int64(std::string_view field, const char* what) {
  return parse_number<std::int64_t>(field, what, "integer");
}

double parse_double(std::string_view field, const char* what) {
  return parse_number<double>(field, what, "numeric");
}

}  // namespace birp::util
