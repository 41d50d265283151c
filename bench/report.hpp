// The command line and the report that the gated benches share.
//
// `Flags` is the one flag parser: a bench declares the flags it takes, and an
// unknown flag, a missing value or a malformed number is an error (exit 2),
// never silently ignored. `Report` is the one record a gated bench fills: its
// run parameters, one ordered row of named values per arm, the run-level
// results and the gates. The console table, the JSON (--json PATH), the
// summary CSV (--csv PATH), the gate lines and the exit status all come from
// that record, so a bench names each metric once, where it computes it.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "birp/util/check.hpp"
#include "birp/util/csv.hpp"
#include "birp/util/table.hpp"

namespace birp::bench {

/// Declared command-line flags. Every bench takes --slots N, --target X and
/// --seed S; any other flag is taken only once the bench declares it.
/// Declarations bind to variables, the members included, so a Flags is not
/// copied.
class Flags {
 public:
  int slots;
  double target;  ///< workload intensity as a fraction of the envelope
  std::uint64_t seed = 0x77ace;
  bool quick = false;
  bool check = false;  ///< exit 1 when a gate fails
  std::string json;    ///< write the report's JSON here when set
  std::string csv;     ///< write the report's arm CSV here when set

  Flags(int default_slots, double default_target)
      : slots(default_slots), target(default_target) {
    option("--slots", slots).option("--target", target).option("--seed", seed);
  }
  /// A bench that takes only --slots, --target and --seed: parses at once.
  Flags(int argc, char** argv, int default_slots, double default_target)
      : Flags(default_slots, default_target) {
    parse_or_exit(argc, argv);
  }
  Flags(const Flags&) = delete;
  Flags& operator=(const Flags&) = delete;

  /// Declares `name` bound to `value`; a bool flag is a switch (no value).
  template <class T>
  Flags& option(std::string name, T& value) {
    flags_.push_back({std::move(name), &value});
    return *this;
  }
  /// Declares --quick, which sets `quick` and makes `quick_slots` the slot
  /// count unless --slots is given explicitly.
  Flags& with_quick(int quick_slots) {
    quick_slots_ = quick_slots;
    return option("--quick", quick);
  }

  /// Parses argv[1..argc); returns "" on success, otherwise the reason.
  [[nodiscard]] std::string parse(int argc, const char* const* argv) {
    bool slots_given = false;
    for (int a = 1; a < argc; ++a) {
      const std::string name = argv[a];
      const auto flag =
          std::find_if(flags_.begin(), flags_.end(),
                       [&](const Flag& f) { return f.name == name; });
      if (flag == flags_.end()) return "unknown flag " + name;
      if (auto* const* on = std::get_if<bool*>(&flag->value)) {
        **on = true;
        continue;
      }
      if (a + 1 >= argc) return "missing value for " + name;
      const std::string text = argv[++a];
      if (!std::visit([&](auto* value) { return read(text, *value); },
                      flag->value)) {
        return "malformed value '" + text + "' for " + name;
      }
      slots_given = slots_given || name == "--slots";
    }
    if (quick && !slots_given) slots = quick_slots_;
    return {};
  }

  /// parse(), printing the reason and the declared flags, then exiting 2 on
  /// failure.
  void parse_or_exit(int argc, char** argv) {
    const std::string error = parse(argc, argv);
    if (error.empty()) return;
    std::cerr << argv[0] << ": " << error << "\nflags:";
    for (const auto& flag : flags_) std::cerr << ' ' << flag.name;
    std::cerr << '\n';
    std::exit(2);
  }

 private:
  struct Flag {
    std::string name;
    std::variant<bool*, int*, std::int64_t*, std::uint64_t*, double*,
                 std::string*>
        value;
  };

  static bool read(const std::string& /*text*/, bool& /*on*/) { return false; }
  static bool read(const std::string& text, std::string& value) {
    value = text;
    return true;
  }
  template <class T>
  static bool read(const std::string& text, T& value) {
    std::string_view digits = text;
    int base = 10;
    if constexpr (std::is_unsigned_v<T>) {
      if (digits.starts_with("0x") || digits.starts_with("0X")) {
        digits.remove_prefix(2);
        base = 16;
      }
    }
    T parsed{};
    std::from_chars_result result;
    if constexpr (std::is_floating_point_v<T>) {
      result = std::from_chars(digits.data(), digits.data() + digits.size(),
                               parsed);
    } else {
      result = std::from_chars(digits.data(), digits.data() + digits.size(),
                               parsed, base);
    }
    if (digits.empty() || result.ec != std::errc() ||
        result.ptr != digits.data() + digits.size()) {
      return false;
    }
    value = parsed;
    return true;
  }

  std::vector<Flag> flags_;
  int quick_slots_ = 0;
};

/// One reported value: an integer, a real, a yes/no or a text. A real shows
/// `digits` decimals in the console table and round-trips in JSON and CSV.
class Value {
 public:
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Value(T v) {  // NOLINT(google-explicit-constructor)
    if constexpr (std::is_unsigned_v<T>) {
      v_ = static_cast<std::uint64_t>(v);
    } else {
      v_ = static_cast<std::int64_t>(v);
    }
  }
  Value(double v, int digits = 3) : v_(v), digits_(digits) {}  // NOLINT
  Value(bool v) : v_(v) {}                                     // NOLINT
  Value(std::string v) : v_(std::move(v)) {}                   // NOLINT
  Value(const char* v) : v_(std::string(v)) {}                 // NOLINT

  /// The value as a number (a yes/no is 1 or 0); a text is an error.
  [[nodiscard]] double number() const {
    return std::visit(
        [](const auto& v) -> double {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::string>) {
            util::fail("bench report: '" + v + "' is not a number");
          } else {
            return static_cast<double>(v);
          }
        },
        v_);
  }
  /// Console form: reals at `digits` decimals, yes/no as "yes"/"no".
  [[nodiscard]] std::string text() const {
    if (const auto* real = std::get_if<double>(&v_)) {
      return util::fixed(*real, digits_);
    }
    if (const auto* flag = std::get_if<bool>(&v_)) return *flag ? "yes" : "no";
    return exact();
  }
  /// CSV form: round-trip reals, "true"/"false", text verbatim.
  [[nodiscard]] std::string exact() const {
    return std::visit(
        [](const auto& v) -> std::string {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::string>) {
            return v;
          } else if constexpr (std::is_same_v<T, bool>) {
            return v ? "true" : "false";
          } else if constexpr (std::is_same_v<T, double>) {
            return util::format_double(v);
          } else {
            return std::to_string(v);
          }
        },
        v_);
  }
  /// JSON token: a quoted string, or a number (null when not finite).
  [[nodiscard]] std::string json() const {
    if (const auto* text = std::get_if<std::string>(&v_)) return quote(*text);
    if (const auto* real = std::get_if<double>(&v_)) {
      if (!std::isfinite(*real)) return "null";
    }
    return exact();
  }

  [[nodiscard]] static std::string quote(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + '"';
  }

 private:
  std::variant<std::int64_t, std::uint64_t, double, bool, std::string> v_;
  int digits_ = 3;
};

/// An ordered list of named values: one arm, the parameters or the results.
struct Row {
  std::vector<std::pair<std::string, Value>> values;

  Row& add(std::string key, Value value) {
    values.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  [[nodiscard]] double number(const std::string& key) const {
    for (const auto& [k, v] : values) {
      if (k == key) return v.number();
    }
    util::fail("bench report: no value named " + key);
  }
};

class Report {
 public:
  explicit Report(std::string bench) : bench_(std::move(bench)) {}

  Report& param(std::string key, Value value) {
    params_.add(std::move(key), std::move(value));
    return *this;
  }
  Report& result(std::string key, Value value) {
    results_.add(std::move(key), std::move(value));
    return *this;
  }
  /// Starts a new arm; its first value names it (see find).
  Row& arm() { return arms_.emplace_back(); }
  /// The arm whose first value reads `name`.
  [[nodiscard]] const Row& find(const std::string& name) const {
    for (const auto& row : arms_) {
      if (!row.values.empty() && row.values.front().second.exact() == name) {
        return row;
      }
    }
    util::fail("bench report: no arm named " + name);
  }

  /// A gate that holds when `value op bound`, op one of < <= == >= >.
  void gate(std::string name, double value, std::string_view op,
            double bound) {
    util::check(
        op == "<" || op == "<=" || op == "==" || op == ">=" || op == ">",
        "bench report: bad gate op");
    const bool pass = op == "<"    ? value < bound
                      : op == "<=" ? value <= bound
                      : op == "==" ? value == bound
                      : op == ">=" ? value >= bound
                                   : value > bound;
    std::ostringstream detail;
    detail << value << ' ' << op << ' ' << bound;
    gate(std::move(name), pass, detail.str());
  }
  /// A yes/no gate; `detail` says what was measured.
  void gate(std::string name, bool pass, std::string detail) {
    gates_.push_back({std::move(name), pass, std::move(detail)});
  }

  /// Prints the parameters, the arm tables (consecutive arms with the same
  /// keys share one), the results and every gate; writes the JSON and CSV
  /// files that `flags` names. Returns the exit status: 1 when a file cannot
  /// be written, or when a gate fails under --check; else 0.
  int finish(const Flags& flags, std::ostream& out = std::cout) const {
    out << bench_;
    for (const auto& [key, value] : params_.values) {
      out << ' ' << key << '=' << value.text();
    }
    out << '\n';
    for (std::size_t a = 0; a < arms_.size();) {
      std::vector<std::string> header;
      for (const auto& [key, value] : arms_[a].values) header.push_back(key);
      util::TextTable table(header);
      for (; a < arms_.size() && same_keys(arms_[a], header); ++a) {
        std::vector<std::string> cells;
        for (const auto& [key, value] : arms_[a].values) {
          cells.push_back(value.text());
        }
        table.add_row(std::move(cells));
      }
      table.print(out);
    }
    for (const auto& [key, value] : results_.values) {
      out << key << ": " << value.text() << '\n';
    }
    bool failed = false;
    for (const auto& g : gates_) {
      out << (g.pass ? "PASS " : "FAIL ") << g.name << ": " << g.detail << '\n';
      failed = failed || !g.pass;
    }
    int status = flags.check && failed ? 1 : 0;
    const auto write = [&](const std::string& path, auto&& writer) {
      if (path.empty()) return;
      std::ofstream file(path);
      writer(file);
      if (file.flush()) {
        out << "wrote " << path << '\n';
      } else {
        std::cerr << "cannot write " << path << '\n';
        status = 1;
      }
    };
    write(flags.json, [&](std::ostream& file) { write_json(file); });
    write(flags.csv, [&](std::ostream& file) { write_csv(file); });
    return status;
  }

  /// {"bench", "params", "arms", "results", "gates"}, one value a line.
  void write_json(std::ostream& out) const {
    const auto object = [&](const Row& row, const char* indent) {
      out << '{';
      for (std::size_t v = 0; v < row.values.size(); ++v) {
        out << (v > 0 ? "," : "") << '\n' << indent << "  "
            << Value::quote(row.values[v].first) << ": "
            << row.values[v].second.json();
      }
      out << '\n' << indent << '}';
    };
    out << "{\n  \"bench\": " << Value::quote(bench_) << ",\n  \"params\": ";
    object(params_, "  ");
    out << ",\n  \"arms\": [";
    for (std::size_t a = 0; a < arms_.size(); ++a) {
      out << (a > 0 ? "," : "") << "\n    ";
      object(arms_[a], "    ");
    }
    out << "\n  ],\n  \"results\": ";
    object(results_, "  ");
    out << ",\n  \"gates\": [";
    for (std::size_t g = 0; g < gates_.size(); ++g) {
      out << (g > 0 ? "," : "") << "\n    {\"name\": "
          << Value::quote(gates_[g].name)
          << ", \"pass\": " << (gates_[g].pass ? "true" : "false")
          << ", \"detail\": " << Value::quote(gates_[g].detail) << '}';
    }
    out << "\n  ]\n}\n";
  }

  /// One CSV row per arm under the first arm's keys; every arm has them.
  void write_csv(std::ostream& out) const {
    util::CsvWriter writer(out);
    for (std::size_t a = 0; a < arms_.size(); ++a) {
      std::vector<std::string> header;
      std::vector<std::string> cells;
      for (const auto& [key, value] : arms_[a].values) {
        header.push_back(key);
        cells.push_back(value.exact());
      }
      if (a == 0) writer.row(header);
      util::check(same_keys(arms_[0], header),
                  "bench report: CSV arms differ in keys");
      writer.row(cells);
    }
  }

 private:
  struct Gate {
    std::string name;
    bool pass = false;
    std::string detail;
  };

  static bool same_keys(const Row& row, const std::vector<std::string>& keys) {
    return std::equal(
        row.values.begin(), row.values.end(), keys.begin(), keys.end(),
        [](const auto& value, const std::string& key) {
          return value.first == key;
        });
  }

  std::string bench_;
  Row params_;
  std::deque<Row> arms_;
  Row results_;
  std::vector<Gate> gates_;
};

}  // namespace birp::bench
