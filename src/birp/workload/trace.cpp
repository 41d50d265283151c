#include "birp/workload/trace.hpp"

#include <ostream>

#include "birp/util/check.hpp"
#include "birp/util/csv.hpp"

namespace birp::workload {

Trace::Trace(int slots, int apps, int devices)
    : slots_(slots), apps_(apps), devices_(devices) {
  util::check(slots > 0 && apps > 0 && devices > 0, "Trace: bad dimensions");
  data_.assign(static_cast<std::size_t>(slots) * static_cast<std::size_t>(apps) *
                   static_cast<std::size_t>(devices),
               0);
}

std::size_t Trace::index(int slot, int app, int device) const {
  util::check(slot >= 0 && slot < slots_, "Trace: bad slot");
  util::check(app >= 0 && app < apps_, "Trace: bad app");
  util::check(device >= 0 && device < devices_, "Trace: bad device");
  return (static_cast<std::size_t>(slot) * static_cast<std::size_t>(apps_) +
          static_cast<std::size_t>(app)) *
             static_cast<std::size_t>(devices_) +
         static_cast<std::size_t>(device);
}

std::int64_t Trace::at(int slot, int app, int device) const {
  return data_[index(slot, app, device)];
}

void Trace::set(int slot, int app, int device, std::int64_t requests) {
  util::check(requests >= 0, "Trace: negative request count");
  auto& cell = data_[index(slot, app, device)];
  total_ += requests - cell;
  cell = requests;
}

std::int64_t Trace::slot_total(int slot) const {
  std::int64_t sum = 0;
  for (int i = 0; i < apps_; ++i) {
    for (int k = 0; k < devices_; ++k) sum += at(slot, i, k);
  }
  return sum;
}

std::vector<std::int64_t> Trace::edge_totals(int slot) const {
  std::vector<std::int64_t> totals(static_cast<std::size_t>(devices_), 0);
  for (int i = 0; i < apps_; ++i) {
    for (int k = 0; k < devices_; ++k) {
      totals[static_cast<std::size_t>(k)] += at(slot, i, k);
    }
  }
  return totals;
}

void Trace::write_csv(std::ostream& out) const {
  util::CsvWriter writer(out);
  writer.row({"slots", "apps", "devices"});
  writer.numeric_row({static_cast<double>(slots_), static_cast<double>(apps_),
                      static_cast<double>(devices_)});
  writer.row({"slot", "app", "device", "requests"});
  for (int t = 0; t < slots_; ++t) {
    for (int i = 0; i < apps_; ++i) {
      for (int k = 0; k < devices_; ++k) {
        const auto r = at(t, i, k);
        if (r == 0) continue;
        writer.numeric_row({static_cast<double>(t), static_cast<double>(i),
                            static_cast<double>(k), static_cast<double>(r)});
      }
    }
  }
}

Trace Trace::read_csv(const std::string& text) {
  const auto rows = util::parse_csv(text);
  util::check(rows.size() >= 3, "Trace::read_csv: truncated document");
  util::check(rows[1].size() == 3, "Trace::read_csv: bad dimension row");
  constexpr const char* kWhat = "Trace::read_csv";
  Trace trace(util::parse_int(rows[1][0], kWhat),
              util::parse_int(rows[1][1], kWhat),
              util::parse_int(rows[1][2], kWhat));
  for (std::size_t r = 3; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() == 1 && row[0].empty()) continue;  // trailing blank line
    util::check(row.size() == 4, "Trace::read_csv: bad data row");
    trace.set(util::parse_int(row[0], kWhat), util::parse_int(row[1], kWhat),
              util::parse_int(row[2], kWhat), util::parse_int64(row[3], kWhat));
  }
  return trace;
}

}  // namespace birp::workload
