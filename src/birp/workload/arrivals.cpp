#include "birp/workload/arrivals.hpp"

#include <algorithm>
#include <ostream>

#include "birp/util/check.hpp"
#include "birp/util/csv.hpp"
#include "birp/util/rng.hpp"

namespace birp::workload {
namespace {

/// Mixes (slot, app, device) into one stream id; the large odd multipliers
/// keep sibling cells far apart in seed space (same recipe family as the
/// simulator's per-(slot, edge) noise streams).
std::uint64_t cell_stream(int slot, int app, int device) {
  return 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(slot) + 1) +
         0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(app) + 1) +
         0x94d049bb133111ebULL * (static_cast<std::uint64_t>(device) + 1);
}

}  // namespace

void expand_cell(int slot, int app, int device, double tau_s,
                 std::uint64_t seed, std::span<Arrival> run) {
  util::Xoshiro256StarStar rng(seed ^ cell_stream(slot, app, device));
  for (auto& a : run) {
    a = Arrival{slot, app, device, 0, rng.uniform(0.0, tau_s)};
  }
  // Records of one run differ only in their offsets until seq is assigned,
  // so ties need no tie-break.
  std::sort(run.begin(), run.end(), [](const Arrival& a, const Arrival& b) {
    return a.offset_s < b.offset_s;
  });
  for (std::size_t r = 0; r < run.size(); ++r) {
    run[r].seq = static_cast<std::int64_t>(r);
  }
}

std::vector<Arrival> slot_arrivals(const Trace& trace, int slot, double tau_s,
                                   std::uint64_t seed) {
  util::check(slot >= 0 && slot < trace.slots(), "slot_arrivals: bad slot");
  util::check(tau_s > 0.0, "slot_arrivals: tau must be positive");
  std::vector<Arrival> arrivals(
      static_cast<std::size_t>(trace.slot_total(slot)));
  std::size_t at = 0;
  for (int i = 0; i < trace.apps(); ++i) {
    for (int k = 0; k < trace.devices(); ++k) {
      const auto count = static_cast<std::size_t>(trace.at(slot, i, k));
      expand_cell(slot, i, k, tau_s, seed,
                  std::span(arrivals).subspan(at, count));
      at += count;
    }
  }
  return arrivals;
}

std::vector<Arrival> expand_arrivals(const Trace& trace, double tau_s,
                                     std::uint64_t seed) {
  std::vector<Arrival> all;
  all.reserve(static_cast<std::size_t>(trace.total()));
  for (int t = 0; t < trace.slots(); ++t) {
    auto slot = slot_arrivals(trace, t, tau_s, seed);
    all.insert(all.end(), slot.begin(), slot.end());
  }
  return all;
}

void write_arrivals_csv(std::ostream& out,
                        const std::vector<Arrival>& arrivals) {
  util::CsvWriter writer(out);
  writer.row({"slot", "app", "device", "seq", "offset_s"});
  for (const auto& a : arrivals) {
    writer.numeric_row({static_cast<double>(a.slot), static_cast<double>(a.app),
                        static_cast<double>(a.device),
                        static_cast<double>(a.seq), a.offset_s});
  }
}

std::vector<Arrival> read_arrivals_csv(const std::string& text) {
  const auto rows = util::parse_csv(text);
  util::check(!rows.empty(), "read_arrivals_csv: empty document");
  constexpr const char* kWhat = "read_arrivals_csv";
  std::vector<Arrival> arrivals;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() == 1 && row[0].empty()) continue;  // trailing blank line
    util::check(row.size() == 5, "read_arrivals_csv: bad data row");
    Arrival a;
    a.slot = util::parse_int(row[0], kWhat);
    a.app = util::parse_int(row[1], kWhat);
    a.device = util::parse_int(row[2], kWhat);
    a.seq = util::parse_int64(row[3], kWhat);
    a.offset_s = util::parse_double(row[4], kWhat);
    arrivals.push_back(a);
  }
  return arrivals;
}

}  // namespace birp::workload
