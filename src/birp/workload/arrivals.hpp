// Per-request arrival-timestamp expansion of a slot-indexed trace.
//
// The slot trace only says "r requests of app i arrived at edge k during
// slot t"; the serving runtime (birp/serve) needs *when* inside the slot
// each request arrived. This module expands each (slot, app, device) count
// into a run of sorted uniform arrival offsets over [0, tau), drawn from a
// per-(slot, app, device) forked RNG stream so the expansion is
// deterministic and stable when other cells of the trace change. A slot is
// laid out cell-major, run after run, and never sorted slot-wide.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "birp/workload/trace.hpp"

namespace birp::workload {

/// One timestamped request arrival.
struct Arrival {
  int slot = 0;
  int app = 0;
  int device = 0;       ///< edge whose region the request arrived in
  std::int64_t seq = 0; ///< arrival index within the (slot, app, device) cell
  double offset_s = 0.0;///< arrival offset from the slot start, in [0, tau)

  friend bool operator==(const Arrival&, const Arrival&) = default;
};

/// Expands one (slot, app, device) cell into `run`: run.size() arrivals
/// drawn from the cell's own RNG stream, offsets ascending, seq 0..n-1 along
/// the run. `seed` selects the expansion; the same (cell, count, seed)
/// always yields the same run, whatever the other cells hold, so cells can
/// be expanded in any order or concurrently.
void expand_cell(int slot, int app, int device, double tau_s,
                 std::uint64_t seed, std::span<Arrival> run);

/// Expands one slot of `trace` into timestamped arrivals: expand_cell over
/// every non-empty cell, the runs laid end to end in (app, device) order.
/// One allocation per call.
[[nodiscard]] std::vector<Arrival> slot_arrivals(const Trace& trace, int slot,
                                                 double tau_s,
                                                 std::uint64_t seed);

/// Expands every slot (concatenation of slot_arrivals over the horizon).
[[nodiscard]] std::vector<Arrival> expand_arrivals(const Trace& trace,
                                                   double tau_s,
                                                   std::uint64_t seed);

/// CSV round-trip: header "slot,app,device,seq,offset_s"; one row per
/// request, in order (cell-major within each slot for expand_arrivals).
void write_arrivals_csv(std::ostream& out, const std::vector<Arrival>& arrivals);
[[nodiscard]] std::vector<Arrival> read_arrivals_csv(const std::string& text);

}  // namespace birp::workload
