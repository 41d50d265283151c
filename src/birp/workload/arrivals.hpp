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

/// Expands one slot of `trace` into timestamped arrivals in cell-major
/// runs: (app, device) order, offsets ascending within a run, seq 0..n-1
/// along it. One allocation per call. `seed` selects the expansion; the
/// same (trace cell, seed) always yields the same offsets.
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
