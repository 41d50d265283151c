// Replays of one traced episode's slots through the modules' public entry
// points, one call at a time, so each layer's share of the work is timed
// alone. Replays run after the live loop, from its captures; their outputs
// must equal what the live loop produced, bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "birp/sim/decision.hpp"
#include "probe.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

[[nodiscard]] bool decisions_equal(const birp::sim::SlotDecision& a,
                                   const birp::sim::SlotDecision& b);
void digest_decision(Digest& digest, const birp::sim::SlotDecision& d);

/// paper_birp's decide, step by step: build_slot_problem, solve_milp (root
/// basis and seed candidate carried across slots as decide carries them),
/// extract_decision. Times are per slot; heuristic time is the incumbent
/// callback plus the seed repair, and milp time excludes the callback.
struct DecideReplay {
  std::vector<double> build_ms, heuristic_ms, milp_ms, extract_ms;
  std::int64_t slots = 0;
  std::int64_t mismatches = 0;  ///< slots whose decision differs from live
  std::int64_t fallbacks = 0;   ///< slots with no usable MILP solution
};

[[nodiscard]] DecideReplay replay_decide(
    const Instance& in, const std::vector<DecideCapture>& captures,
    const std::vector<birp::sim::SlotDecision>& executed);

/// validate_and_repair on each captured decision against the decision the
/// engine executed.
struct RepairReplay {
  std::vector<double> repair_ms;
  std::int64_t repaired_slots = 0;  ///< slots whose decision needed repair
  std::int64_t mismatches = 0;
};

[[nodiscard]] RepairReplay replay_repair(
    const Instance& in, const std::vector<DecideCapture>& captures,
    const std::vector<birp::sim::SlotDecision>& executed);

/// workload::slot_arrivals for every slot, checked against the trace.
struct ArrivalsReplay {
  std::vector<double> arrivals_ms;
  std::int64_t mismatches = 0;  ///< slots whose arrival count != trace cell sum
};

[[nodiscard]] ArrivalsReplay replay_arrivals(const Instance& in, int slots);

}  // namespace perfbench
