// Scheduler interface: the contract between the simulator and every
// redistribution algorithm (BIRP, BIRP-OFF, OAEI, MAX, ablations).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "birp/device/cluster.hpp"
#include "birp/sim/decision.hpp"
#include "birp/util/grid.hpp"

namespace birp::sim {

/// Soft routing guidance produced by the overload-protection layer
/// (birp/guard) and offered to the scheduler alongside the slot state.
/// Unlike SlotState::edge_up (a hard liveness fact), hints are advisory:
/// schedulers are free to ignore them, and the runtime enforces nothing —
/// the guard layer simply measures the consequences.
struct SchedulerHints {
  /// avoid_import(i, k) != 0: the circuit breaker for app i at edge k is
  /// open — route redistribution traffic around it instead of importing.
  /// Empty = no avoidance.
  util::Grid2<std::uint8_t> avoid_import;
  /// Per-app inclusive cap on the usable variant index (the degradation
  /// ladder: level L forbids the L most expensive variants). Empty vector
  /// or a negative/large entry = all variants usable.
  std::vector<int> variant_cap;

  [[nodiscard]] bool empty() const noexcept {
    if (avoid_import.rows() > 0) {
      for (const auto v : avoid_import.raw()) {
        if (v != 0) return false;
      }
    }
    for (const auto cap : variant_cap) {
      if (cap >= 0) return false;
    }
    return true;
  }
};

/// Inputs visible to a scheduler at the start of slot t.
struct SlotState {
  int slot = 0;
  /// r^t_{ik}: requests of app i arriving at edge k this slot.
  util::Grid2<std::int64_t> demand;
  /// Previous slot's decision (empty tensors at t = 0): needed for the
  /// model-switch network terms (Eq. 9 / 13 / 14).
  const SlotDecision* previous = nullptr;
  /// Edge liveness observed at the slot boundary (heartbeat view): edge_up[k]
  /// == 0 means edge k is down this slot and cannot serve, import, or export.
  /// Empty means every edge is up (the fault-free default). Schedulers are
  /// free to ignore it; the runtime orphans work routed to down edges either
  /// way.
  std::vector<std::uint8_t> edge_up;
  /// Advisory overload-protection hints (null = none active this slot).
  const SchedulerHints* hints = nullptr;

  /// Hint accessors under the "null/empty means unconstrained" rule.
  [[nodiscard]] bool import_avoided(int i, int k) const noexcept {
    return hints != nullptr && hints->avoid_import.rows() > 0 &&
           hints->avoid_import(i, k) != 0;
  }
  [[nodiscard]] bool variant_allowed(int i, int j) const noexcept {
    if (hints == nullptr ||
        i >= static_cast<int>(hints->variant_cap.size())) {
      return true;
    }
    const int cap = hints->variant_cap[static_cast<std::size_t>(i)];
    return cap < 0 || j <= cap;
  }

  /// Convenience: liveness of edge k under the "empty means all up" rule.
  [[nodiscard]] bool is_up(int k) const noexcept {
    return edge_up.empty() ||
           (k >= 0 && k < static_cast<int>(edge_up.size()) &&
            edge_up[static_cast<std::size_t>(k)] != 0);
  }
  /// True when at least one edge is marked down.
  [[nodiscard]] bool any_down() const noexcept {
    for (const auto up : edge_up) {
      if (up == 0) return true;
    }
    return false;
  }
};

/// One TIR measurement the runtime produced by executing a merged batch:
/// observed_tir = b * gamma / measured_batch_time (Eq. 1 evaluated online).
struct TirObservation {
  int device = 0;
  int app = 0;
  int variant = 0;
  int batch = 0;
  double observed_tir = 1.0;
};

/// Feedback the simulator hands back after executing slot t.
struct SlotFeedback {
  int slot = 0;
  std::vector<TirObservation> observations;
  /// Accelerator busy seconds per edge this slot (capacity learning input
  /// for baselines that model serial execution).
  std::vector<double> busy_s;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Produces the slot decision. Must be deterministic given the scheduler's
  /// internal state and `state` (schedulers carry their own seeded RNGs).
  [[nodiscard]] virtual SlotDecision decide(const SlotState& state) = 0;

  /// Receives execution feedback; default no-op for offline schedulers.
  virtual void observe(const SlotFeedback& feedback) { (void)feedback; }

  /// How many slots this scheduler answered with a degraded-mode fallback
  /// decision (e.g. BIRP's fallback plan when the MILP returns nothing
  /// usable). Surfaced through RunMetrics so degraded slots are observable
  /// in reports.
  [[nodiscard]] virtual std::int64_t fallback_count() const noexcept {
    return 0;
  }
};

}  // namespace birp::sim
