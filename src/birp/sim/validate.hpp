// Decision validation and repair.
//
// The simulator never trusts a scheduler: before execution every decision is
// checked against the physical constraints (request conservation, memory
// capacity, network budget) and repaired into a feasible plan. Infeasible
// excess becomes dropped requests — which are charged worst-model loss and
// count as SLO failures — so no algorithm can gain by emitting impossible
// plans. The report makes repairs observable to tests and experiments.
#pragma once

#include <cstdint>

#include "birp/device/cluster.hpp"
#include "birp/sim/decision.hpp"
#include "birp/util/grid.hpp"

namespace birp::sim {

struct ValidationReport {
  std::int64_t trimmed_served = 0;    ///< served requests without a source
  std::int64_t added_drops = 0;       ///< demand left unserved -> drops
  std::int64_t cancelled_flow = 0;    ///< flow units cancelled (network budget)
  std::int64_t evicted_served = 0;    ///< served requests lost to memory evictions
  int memory_evictions = 0;           ///< deployments evicted for memory
  /// Edges still over their network budget (Eq. 9) after every flow
  /// touching them was cancelled: model-switch costs alone exceed it, and
  /// the repair never removes a deployment for the network. Not a repair,
  /// so clean() ignores it.
  int network_overruns = 0;

  /// True when the decision needed no repair beyond bookkeeping.
  [[nodiscard]] bool clean() const noexcept {
    return trimmed_served == 0 && added_drops == 0 && cancelled_flow == 0 &&
           memory_evictions == 0;
  }
};

/// Hard cap on kernel batch sizes accepted by the runtime.
inline constexpr int kMaxKernelBatch = 32;

/// Network megabytes `decision` charges to edge k (Eq. 9's left-hand side):
/// compressed weights of newly deployed variants plus per-request transfer
/// costs of flows touching k. At t = 0 (previous == nullptr) the switch term
/// is absent (P1 / Eq. 13).
[[nodiscard]] double decision_network_mb(const device::ClusterSpec& cluster,
                                         const SlotDecision& decision,
                                         const SlotDecision* previous, int k);

/// Memory megabytes `decision` consumes on edge k: resident weights plus the
/// peak in-flight activation footprint (Eq. 6 under time-sliced execution).
[[nodiscard]] double decision_memory_mb(const device::ClusterSpec& cluster,
                                        const SlotDecision& decision, int k);

/// Validates `decision` against `cluster` and `demand` (r^t_{ik}), repairing
/// in place. `previous` (may be null at t = 0) supplies the prior
/// deployment for model-switch network costs.
ValidationReport validate_and_repair(const device::ClusterSpec& cluster,
                                     const util::Grid2<std::int64_t>& demand,
                                     const SlotDecision* previous,
                                     SlotDecision& decision);

}  // namespace birp::sim
