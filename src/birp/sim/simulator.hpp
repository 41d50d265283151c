// Time-slotted edge-collaboration simulator.
//
// Per slot: read demand from the trace, ask the scheduler for a decision,
// validate/repair it, execute every live edge's batch jobs, and feed TIR
// observations back to the scheduler. Edges run side by side in simulated
// time (each has its own accelerator cursor inside the slot), so the host
// executes them one after another in edge order on the calling thread.
// Execution follows the launch model in sim/launch.hpp: ground-truth TIR
// curves with multiplicative lognormal noise — the stand-in for real
// accelerator nondeterminism.
//
// Determinism: all noise derives from per-(slot, edge) RNG streams, so an
// edge's results never depend on the other edges.
#pragma once

#include <cstdint>
#include <optional>

#include "birp/device/cluster.hpp"
#include "birp/fault/failover.hpp"
#include "birp/fault/fault_plan.hpp"
#include "birp/metrics/run_metrics.hpp"
#include "birp/sim/decision.hpp"
#include "birp/sim/scheduler.hpp"
#include "birp/sim/validate.hpp"
#include "birp/workload/trace.hpp"

namespace birp::sim {

struct SimulatorConfig {
  /// Lognormal sigma applied to every batch execution time.
  double noise_sigma = 0.04;
  std::uint64_t seed = 0x51beef;
  /// When false the per-batch TIR observations are not reported (isolates
  /// the value of feedback in ablations).
  bool report_observations = true;
  /// Carryover mode (extension beyond the paper's slot-decoupled model):
  /// requests a slot could not serve re-enter the next slot's demand once
  /// instead of failing immediately. A request that cannot be served in its
  /// second slot fails for good. Default off (paper semantics).
  bool carryover_unserved = false;
  /// Fault injection (extension beyond the paper's always-up cluster): timed
  /// edge outages, bandwidth degradation, and straggler episodes. An empty
  /// plan leaves every code path bit-identical to the fault-free simulator.
  fault::FaultPlan fault_plan;
  /// What happens to requests orphaned by an edge failure: terminal drops
  /// (disabled, the default) or re-admission at surviving edges next slot.
  fault::FailoverConfig failover;
};

/// Outcome of one slot, exposed for tests and fine-grained experiments.
struct SlotResult {
  SlotDecision decision;           ///< post-repair decision that executed
  ValidationReport repairs;
  SlotFeedback feedback;
  double slot_loss = 0.0;
  std::int64_t slo_failures = 0;
  std::int64_t served = 0;
  std::int64_t dropped = 0;          ///< scheduler drops charged this slot
  std::int64_t orphaned = 0;         ///< terminal losses to edge failures
  std::int64_t retried = 0;          ///< orphans re-admitted for next slot
};

class Simulator {
 public:
  Simulator(const device::ClusterSpec& cluster, const workload::Trace& trace,
            SimulatorConfig config = {});

  /// Runs the scheduler over the whole horizon (or `max_slots` if positive
  /// and smaller) and returns aggregated metrics.
  metrics::RunMetrics run(Scheduler& scheduler, int max_slots = -1);

  /// Runs a single slot against `scheduler`, advancing internal state
  /// (previous-decision tracking). Used by tests and the ablations.
  SlotResult step(Scheduler& scheduler, metrics::RunMetrics* metrics = nullptr);

  /// Flushes terminal state into `metrics`: carryover requests that never got
  /// their retry, failover orphans still awaiting re-admission (both terminal
  /// drops), and the scheduler's fallback count. run() calls this at the
  /// horizon; harnesses driving step() themselves must call it once after the
  /// last step for exact request conservation.
  void finish(Scheduler& scheduler, metrics::RunMetrics& metrics);

  /// Slots executed so far.
  [[nodiscard]] int current_slot() const noexcept { return slot_; }

  [[nodiscard]] const device::ClusterSpec& cluster() const noexcept {
    return cluster_;
  }

 private:
  /// Per-edge fault effects for one slot, resolved from the FaultPlan before
  /// execution. Defaults describe a healthy edge.
  struct EdgeFaultEffects {
    double bandwidth_factor = 1.0;
    double straggler_factor = 1.0;
    /// Imports into this edge whose origin edge is down this slot (per app):
    /// they never arrive, so the batch slots they were meant to fill stay
    /// empty and no transfer time is billed for them. Empty = none.
    std::vector<std::int64_t> lost_imports;
  };

  /// Executes live edge k's share of result.decision: records its served
  /// requests, TIR observations and busy time in `result` (and `metrics`)
  /// and returns the loss of the requests it served.
  double execute_edge(int k, int slot, const EdgeFaultEffects& faults,
                      SlotResult& result, metrics::RunMetrics* metrics) const;

  const device::ClusterSpec& cluster_;
  const workload::Trace& trace_;
  SimulatorConfig config_;
  int slot_ = 0;
  std::optional<SlotDecision> previous_;
  /// Requests deferred from the previous slot (carryover mode): these fail
  /// for good if unserved again.
  util::Grid2<std::int64_t> carried_;
  /// Re-admission of requests orphaned by edge failures.
  fault::FailoverPolicy failover_;
};

}  // namespace birp::sim
