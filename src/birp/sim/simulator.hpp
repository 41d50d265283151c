// Time-slotted edge-collaboration simulator.
//
// The execute half of a slot on merged per-slot batches; the shared half
// (liveness and fault factors, failover re-admission, decide + repair,
// orphan resolution, observe, the horizon flush) is sim::SlotDriver's. Per
// slot: demand is the trace plus carryover plus re-admissions, then every
// live edge executes its batch jobs and the scheduler drops are charged.
// Edges run side by side in simulated time (each has its own accelerator
// cursor inside the slot), so the host executes them one after another in
// edge order on the calling thread. Execution follows the launch model in
// sim/launch.hpp: ground-truth TIR curves with multiplicative lognormal
// noise — the stand-in for real accelerator nondeterminism.
//
// Determinism: all noise derives from per-(slot, edge) RNG streams, so an
// edge's results never depend on the other edges.
#pragma once

#include <cstdint>
#include <vector>

#include "birp/device/cluster.hpp"
#include "birp/fault/failover.hpp"
#include "birp/fault/fault_plan.hpp"
#include "birp/metrics/run_metrics.hpp"
#include "birp/sim/scheduler.hpp"
#include "birp/sim/slot_driver.hpp"
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
struct SlotResult : SlotOutcome {
  std::int64_t dropped = 0;  ///< scheduler drops charged this slot
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
  [[nodiscard]] int current_slot() const noexcept { return driver_.slot(); }

  [[nodiscard]] const device::ClusterSpec& cluster() const noexcept {
    return cluster_;
  }

 private:
  /// Executes live edge k's share of result.decision: records its served
  /// requests, TIR observations and busy time in `result` (and `metrics`)
  /// and returns the loss of the requests it served. `lost_imports` (per
  /// app; empty = none) are imports whose origin edge is down this slot:
  /// they never arrive, so the batch slots they were meant to fill stay
  /// empty and no transfer time is billed for them.
  double execute_edge(int k, const std::vector<std::int64_t>& lost_imports,
                      SlotResult& result, metrics::RunMetrics* metrics) const;

  const device::ClusterSpec& cluster_;
  const workload::Trace& trace_;
  SimulatorConfig config_;
  SlotDriver driver_;
  /// Requests deferred from the previous slot (carryover mode): these fail
  /// for good if unserved again.
  util::Grid2<std::int64_t> carried_;
};

}  // namespace birp::sim
