// The runtime-independent half of one BIRP slot, shared by sim::Simulator
// and serve::ServeEngine.
//
// Every slot decides from demand and liveness, executes the merged batches
// and feeds the Eq. 1 TIR observations back to the scheduler. Only the
// execute half differs between the runtimes (fluid per-slot batches in the
// simulator, request-level admission and batching in the engine); the
// SlotDriver owns everything around it:
//
//   begin_slot       horizon check; liveness, bandwidth and straggler
//                    factors from the FaultPlan; failover re-admissions
//                    (steered around the guard's avoid mask when hints are
//                    given)
//   decide           scheduler.decide, then validate_and_repair
//   resolve_orphans  per-(app, origin) orphan counts -> retries and
//                    terminal drops
//   end_slot         per-edge liveness, busy and energy samples, slot loss,
//                    observe, previous decision, advance
//   finish           horizon flush: pending re-admissions become terminal
//                    drops; the scheduler's fallback count
//
// The runtime decides how demand and re-admissions enter the slot and adds
// every slot_loss term itself, in its own order: the order of floating-point
// additions is part of each runtime's pinned digests. An empty FaultPlan
// runs no fault branch: SlotState.edge_up stays empty, every edge is up and
// every factor is 1.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "birp/device/cluster.hpp"
#include "birp/fault/failover.hpp"
#include "birp/fault/fault_plan.hpp"
#include "birp/metrics/run_metrics.hpp"
#include "birp/sim/decision.hpp"
#include "birp/sim/scheduler.hpp"
#include "birp/sim/validate.hpp"
#include "birp/util/grid.hpp"
#include "birp/workload/trace.hpp"

namespace birp::sim {

/// What one slot produced, in the fields both runtimes report. The driver
/// fills decision, repairs, the feedback frame, orphaned and retried (plus
/// the orphans' SLO failures); the runtime's execute half fills the rest.
struct SlotOutcome {
  SlotDecision decision;  ///< post-repair decision that executed
  ValidationReport repairs;
  SlotFeedback feedback;
  double slot_loss = 0.0;
  std::int64_t slo_failures = 0;
  std::int64_t served = 0;
  std::int64_t orphaned = 0;  ///< terminal losses to edge failures
  std::int64_t retried = 0;   ///< orphans queued for re-admission
};

class SlotDriver {
 public:
  /// Drives `trace.slots()` slots; the trace must match the cluster's apps
  /// and devices.
  SlotDriver(const device::ClusterSpec& cluster, const workload::Trace& trace,
             fault::FaultPlan plan, const fault::FailoverConfig& failover);

  /// Starts the current slot: resolves this slot's fault picture and
  /// failover re-admissions, and returns the scheduler's state with slot,
  /// liveness, hints and the previous decision set and demand zeroed
  /// (apps x devices) for the runtime to fill. The driver owns the state
  /// and reuses it every slot.
  SlotState& begin_slot(const SchedulerHints* hints = nullptr);

  /// This slot's failover re-admissions per (app, edge), to be added to
  /// demand; null when none can occur (no fault plan or failover disabled).
  [[nodiscard]] const util::Grid2<std::int64_t>* readmissions() const noexcept {
    return readmit_;
  }

  /// Asks `scheduler` for a decision on `state` and repairs it into
  /// result.decision / result.repairs; sizes result.feedback for the slot.
  void decide(Scheduler& scheduler, const SlotState& state,
              SlotOutcome& result) const;

  [[nodiscard]] bool have_faults() const noexcept { return !plan_.empty(); }
  [[nodiscard]] bool is_up(int edge) const noexcept {
    return up_.empty() || up_[static_cast<std::size_t>(edge)] != 0;
  }
  /// Multiplier on edge's wireless bandwidth this slot.
  [[nodiscard]] double bandwidth_scale(int edge) const noexcept {
    return bandwidth_.empty() ? 1.0 : bandwidth_[static_cast<std::size_t>(edge)];
  }
  /// Multiplier on edge's launch durations this slot.
  [[nodiscard]] double straggler_scale(int edge) const noexcept {
    return straggler_.empty() ? 1.0 : straggler_[static_cast<std::size_t>(edge)];
  }

  /// Hands this slot's orphans, counted per (app, origin edge), to the
  /// failover policy in app-major order (the order its backoff jitter is
  /// drawn in). Adds the retries and terminal drops to `result` (each drop
  /// is an SLO failure) and to `metrics`; returns the terminal drops per
  /// cell, valid until the next call. The runtime charges their loss.
  const util::Grid2<std::int64_t>& resolve_orphans(
      const util::Grid2<std::int64_t>& orphans, SlotOutcome& result,
      metrics::RunMetrics* metrics);

  /// Closes the slot: records each edge's liveness, each live edge's busy
  /// fraction and energy (from result.feedback.busy_s) and
  /// result.slot_loss, feeds result.feedback to the scheduler, keeps the
  /// decision as the next slot's previous one and advances.
  void end_slot(Scheduler& scheduler, const SlotOutcome& result,
                metrics::RunMetrics* metrics);

  /// Horizon flush: orphans still awaiting re-admission are terminal drops,
  /// and the scheduler's fallback count lands in `metrics`.
  void finish(const Scheduler& scheduler, metrics::RunMetrics& metrics);

  /// Slots executed so far.
  [[nodiscard]] int slot() const noexcept { return slot_; }

 private:
  const device::ClusterSpec& cluster_;
  int horizon_ = 0;
  fault::FaultPlan plan_;
  fault::FailoverPolicy failover_;
  int slot_ = 0;
  std::optional<SlotDecision> previous_;
  SlotState state_;
  /// This slot's fault picture; all empty without a plan.
  std::vector<std::uint8_t> up_;
  std::vector<double> bandwidth_;
  std::vector<double> straggler_;
  const util::Grid2<std::int64_t>* readmit_ = nullptr;
  util::Grid2<std::int64_t> orphan_drops_;
};

}  // namespace birp::sim
