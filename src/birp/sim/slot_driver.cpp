#include "birp/sim/slot_driver.hpp"

#include <utility>

#include "birp/util/check.hpp"

namespace birp::sim {

SlotDriver::SlotDriver(const device::ClusterSpec& cluster,
                       const workload::Trace& trace, fault::FaultPlan plan,
                       const fault::FailoverConfig& failover)
    : cluster_(cluster),
      horizon_(trace.slots()),
      plan_(std::move(plan)),
      failover_(failover, cluster.num_apps(), cluster.num_devices()),
      orphan_drops_(cluster.num_apps(), cluster.num_devices(), 0) {
  state_.demand =
      util::Grid2<std::int64_t>(cluster.num_apps(), cluster.num_devices(), 0);
  util::check(trace.apps() == cluster.num_apps(),
              "SlotDriver: trace apps != cluster apps");
  util::check(trace.devices() == cluster.num_devices(),
              "SlotDriver: trace devices != cluster devices");
}

SlotState& SlotDriver::begin_slot(const SchedulerHints* hints) {
  util::check(slot_ < horizon_, "SlotDriver: horizon exhausted");
  const int K = cluster_.num_devices();
  SlotState& state = state_;
  state.slot = slot_;
  state.demand.fill(0);
  state.previous = previous_.has_value() ? &previous_.value() : nullptr;
  state.hints = hints;
  readmit_ = nullptr;
  if (!have_faults()) return state;

  // Heartbeat view: schedulers learn the liveness mask at the slot
  // boundary. Fault-free runs keep edge_up empty (all up).
  up_ = plan_.up_mask(K, slot_);
  bandwidth_.resize(static_cast<std::size_t>(K));
  straggler_.resize(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) {
    bandwidth_[static_cast<std::size_t>(k)] = plan_.bandwidth_factor(k, slot_);
    straggler_[static_cast<std::size_t>(k)] = plan_.straggler_factor(k, slot_);
  }
  state.edge_up = up_;
  if (failover_.enabled()) {
    // Orphans whose backoff window elapsed re-enter at surviving edges,
    // routed around breaker-open (app, edge) pairs.
    readmit_ = &failover_.begin_slot(
        slot_, up_, hints != nullptr ? &hints->avoid_import : nullptr);
  }
  return state;
}

void SlotDriver::decide(Scheduler& scheduler, const SlotState& state,
                        SlotOutcome& result) const {
  result.decision = scheduler.decide(state);
  result.repairs = validate_and_repair(cluster_, state.demand, state.previous,
                                       result.decision);
  result.feedback.slot = state.slot;
  result.feedback.busy_s.assign(
      static_cast<std::size_t>(cluster_.num_devices()), 0.0);
}

const util::Grid2<std::int64_t>& SlotDriver::resolve_orphans(
    const util::Grid2<std::int64_t>& orphans, SlotOutcome& result,
    metrics::RunMetrics* metrics) {
  orphan_drops_.fill(0);
  for (int i = 0; i < cluster_.num_apps(); ++i) {
    for (int k = 0; k < cluster_.num_devices(); ++k) {
      if (orphans(i, k) == 0) continue;
      const auto outcome = failover_.on_orphans(i, k, orphans(i, k));
      orphan_drops_(i, k) = outcome.dropped;
      result.retried += outcome.retried;
      result.orphaned += outcome.dropped;
      result.slo_failures += outcome.dropped;
      if (metrics != nullptr) {
        metrics->record_retries(outcome.retried);
        metrics->record_orphan_drop(outcome.dropped);
      }
    }
  }
  return orphan_drops_;
}

void SlotDriver::end_slot(Scheduler& scheduler, const SlotOutcome& result,
                          metrics::RunMetrics* metrics) {
  if (metrics != nullptr) {
    const double tau = cluster_.tau_s();
    for (int k = 0; k < cluster_.num_devices(); ++k) {
      if (have_faults()) metrics->record_edge_slot(k, is_up(k));
      // Down edges executed nothing: no busy or energy sample.
      if (!is_up(k)) continue;
      const double busy_s = result.feedback.busy_s[static_cast<std::size_t>(k)];
      metrics->record_edge_busy(busy_s / tau);
      metrics->record_energy(cluster_.device(k).slot_energy_j(busy_s, tau));
    }
    metrics->record_slot_loss(result.slot_loss);
  }
  // Busy-time feedback always flows (capacity learning), whatever TIR
  // observations the runtime chose to report.
  scheduler.observe(result.feedback);
  previous_ = result.decision;
  ++slot_;
}

void SlotDriver::finish(const Scheduler& scheduler,
                        metrics::RunMetrics& metrics) {
  metrics.record_orphan_drop(failover_.drain_pending());
  metrics.set_solver_fallbacks(scheduler.fallback_count());
}

}  // namespace birp::sim
