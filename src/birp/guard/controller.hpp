// GuardController: the per-run overload-protection state machine threaded
// through the serving runtime.
//
// Slot lifecycle, mirroring ServeEngine::step:
//
//   begin_slot(t)  -> SchedulerHints  (breaker avoid mask + ladder caps,
//                     handed to the scheduler and to failover re-admission)
//   admit(...)     -> called from the per-edge execution paths (const and
//                     thread-safe: reads only immutable tables) to decide
//                     whether a request enters the admission queue or is
//                     shed at its deadline.
//   end_slot(...)  -> fed the slot's per-(app, edge) serving outcomes and
//                     per-app shed totals; advances every breaker and the
//                     degradation ladder, returns the transition counts for
//                     metrics.
//
// Determinism: the controller draws no randomness; its state is a pure
// function of the (deterministic) outcome stream, so runs are bit-identical
// across thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "birp/device/cluster.hpp"
#include "birp/guard/breaker.hpp"
#include "birp/guard/config.hpp"
#include "birp/sim/scheduler.hpp"
#include "birp/util/grid.hpp"

namespace birp::guard {

class GuardController {
 public:
  /// The admission formula's believed batch latencies come from the
  /// cluster's exact gamma table (an oracle admission controller).
  GuardController(const device::ClusterSpec& cluster,
                  const GuardConfig& config);

  [[nodiscard]] const GuardConfig& config() const noexcept { return config_; }

  /// Slot start: rebuilds and returns the scheduler hints reflecting the
  /// current breaker states and ladder levels. Valid until the next call.
  const sim::SchedulerHints& begin_slot(int slot);

  /// Deadline-aware admission verdict for a request of app `app` about to
  /// enter edge `edge`'s queue, to be served by deployment (variant,
  /// kernel) with `buffered` requests of the app already waiting ahead of
  /// it. `arrival_s` is when the request entered the system (SLO clock
  /// start), `available_s` when it becomes executable at this edge (after
  /// any transfer), and `accel_free_s` when the edge's accelerator finishes
  /// the launches already dispatched ahead of it (the execution backlog).
  /// Returns false when the predicted sojourn
  ///
  ///   max(accel_free, available)
  ///     + (buffered / b + 1) * gamma * (1 + c * (b - 1)) - arrival
  ///
  /// already exceeds slack * slo_budget. Always true when admission is off.
  [[nodiscard]] bool admit(int edge, int app, int variant, int kernel,
                           double arrival_s, double available_s,
                           double accel_free_s, std::int64_t buffered) const;

  /// Serving-path outcomes of one (app, edge) cell in the ending slot.
  struct CellStats {
    std::int64_t total = 0;   ///< requests that reached a serving verdict
    std::int64_t failed = 0;  ///< of which missed their SLO (or were shed)
  };

  /// Slot-boundary bookkeeping returned for metrics.
  struct SlotSummary {
    std::int64_t trips = 0;       ///< closed -> open transitions
    std::int64_t reopens = 0;     ///< half-open -> open
    std::int64_t probes = 0;      ///< open -> half-open
    std::int64_t recoveries = 0;  ///< half-open -> closed
    int degraded_apps = 0;        ///< apps with ladder level > 0 after update
    int max_level = 0;            ///< highest ladder level after update
  };

  /// Slot end: feeds outcomes into the breakers and stress signals into the
  /// ladder. `cells` is (apps x devices); `app_demand` is the slot's total
  /// per-app demand and `app_shed` its per-app deadline-shed count.
  SlotSummary end_slot(const util::Grid2<CellStats>& cells,
                       const std::vector<std::int64_t>& app_demand,
                       const std::vector<std::int64_t>& app_shed);

  // ---- Introspection (tests / demos). ----
  [[nodiscard]] BreakerState breaker_state(int app, int edge) const;
  [[nodiscard]] int degradation_level(int app) const;
  [[nodiscard]] const sim::SchedulerHints& hints() const noexcept {
    return hints_;
  }

 private:
  [[nodiscard]] std::size_t cell(int app, int edge) const {
    return static_cast<std::size_t>(app) * static_cast<std::size_t>(devices_) +
           static_cast<std::size_t>(edge);
  }
  [[nodiscard]] std::size_t gamma_index(int edge, int app, int variant) const {
    return (static_cast<std::size_t>(edge) * static_cast<std::size_t>(apps_) +
            static_cast<std::size_t>(app)) *
               static_cast<std::size_t>(max_variants_) +
           static_cast<std::size_t>(variant);
  }
  void rebuild_hints();

  GuardConfig config_;
  int apps_ = 0;
  int devices_ = 0;
  int max_variants_ = 0;
  std::vector<double> gamma_s_;         ///< believed gamma per (k, i, j)
  std::vector<double> slo_s_;           ///< SLO budget per app (seconds)
  std::vector<int> num_variants_;       ///< per app
  std::vector<CircuitBreaker> breakers_;  ///< per (app, edge)
  std::vector<int> level_;              ///< ladder level per app
  std::vector<int> calm_slots_;         ///< consecutive calm slots per app
  sim::SchedulerHints hints_;
};

}  // namespace birp::guard
