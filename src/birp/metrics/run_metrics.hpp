// Aggregated measurements of one simulation or serving run — everything
// needed to reproduce the paper's evaluation artifacts:
//   * completion-time ECDF in units of tau     (Fig. 6a / 7a)
//   * per-slot inference loss                  (Fig. 6b / 7b)
//   * cumulative inference loss                (Fig. 6c / 7c)
//   * SLO failure rate p%                      (Fig. 5, text claims)
// plus what the benches report beside them: the serve engine's queueing
// samples (batch-formation wait, admit-to-launch), drop, guard and fault
// counters, busy time and energy. Latency samples stay raw, so every
// quantile is exact; one accumulator records one whole run.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "birp/util/ecdf.hpp"
#include "birp/util/stats.hpp"

namespace birp::metrics {

class RunMetrics {
 public:
  explicit RunMetrics(int expected_slots = 0);

  /// Records one request's completion time (in units of tau). `met_slo` is
  /// false when the request finished after its SLO or was dropped.
  void record_request(double completion_tau, bool met_slo);
  /// Records served requests in bulk (units of tau): one sample per request
  /// in every span, all of one length, appended in order to completion(),
  /// queue_wait() and admit_to_launch(); `slo_misses` of them missed their
  /// SLO. The serve engine's recording path; throws on spans of different
  /// lengths.
  void record_served(std::span<const double> completion_tau,
                     std::span<const double> queue_wait_tau,
                     std::span<const double> admit_to_launch_tau,
                     std::int64_t slo_misses);
  /// Records `count` requests that were never served (each counts as an
  /// SLO failure and contributes no completion-time sample).
  void record_dropped(std::int64_t count = 1);
  /// Records `count` requests rejected by admission-queue backpressure
  /// (birp/serve). Each counts exactly once as a drop and an SLO failure —
  /// a queue drop must never additionally be recorded through
  /// record_dropped().
  void record_queue_drop(std::int64_t count = 1);
  /// Records `count` requests terminally lost to an edge failure (orphaned
  /// with the failover retry budget exhausted, or failover disabled). Each
  /// counts exactly once as a drop and an SLO failure, like
  /// record_queue_drop().
  void record_orphan_drop(std::int64_t count = 1);
  /// Records `count` requests shed at enqueue by the deadline-aware
  /// admission controller (birp/guard). Each counts exactly once as a drop
  /// and an SLO failure, like record_queue_drop().
  void record_deadline_shed(std::int64_t count = 1);
  /// Records one slot's circuit-breaker transitions (birp/guard).
  void record_breaker_events(std::int64_t trips, std::int64_t reopens,
                             std::int64_t probes, std::int64_t recoveries);
  /// Records one slot's degradation-ladder status: how many apps are
  /// degraded and the highest active level.
  void record_degradation(int degraded_apps, int max_level);
  /// Records `count` sealed launches for one seal reason (birp/serve's
  /// SealReason index: full / timeout / exhausted / deadline / growth /
  /// utility). The metrics layer treats the reason as an opaque bucket.
  void record_batch_seals(int reason, std::int64_t count);
  /// Sets the scheduler's cumulative degraded-mode fallback count for the
  /// run (e.g. BIRP's fallback plan when the MILP returns nothing usable).
  void set_solver_fallbacks(std::int64_t count) noexcept {
    solver_fallbacks_ = count;
  }
  /// Records `count` failover re-admissions (requests moved to a surviving
  /// edge). Retries are bookkeeping, not terminal outcomes: a retried request
  /// still resolves exactly once via record_request / record_*_drop.
  void record_retries(std::int64_t count);
  /// Records one edge's liveness for one slot (per-edge downtime
  /// attribution and cluster availability).
  void record_edge_slot(int edge, bool up);

  /// Records one debounced failure event's recovery time in slots (first
  /// missed heartbeat -> declared healthy), from the control plane's health
  /// tracker. mean/max of mttr_slots() are the run's MTTR statistics.
  void record_failure_event(int mttr_slots);
  /// Records one live repartition: control-plane planning + state-handoff
  /// latency (wall clock, measurement only) and the slot demand at edges
  /// whose cell assignment changed (requests at risk during the handoff).
  void record_repartition(double latency_ms, std::int64_t requests_at_risk);

  /// Merges one edge's admission-queue depth samples (requests buffered at
  /// each admission event).
  void merge_queue_depth(const util::RunningStats& stats);

  /// Appends the realized inference loss of one slot (sum of loss_{ij} over
  /// served requests, the paper's Eq. 10 objective evaluated ex post).
  void record_slot_loss(double loss);

  /// Records one edge's accelerator busy fraction for one slot.
  void record_edge_busy(double fraction);

  /// Adds one edge-slot's energy consumption (joules).
  void record_energy(double joules);

  [[nodiscard]] const util::Ecdf& completion() const noexcept {
    return completion_;
  }
  [[nodiscard]] const std::vector<double>& slot_loss() const noexcept {
    return slot_loss_;
  }
  [[nodiscard]] std::vector<double> cumulative_loss() const;
  [[nodiscard]] double total_loss() const noexcept { return total_loss_; }

  [[nodiscard]] std::int64_t total_requests() const noexcept {
    return total_requests_;
  }
  [[nodiscard]] std::int64_t slo_failures() const noexcept {
    return slo_failures_;
  }
  [[nodiscard]] std::int64_t dropped() const noexcept { return dropped_; }
  /// Subset of dropped() rejected by admission-queue backpressure.
  [[nodiscard]] std::int64_t queue_dropped() const noexcept {
    return queue_dropped_;
  }
  /// Subset of dropped() terminally lost to edge failures.
  [[nodiscard]] std::int64_t orphan_dropped() const noexcept {
    return orphan_dropped_;
  }
  /// Subset of dropped() shed by deadline-aware admission control.
  [[nodiscard]] std::int64_t deadline_shed() const noexcept {
    return deadline_shed_;
  }
  /// Failover re-admissions performed over the run.
  [[nodiscard]] std::int64_t retries() const noexcept { return retries_; }

  /// Circuit-breaker transition totals over the run (birp/guard).
  [[nodiscard]] std::int64_t breaker_trips() const noexcept {
    return breaker_trips_;
  }
  [[nodiscard]] std::int64_t breaker_reopens() const noexcept {
    return breaker_reopens_;
  }
  [[nodiscard]] std::int64_t breaker_probes() const noexcept {
    return breaker_probes_;
  }
  [[nodiscard]] std::int64_t breaker_recoveries() const noexcept {
    return breaker_recoveries_;
  }
  /// Slots during which at least one app ran degraded (ladder level > 0).
  [[nodiscard]] std::int64_t degraded_slots() const noexcept {
    return degraded_slots_;
  }
  /// Highest degradation-ladder level observed over the run.
  [[nodiscard]] int max_degradation_level() const noexcept {
    return max_degradation_level_;
  }
  /// Scheduler degraded-mode fallback decisions over the run.
  [[nodiscard]] std::int64_t solver_fallbacks() const noexcept {
    return solver_fallbacks_;
  }

  /// Closed (recovered) failure events recorded by the control plane.
  [[nodiscard]] std::int64_t failure_events() const noexcept {
    return failure_events_;
  }
  /// Recovery-time samples, one per closed failure event (slots); mean() is
  /// the run's MTTR.
  [[nodiscard]] const util::RunningStats& mttr_slots() const noexcept {
    return mttr_slots_;
  }
  /// Live repartitions performed by the control plane.
  [[nodiscard]] std::int64_t repartitions() const noexcept {
    return repartitions_;
  }
  [[nodiscard]] const util::RunningStats& repartition_latency_ms()
      const noexcept {
    return repartition_latency_ms_;
  }
  /// Total slot demand at edges whose cell changed across all repartitions.
  [[nodiscard]] std::int64_t requests_at_risk() const noexcept {
    return requests_at_risk_;
  }

  /// Down slots recorded for `edge` (0 for edges never sampled).
  [[nodiscard]] std::int64_t downtime_slots(int edge) const noexcept;
  /// Edges with at least one liveness sample.
  [[nodiscard]] int sampled_edges() const noexcept {
    return static_cast<int>(edge_up_slots_.size());
  }
  /// Cluster availability: up edge-slots / total edge-slots * 100;
  /// 100 when no liveness was sampled (fault-free runs).
  [[nodiscard]] double availability_percent() const noexcept;

  /// Sealed launches recorded for one seal-reason bucket (0 for buckets
  /// never recorded or out of range).
  [[nodiscard]] std::int64_t batch_seals(int reason) const noexcept;
  /// Sealed launches across all seal reasons.
  [[nodiscard]] std::int64_t total_batches() const noexcept;

  /// Requests that were served AND met their SLO (goodput numerator).
  [[nodiscard]] std::int64_t slo_met_requests() const noexcept {
    return total_requests_ - slo_failures_;
  }
  /// Goodput under SLO: served-and-met requests per second of horizon —
  /// the headline serving metric (throughput x SLO attainment). 0 when the
  /// horizon is empty.
  [[nodiscard]] double goodput_under_slo(double horizon_s) const noexcept {
    return horizon_s > 0.0
               ? static_cast<double>(slo_met_requests()) / horizon_s
               : 0.0;
  }

  /// SLO failure percentage p% = failures / total * 100; 0 when empty.
  [[nodiscard]] double failure_percent() const noexcept;
  /// SLO attainment percentage = 100 - failure_percent(); 100 when empty.
  [[nodiscard]] double slo_attainment_percent() const noexcept {
    return 100.0 - failure_percent();
  }

  /// q-quantile of the served-request latency distribution (units of tau);
  /// 0 when no request was served. p50/p95/p99 = latency_quantile(.5/.95/.99).
  [[nodiscard]] double latency_quantile(double q) const;

  /// Served requests' batch-formation wait (units of tau; serve engine).
  [[nodiscard]] const util::Ecdf& queue_wait() const noexcept {
    return queue_wait_;
  }
  /// Served requests' admit-to-launch latency (units of tau; serve engine):
  /// from entering the admission queue to the batch's launch start, what
  /// BENCH_serve.json reports as p50/p99.
  [[nodiscard]] const util::Ecdf& admit_to_launch() const noexcept {
    return admit_to_launch_;
  }
  [[nodiscard]] const util::RunningStats& queue_depth() const noexcept {
    return queue_depth_;
  }

  [[nodiscard]] const util::RunningStats& edge_busy() const noexcept {
    return edge_busy_;
  }

  /// Total energy consumed across all edges and slots (joules).
  [[nodiscard]] double total_energy_j() const noexcept { return energy_j_; }

  /// Energy per served request (joules); 0 when nothing served.
  [[nodiscard]] double energy_per_request_j() const noexcept {
    const auto served = total_requests_ - dropped_;
    return served > 0 ? energy_j_ / static_cast<double>(served) : 0.0;
  }

 private:
  util::Ecdf completion_;
  util::Ecdf queue_wait_;
  util::Ecdf admit_to_launch_;
  std::vector<double> slot_loss_;
  double total_loss_ = 0.0;
  std::int64_t total_requests_ = 0;
  std::int64_t slo_failures_ = 0;
  std::int64_t dropped_ = 0;
  std::int64_t queue_dropped_ = 0;
  std::int64_t orphan_dropped_ = 0;
  std::int64_t deadline_shed_ = 0;
  std::int64_t retries_ = 0;
  std::int64_t breaker_trips_ = 0;
  std::int64_t breaker_reopens_ = 0;
  std::int64_t breaker_probes_ = 0;
  std::int64_t breaker_recoveries_ = 0;
  std::int64_t degraded_slots_ = 0;
  int max_degradation_level_ = 0;
  std::int64_t solver_fallbacks_ = 0;
  std::int64_t failure_events_ = 0;
  util::RunningStats mttr_slots_;
  std::int64_t repartitions_ = 0;
  util::RunningStats repartition_latency_ms_;
  std::int64_t requests_at_risk_ = 0;
  /// Per-reason sealed-launch counts; grown on first out-of-range reason.
  std::vector<std::int64_t> batch_seals_;
  /// Per-edge (up, down) slot counts; grown on first sample of each edge.
  std::vector<std::int64_t> edge_up_slots_;
  std::vector<std::int64_t> edge_down_slots_;
  util::RunningStats edge_busy_;
  util::RunningStats queue_depth_;
  double energy_j_ = 0.0;
};

}  // namespace birp::metrics
