#include "birp/metrics/run_metrics.hpp"

#include <algorithm>

#include "birp/util/check.hpp"

namespace birp::metrics {

RunMetrics::RunMetrics(int expected_slots) {
  if (expected_slots > 0) {
    slot_loss_.reserve(static_cast<std::size_t>(expected_slots));
  }
}

void RunMetrics::record_request(double completion_tau, bool met_slo) {
  completion_.add(completion_tau);
  ++total_requests_;
  if (!met_slo) ++slo_failures_;
}

void RunMetrics::record_served(std::span<const double> completion_tau,
                               std::span<const double> queue_wait_tau,
                               std::span<const double> dispatch_wait_tau,
                               std::span<const double> exec_tau,
                               std::span<const double> admit_to_launch_tau,
                               std::int64_t slo_misses) {
  util::check(queue_wait_tau.size() == completion_tau.size() &&
                  dispatch_wait_tau.size() == completion_tau.size() &&
                  exec_tau.size() == completion_tau.size() &&
                  admit_to_launch_tau.size() == completion_tau.size(),
              "record_served: sample spans differ in length");
  completion_.add_all(completion_tau);
  queue_wait_.add_all(queue_wait_tau);
  dispatch_wait_.add_all(dispatch_wait_tau);
  exec_latency_.add_all(exec_tau);
  admit_to_launch_.add_all(admit_to_launch_tau);
  total_requests_ += static_cast<std::int64_t>(completion_tau.size());
  slo_failures_ += slo_misses;
}

void RunMetrics::record_dropped(std::int64_t count) {
  total_requests_ += count;
  slo_failures_ += count;
  dropped_ += count;
}

void RunMetrics::record_queue_drop(std::int64_t count) {
  total_requests_ += count;
  slo_failures_ += count;
  dropped_ += count;
  queue_dropped_ += count;
}

void RunMetrics::record_orphan_drop() {
  ++total_requests_;
  ++slo_failures_;
  ++dropped_;
  ++orphan_dropped_;
}

void RunMetrics::record_deadline_shed(std::int64_t count) {
  total_requests_ += count;
  slo_failures_ += count;
  dropped_ += count;
  deadline_shed_ += count;
}

void RunMetrics::record_breaker_events(std::int64_t trips,
                                       std::int64_t reopens,
                                       std::int64_t probes,
                                       std::int64_t recoveries) {
  breaker_trips_ += trips;
  breaker_reopens_ += reopens;
  breaker_probes_ += probes;
  breaker_recoveries_ += recoveries;
}

void RunMetrics::record_degradation(int degraded_apps, int max_level) {
  if (degraded_apps > 0) ++degraded_slots_;
  if (max_level > max_degradation_level_) max_degradation_level_ = max_level;
}

void RunMetrics::record_batch_seals(int reason, std::int64_t count) {
  if (reason < 0 || count <= 0) return;
  const auto index = static_cast<std::size_t>(reason);
  if (index >= batch_seals_.size()) batch_seals_.resize(index + 1, 0);
  batch_seals_[index] += count;
}

std::int64_t RunMetrics::batch_seals(int reason) const noexcept {
  if (reason < 0 || static_cast<std::size_t>(reason) >= batch_seals_.size()) {
    return 0;
  }
  return batch_seals_[static_cast<std::size_t>(reason)];
}

std::int64_t RunMetrics::total_batches() const noexcept {
  std::int64_t total = 0;
  for (const auto count : batch_seals_) total += count;
  return total;
}

void RunMetrics::record_retries(std::int64_t count) { retries_ += count; }

void RunMetrics::record_failure_event(int mttr_slots) {
  ++failure_events_;
  mttr_slots_.add(static_cast<double>(mttr_slots));
}

void RunMetrics::record_repartition(double latency_ms,
                                    std::int64_t requests_at_risk) {
  ++repartitions_;
  repartition_latency_ms_.add(latency_ms);
  requests_at_risk_ += requests_at_risk;
}

void RunMetrics::record_edge_slot(int edge, bool up) {
  if (edge < 0) return;
  const auto index = static_cast<std::size_t>(edge);
  if (index >= edge_up_slots_.size()) {
    edge_up_slots_.resize(index + 1, 0);
    edge_down_slots_.resize(index + 1, 0);
  }
  ++(up ? edge_up_slots_ : edge_down_slots_)[index];
}

std::int64_t RunMetrics::downtime_slots(int edge) const noexcept {
  if (edge < 0 || static_cast<std::size_t>(edge) >= edge_down_slots_.size()) {
    return 0;
  }
  return edge_down_slots_[static_cast<std::size_t>(edge)];
}

double RunMetrics::availability_percent() const noexcept {
  std::int64_t up = 0;
  std::int64_t total = 0;
  for (std::size_t k = 0; k < edge_up_slots_.size(); ++k) {
    up += edge_up_slots_[k];
    total += edge_up_slots_[k] + edge_down_slots_[k];
  }
  if (total == 0) return 100.0;
  return 100.0 * static_cast<double>(up) / static_cast<double>(total);
}

void RunMetrics::record_request_waits(double queue_wait_tau,
                                      double dispatch_wait_tau,
                                      double exec_tau) {
  queue_wait_.add(queue_wait_tau);
  dispatch_wait_.add(dispatch_wait_tau);
  exec_latency_.add(exec_tau);
}

void RunMetrics::record_admit_to_launch(double admit_to_launch_tau) {
  admit_to_launch_.add(admit_to_launch_tau);
}

void RunMetrics::record_queue_depth(double depth) { queue_depth_.add(depth); }

void RunMetrics::merge_queue_depth(const util::RunningStats& stats) {
  queue_depth_.merge(stats);
}

double RunMetrics::latency_quantile(double q) const {
  return completion_.empty() ? 0.0 : completion_.quantile(q);
}

std::vector<double> RunMetrics::latency_quantiles(
    std::span<const double> qs) const {
  std::vector<double> result;
  result.reserve(qs.size());
  // Ecdf::quantile sorts once and reads in place afterwards, so the batch
  // form is one sort for the whole report row.
  for (const double q : qs) result.push_back(latency_quantile(q));
  return result;
}

void RunMetrics::record_slot_loss(double loss) {
  slot_loss_.push_back(loss);
  total_loss_ += loss;
}

void RunMetrics::record_edge_busy(double fraction) {
  edge_busy_.add(fraction);
}

void RunMetrics::record_energy(double joules) { energy_j_ += joules; }

void RunMetrics::merge(const RunMetrics& other) {
  completion_.merge(other.completion_);
  queue_wait_.merge(other.queue_wait_);
  dispatch_wait_.merge(other.dispatch_wait_);
  exec_latency_.merge(other.exec_latency_);
  admit_to_launch_.merge(other.admit_to_launch_);

  if (slot_loss_.size() < other.slot_loss_.size()) {
    slot_loss_.resize(other.slot_loss_.size(), 0.0);
  }
  for (std::size_t t = 0; t < other.slot_loss_.size(); ++t) {
    slot_loss_[t] += other.slot_loss_[t];
  }
  total_loss_ += other.total_loss_;

  total_requests_ += other.total_requests_;
  slo_failures_ += other.slo_failures_;
  dropped_ += other.dropped_;
  queue_dropped_ += other.queue_dropped_;
  orphan_dropped_ += other.orphan_dropped_;
  deadline_shed_ += other.deadline_shed_;
  retries_ += other.retries_;
  breaker_trips_ += other.breaker_trips_;
  breaker_reopens_ += other.breaker_reopens_;
  breaker_probes_ += other.breaker_probes_;
  breaker_recoveries_ += other.breaker_recoveries_;
  degraded_slots_ += other.degraded_slots_;
  max_degradation_level_ =
      std::max(max_degradation_level_, other.max_degradation_level_);
  solver_fallbacks_ += other.solver_fallbacks_;
  failure_events_ += other.failure_events_;
  mttr_slots_.merge(other.mttr_slots_);
  repartitions_ += other.repartitions_;
  repartition_latency_ms_.merge(other.repartition_latency_ms_);
  requests_at_risk_ += other.requests_at_risk_;

  if (batch_seals_.size() < other.batch_seals_.size()) {
    batch_seals_.resize(other.batch_seals_.size(), 0);
  }
  for (std::size_t r = 0; r < other.batch_seals_.size(); ++r) {
    batch_seals_[r] += other.batch_seals_[r];
  }

  if (edge_up_slots_.size() < other.edge_up_slots_.size()) {
    edge_up_slots_.resize(other.edge_up_slots_.size(), 0);
    edge_down_slots_.resize(other.edge_down_slots_.size(), 0);
  }
  for (std::size_t k = 0; k < other.edge_up_slots_.size(); ++k) {
    edge_up_slots_[k] += other.edge_up_slots_[k];
    edge_down_slots_[k] += other.edge_down_slots_[k];
  }

  edge_busy_.merge(other.edge_busy_);
  queue_depth_.merge(other.queue_depth_);
  energy_j_ += other.energy_j_;
}

std::vector<double> RunMetrics::cumulative_loss() const {
  std::vector<double> cumulative;
  cumulative.reserve(slot_loss_.size());
  double running = 0.0;
  for (const double loss : slot_loss_) {
    running += loss;
    cumulative.push_back(running);
  }
  return cumulative;
}

double RunMetrics::failure_percent() const noexcept {
  if (total_requests_ == 0) return 0.0;
  return 100.0 * static_cast<double>(slo_failures_) /
         static_cast<double>(total_requests_);
}

}  // namespace birp::metrics
