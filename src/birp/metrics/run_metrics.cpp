#include "birp/metrics/run_metrics.hpp"

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
                               std::span<const double> admit_to_launch_tau,
                               std::int64_t slo_misses) {
  util::check(queue_wait_tau.size() == completion_tau.size() &&
                  admit_to_launch_tau.size() == completion_tau.size(),
              "record_served: sample spans differ in length");
  completion_.add_all(completion_tau);
  queue_wait_.add_all(queue_wait_tau);
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

void RunMetrics::record_orphan_drop(std::int64_t count) {
  total_requests_ += count;
  slo_failures_ += count;
  dropped_ += count;
  orphan_dropped_ += count;
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

void RunMetrics::merge_queue_depth(const util::RunningStats& stats) {
  queue_depth_.merge(stats);
}

double RunMetrics::latency_quantile(double q) const {
  return completion_.empty() ? 0.0 : completion_.quantile(q);
}

void RunMetrics::record_slot_loss(double loss) {
  slot_loss_.push_back(loss);
  total_loss_ += loss;
}

void RunMetrics::record_edge_busy(double fraction) {
  edge_busy_.add(fraction);
}

void RunMetrics::record_energy(double joules) { energy_j_ += joules; }

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
