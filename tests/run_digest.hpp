// FNV-1a over what a simulator or serving run feeds back and accounts,
// shared by the golden-run tests: per-slot feedback (busy time and every TIR
// observation) and the final RunMetrics counters and completion quantiles.
#pragma once

#include "birp/metrics/run_metrics.hpp"
#include "birp/sim/scheduler.hpp"
#include "fnv1a.hpp"

namespace birp::testutil {

inline void hash_feedback(Fnv1a& digest, const sim::SlotFeedback& feedback) {
  digest.value(feedback.slot);
  digest.range(feedback.busy_s);
  digest.value(feedback.observations.size());
  for (const auto& obs : feedback.observations) {
    digest.value(obs.device);
    digest.value(obs.app);
    digest.value(obs.variant);
    digest.value(obs.batch);
    digest.value(obs.observed_tir);
  }
}

inline void hash_metrics(Fnv1a& digest, const metrics::RunMetrics& metrics) {
  digest.value(metrics.total_requests());
  digest.value(metrics.slo_failures());
  digest.value(metrics.dropped());
  digest.value(metrics.queue_dropped());
  digest.value(metrics.orphan_dropped());
  digest.value(metrics.deadline_shed());
  digest.value(metrics.retries());
  digest.value(metrics.solver_fallbacks());
  digest.value(metrics.total_loss());
  digest.range(metrics.slot_loss());
  digest.value(metrics.total_energy_j());
  digest.value(metrics.edge_busy().count());
  digest.value(metrics.edge_busy().mean());
  digest.value(metrics.availability_percent());
  digest.value(metrics.completion().count());
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    digest.value(metrics.completion().quantile(q));
  }
}

}  // namespace birp::testutil
