// Overload-protection comparison: the request-level serving engine under
// sustained and bursty overload, with the birp/guard ladder switched on in
// stages.
//
//   ./bench_overload [--slots N] [--target X] [--seed S] [--csv PATH] [--check]
//
// Four surge scenarios reshape the same base trace (generated at the
// cluster's capacity envelope):
//
//   uniform-2x  — every cell doubled: steady 2x aggregate overload
//   hotspot     — two edges at 5x, the rest at 0.8x (~2.2x aggregate):
//                 redistribution pressure and transfer-delayed imports
//   flash-crowd — calm 0.7x baseline with a 4x surge window mid-run
//   ramp        — load climbing linearly from 0.5x to 3.5x (2x mean)
//
// Each scenario runs an accuracy-greedy router — serve every request
// locally with the most accurate variant the guard hints allow, no drop
// planning — under four guard policies. (BIRP's MILP already sheds the
// overflow as planned drops at decide time; the guard exists for runtimes
// without that foresight, where overload lands on the admission queues.)
//
//   none     — guard disabled (the pre-guard engine, bit for bit)
//   shed     — deadline-aware admission only
//   breaker  — admission + per-(app, edge) circuit breakers
//   full     — admission + breakers + the graceful-degradation ladder
//
// Headline check, applied to every scenario at >= 2x aggregate overload:
// `full` must show strictly fewer SLO failures than `none` while keeping
// goodput (requests actually served) within 5%; --check exits 1 when it
// does not. A summary CSV (scenario x policy) is written to --csv PATH;
// everything is seeded, so the same flags produce a bit-identical file.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "birp/serve/engine.hpp"
#include "birp/sim/validate.hpp"
#include "common.hpp"

namespace {

using birp::workload::Trace;

/// Accuracy-greedy router: serves every request locally with the most
/// accurate variant that fits the edge's memory and that the guard hints
/// allow. No drop planning — overload goes straight into the admission
/// queues, which is the regime the guard layer protects. Follows the
/// (advisory) degradation hints, so the ladder's variant caps actually bite.
class AccuracyGreedyScheduler : public birp::sim::Scheduler {
 public:
  explicit AccuracyGreedyScheduler(const birp::device::ClusterSpec& cluster)
      : cluster_(cluster) {}
  [[nodiscard]] std::string name() const override { return "accuracy-greedy"; }
  [[nodiscard]] birp::sim::SlotDecision decide(
      const birp::sim::SlotState& state) override {
    const int kKernel = 16;
    birp::sim::SlotDecision decision(cluster_.num_apps(),
                                     cluster_.zoo().max_variants(),
                                     cluster_.num_devices());
    for (int i = 0; i < cluster_.num_apps(); ++i) {
      for (int k = 0; k < cluster_.num_devices(); ++k) {
        const auto demand = state.demand(i, k);
        if (demand <= 0) continue;
        const int kernel = static_cast<int>(
            std::clamp<std::int64_t>(demand, 1, kKernel));
        for (int j = cluster_.zoo().num_variants(i) - 1; j >= 0; --j) {
          if (!state.variant_allowed(i, j)) continue;
          birp::sim::SlotDecision trial(cluster_.num_apps(),
                                        cluster_.zoo().max_variants(),
                                        cluster_.num_devices());
          trial.served(i, j, k) = demand;
          trial.kernel(i, j, k) = kernel;
          if (j > 0 && birp::sim::decision_memory_mb(cluster_, trial, k) >
                           cluster_.memory_mb(k)) {
            continue;  // too big to co-reside with the in-flight batch
          }
          decision.served(i, j, k) = demand;
          decision.kernel(i, j, k) = kernel;
          break;
        }
      }
    }
    return decision;
  }

 private:
  const birp::device::ClusterSpec& cluster_;
};

/// Scales `base` cell by cell: factor(t, k) applied to every app's demand.
template <typename FactorFn>
Trace scale_trace(const Trace& base, FactorFn&& factor) {
  Trace scaled(base.slots(), base.apps(), base.devices());
  for (int t = 0; t < base.slots(); ++t) {
    for (int i = 0; i < base.apps(); ++i) {
      for (int k = 0; k < base.devices(); ++k) {
        const double f = factor(t, k);
        scaled.set(t, i, k,
                   static_cast<std::int64_t>(
                       std::llround(static_cast<double>(base.at(t, i, k)) * f)));
      }
    }
  }
  return scaled;
}

struct OverloadScenario {
  std::string name;
  Trace trace;
  double aggregate_x = 0.0;  ///< total demand over the capacity-envelope base
};

std::vector<OverloadScenario> make_scenarios(const Trace& base) {
  const int T = base.slots();
  std::vector<OverloadScenario> scenarios;
  const auto add = [&](const std::string& name, Trace trace) {
    const double aggregate = static_cast<double>(trace.total()) /
                             static_cast<double>(base.total());
    scenarios.push_back({name, std::move(trace), aggregate});
  };
  add("uniform-2x", scale_trace(base, [](int, int) { return 2.0; }));
  add("hotspot", scale_trace(base, [](int, int k) {
        return k < 2 ? 5.0 : 0.8;
      }));
  const int surge_from = T / 3;
  const int surge_to = surge_from + std::max(1, T / 5);
  add("flash-crowd", scale_trace(base, [&](int t, int) {
        return t >= surge_from && t < surge_to ? 4.0 : 0.7;
      }));
  add("ramp", scale_trace(base, [&](int t, int) {
        return 0.5 + 3.5 * static_cast<double>(t) /
                         static_cast<double>(std::max(1, T - 1));
      }));
  return scenarios;
}

birp::serve::ServeConfig make_policy(const std::string& policy,
                                     std::uint64_t seed) {
  birp::serve::ServeConfig config;
  config.seed = seed;
  config.queue_capacity = 64;  // bounded queues: backpressure is real
  if (policy == "none") return config;
  config.guard.admission.enabled = true;
  config.guard.admission.slack = 1.0;
  if (policy == "shed") return config;
  config.guard.breaker.enabled = true;
  config.guard.breaker.window_slots = 8;
  config.guard.breaker.min_samples = 32;
  config.guard.breaker.trip_threshold = 0.5;
  config.guard.breaker.open_slots = 4;
  if (policy == "breaker") return config;
  config.guard.degradation.enabled = true;
  config.guard.degradation.stress_shed_fraction = 0.1;
  config.guard.degradation.recovery_slots = 3;
  // Full ladder also switches failover retries to seeded exponential
  // backoff with jitter (inert without faults, but part of the policy).
  config.failover.enabled = true;
  config.failover.backoff_base_slots = 1;
  config.failover.backoff_jitter = 0.25;
  return config;
}

/// Requests that were actually served (not dropped in any flavor).
std::int64_t goodput(const birp::metrics::RunMetrics& m) {
  return m.total_requests() - m.dropped();
}

}  // namespace

int main(int argc, char** argv) {
  birp::bench::Flags flags(/*default_slots=*/90, /*default_target=*/1.0);
  flags.option("--check", flags.check).option("--csv", flags.csv);
  flags.parse_or_exit(argc, argv);

  // Base trace sized to the serving engine's own capacity: what an edge
  // actually sustains running the mid variant back-to-back at kernel 16
  // (the workload generator's envelope instead bakes in the slot
  // simulator's one-merged-batch-per-model cap, which the request-level
  // engine does not have). Scenario factors are then direct multiples of
  // aggregate serving capacity.
  const auto cluster = birp::device::ClusterSpec::paper_small();
  double capacity_per_edge = 0.0;
  for (int k = 0; k < cluster.num_devices(); ++k) {
    double per_request_s = 0.0;
    for (int i = 0; i < cluster.num_apps(); ++i) {
      const int mid = cluster.zoo().num_variants(i) / 2;
      const auto& tir = cluster.oracle_tir(k, i, mid);
      per_request_s += cluster.gamma_s(k, i, mid) / tir.tir(16);
    }
    per_request_s /= static_cast<double>(cluster.num_apps());
    capacity_per_edge += cluster.tau_s() / per_request_s;
  }
  capacity_per_edge /= static_cast<double>(cluster.num_devices());

  birp::workload::GeneratorConfig gen;
  gen.slots = flags.slots;
  gen.seed = flags.seed;
  gen.mean_per_edge = flags.target * capacity_per_edge /
                      static_cast<double>(cluster.num_apps());
  const auto base = birp::workload::generate(cluster, gen);
  const auto scenarios = make_scenarios(base);

  birp::bench::Report report("bench_overload");
  report.param("base_requests", base.total())
      .param("slots", flags.slots)
      .param("target", flags.target)
      .param("seed", flags.seed)
      .param("capacity_per_edge_slot", {capacity_per_edge, 1});

  for (const auto& scenario : scenarios) {
    std::vector<birp::metrics::RunMetrics> runs;
    for (const std::string policy : {"none", "shed", "breaker", "full"}) {
      AccuracyGreedyScheduler scheduler(cluster);
      birp::serve::ServeEngine engine(cluster, scenario.trace,
                                      make_policy(policy, flags.seed));
      const auto& m = runs.emplace_back(engine.run(scheduler));
      report.arm()
          .add("scenario", scenario.name)
          .add("policy", policy)
          .add("aggregate_x", {scenario.aggregate_x, 2})
          .add("total_requests", m.total_requests())
          .add("slo_failures", m.slo_failures())
          .add("failure_percent", {m.failure_percent(), 2})
          .add("goodput", goodput(m))
          .add("deadline_shed", m.deadline_shed())
          .add("queue_drops", m.queue_dropped())
          .add("breaker_trips", m.breaker_trips())
          .add("breaker_recoveries", m.breaker_recoveries())
          .add("degraded_slots", m.degraded_slots())
          .add("p50_tau", m.latency_quantile(0.5))
          .add("p95_tau", m.latency_quantile(0.95))
          .add("solver_fallbacks", m.solver_fallbacks());
    }
    // Headline: at >= 2x aggregate overload the full ladder must strictly
    // reduce SLO failures vs the unguarded engine at near-parity goodput.
    if (scenario.aggregate_x < 2.0) continue;
    const auto& none = runs.front();
    const auto& full = runs.back();
    report.gate(scenario.name + ": full-ladder SLO failures < unguarded",
                static_cast<double>(full.slo_failures()), "<",
                static_cast<double>(none.slo_failures()));
    report.gate(scenario.name + ": full-ladder goodput >= 95% of unguarded",
                static_cast<double>(goodput(full)), ">=",
                0.95 * static_cast<double>(goodput(none)));
  }
  return report.finish(flags);
}
