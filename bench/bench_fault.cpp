// Fault tolerance comparison: BIRP (with and without failover re-admission)
// vs the OAEI and MAX baselines under injected edge failures.
//
//   ./bench_fault [--slots N] [--target X] [--seed S] [--csv PATH] [--check]
//
// Four fault scenarios run on the same workload trace:
//
//   none       — fault-free control (must match the regular benches)
//   crash      — one edge hard-down for a contiguous window
//   flapping   — one edge repeatedly cycling down/up
//   degraded   — one edge's wireless bandwidth cut to 30% for most of the run
//   straggler  — one edge computing 2.5x slower for most of the run
//
// Each scenario runs BIRP with failover, BIRP without, OAEI, and MAX. The
// headline comparison is the single-edge-crash scenario: failover re-admits
// the crashed edge's orphans at surviving edges, so BIRP+failover must show a
// strictly lower SLO failure rate than BIRP without it; --check exits 1 when
// it does not. A combined summary CSV (scenario x algorithm) is written to
// --csv PATH; everything is seeded, so the same flags produce a bit-identical
// file.
#include <string>
#include <vector>

#include "birp/fault/fault_plan.hpp"
#include "common.hpp"

namespace {

birp::fault::FaultPlan make_plan(const std::string& name, int slots) {
  using birp::fault::FaultPlan;
  if (name == "crash") {
    return FaultPlan::single_edge_crash(1, slots / 4, slots / 4 + slots / 5);
  }
  if (name == "flapping") {
    return FaultPlan::flapping_edge(2, slots / 6, slots, 5, 15);
  }
  if (name == "degraded") {
    return FaultPlan::degraded_bandwidth(0, slots / 5, 4 * slots / 5, 0.3);
  }
  if (name == "straggler") {
    FaultPlan plan;
    plan.add_straggler(1, slots / 5, 4 * slots / 5, 2.5);
    return plan;
  }
  return {};  // "none"
}

}  // namespace

int main(int argc, char** argv) {
  birp::bench::Flags flags(/*default_slots=*/200, /*default_target=*/0.6);
  flags.option("--check", flags.check).option("--csv", flags.csv);
  flags.parse_or_exit(argc, argv);

  auto scenario = birp::bench::make_scenario(
      birp::device::ClusterSpec::paper_small(), flags);
  birp::bench::Report report("bench_fault");
  report.param("requests", scenario.trace.total())
      .param("slots", flags.slots)
      .param("target", flags.target)
      .param("seed", flags.seed);

  // Runs one (scenario, algorithm) pair, adds its arm and returns its SLO
  // failure p%.
  const auto run_one = [&](const std::string& scenario_name,
                           const std::string& algorithm, bool failover,
                           birp::sim::Scheduler&& scheduler) {
    birp::sim::SimulatorConfig config;
    config.seed = flags.seed;
    config.fault_plan = make_plan(scenario_name, flags.slots);
    config.failover.enabled = failover;
    birp::sim::Simulator simulator(scenario.cluster, scenario.trace, config);
    const auto m = simulator.run(scheduler);
    report.arm()
        .add("scenario", scenario_name)
        .add("algorithm", algorithm)
        .add("slo_failure_percent", {m.failure_percent(), 2})
        .add("total_loss", {m.total_loss(), 1})
        .add("dropped", m.dropped())
        .add("orphan_dropped", m.orphan_dropped())
        .add("retries", m.retries())
        .add("availability_percent", {m.availability_percent(), 2})
        .add("p50_tau", m.latency_quantile(0.5))
        .add("p95_tau", m.latency_quantile(0.95));
    return m.failure_percent();
  };

  for (const std::string name :
       {"none", "crash", "flapping", "degraded", "straggler"}) {
    const double failover_p = run_one(
        name, "BIRP+FO", true, birp::core::BirpScheduler(scenario.cluster));
    const double plain_p = run_one(name, "BIRP", false,
                                   birp::core::BirpScheduler(scenario.cluster));
    run_one(name, "OAEI", false, birp::sched::OaeiScheduler(scenario.cluster));
    run_one(name, "MAX", false, birp::sched::MaxScheduler(scenario.cluster));
    // Headline: failover strictly beats no-failover BIRP under the crash.
    if (name == "crash") {
      report.gate("crash: BIRP+FO SLO failure p% < BIRP p%", failover_p, "<",
                  plain_p);
    }
  }
  return report.finish(flags);
}
