// Deterministic chaos harness for the self-healing cluster control plane.
//
// One seeded correlated-failure storm (rack-grouped outages, staggered
// recovery, bandwidth collapse on survivors, a few mid-outage flaps) lands on
// top of a flash-crowd demand spike, and four arms replay the exact same
// trace through the simulator:
//
//   no-fault        ControlPlane, empty fault plan      (reference goodput)
//   storm-heal/t1   ControlPlane under the storm, cell_threads = 1
//   storm-heal/tN   same arm at cell_threads = N        (bit-identity check)
//   storm-frozen    static CellScheduler under the same storm (no healing)
//
// Writes its report as JSON with --json PATH; CI runs `bench_chaos --quick
// --check --json` and archives the JSON. The committed BENCH_chaos.json is
// the --quick run. --check fails (exit 1) unless, at the fixed geometry (24
// edges, 4 cells, N = 8):
//   * every arm conserves requests exactly (metrics total == trace total),
//   * heal decisions are bit-identical at 1 vs N cell threads,
//   * storm availability >= 80%,
//   * post-recovery goodput of the healed arm >= 80% of the no-fault arm,
//   * the control plane actually healed (>= 1 repartition and >= 1 closed
//     failure event with a finite MTTR).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

#include "birp/cluster/cell_scheduler.hpp"
#include "birp/cluster/control_plane.hpp"
#include "birp/cluster/partition.hpp"
#include "birp/fault/fault_plan.hpp"
#include "birp/workload/topology.hpp"

namespace {

constexpr int kEdges = 24;
constexpr int kCells = 4;
constexpr int kThreads = 8;
constexpr double kAvailabilityGatePercent = 80.0;

birp::cluster::ControlPlaneConfig control_plane_config(int threads) {
  birp::cluster::ControlPlaneConfig config;
  config.partition.cells = kCells;
  config.cell.cell_threads = threads;
  config.cell.watchdog.enabled = true;
  config.health.down_after_misses = 2;
  config.health.up_after_beats = 2;
  config.churn_threshold = 2;
  config.cooldown_slots = 6;
  return config;
}

/// What the gates need from an arm beyond its report row.
struct Stream {
  std::vector<birp::sim::SlotDecision> decisions;  ///< for bit-compare
  std::vector<std::int64_t> served_per_slot;
};

Stream run_arm(birp::bench::Report& report, const std::string& name,
               const birp::bench::Scenario& scenario,
               const birp::workload::Topology& topology,
               const birp::fault::FaultPlan& plan, bool healed, int threads) {
  birp::sim::SimulatorConfig sc;
  sc.fault_plan = plan;
  sc.failover.enabled = true;
  sc.failover.retry_budget = 2;
  birp::sim::Simulator simulator(scenario.cluster, scenario.trace, sc);

  std::unique_ptr<birp::sim::Scheduler> scheduler;
  birp::cluster::ControlPlane* plane = nullptr;
  const birp::cluster::CellScheduler* frozen = nullptr;
  if (healed) {
    auto cp = std::make_unique<birp::cluster::ControlPlane>(
        scenario.cluster, &topology.link_mbps, control_plane_config(threads));
    plane = cp.get();
    scheduler = std::move(cp);
  } else {
    birp::cluster::PartitionConfig pc;
    pc.cells = kCells;
    birp::cluster::CellSchedulerConfig cc;
    cc.cell_threads = threads;
    auto cs = std::make_unique<birp::cluster::CellScheduler>(
        scenario.cluster,
        birp::cluster::partition_cluster(scenario.cluster, &topology.link_mbps,
                                         pc),
        cc);
    frozen = cs.get();
    scheduler = std::move(cs);
  }

  Stream stream;
  std::int64_t served = 0;
  double decide_ms_total = 0.0;
  birp::metrics::RunMetrics metrics(scenario.trace.slots());
  for (int t = 0; t < scenario.trace.slots(); ++t) {
    const auto start = std::chrono::steady_clock::now();
    auto slot = simulator.step(*scheduler, &metrics);
    decide_ms_total += std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    served += slot.served;
    stream.served_per_slot.push_back(slot.served);
    stream.decisions.push_back(std::move(slot.decision));
  }
  simulator.finish(*scheduler, metrics);
  if (plane != nullptr) plane->export_metrics(metrics);
  // A repartition rebuilds the plane's cells: read them after the run.
  const auto& cells = plane != nullptr ? plane->scheduler() : *frozen;

  const bool conserved = metrics.total_requests() == scenario.trace.total();
  report.arm()
      .add("name", name)
      .add("cell_threads", threads)
      .add("healed", healed)
      .add("total_requests", metrics.total_requests())
      .add("served", served)
      .add("dropped", metrics.dropped())
      .add("orphan_dropped", metrics.orphan_dropped())
      .add("retries", metrics.retries())
      .add("conservation_ok", conserved)
      .add("availability_percent", {metrics.availability_percent(), 2})
      .add("repartitions", metrics.repartitions())
      .add("requests_at_risk", metrics.requests_at_risk())
      .add("failure_events", metrics.failure_events())
      .add("mttr_mean_slots", {metrics.mttr_slots().mean(), 1})
      .add("watchdog_trips", cells.watchdog_trips())
      .add("degraded_cell_slots", cells.degraded_cell_slots())
      .add("decide_ms_total", {decide_ms_total, 1});
  report.gate(name + " conserves requests", conserved,
              std::to_string(metrics.total_requests()) + " accounted vs " +
                  std::to_string(scenario.trace.total()) + " offered");
  return stream;
}

}  // namespace

int main(int argc, char** argv) {
  birp::bench::Flags flags(/*default_slots=*/96, /*default_target=*/0.5);
  // --quick: 48 slots and no storm-frozen arm.
  flags.with_quick(48)
      .option("--check", flags.check)
      .option("--json", flags.json);
  flags.parse_or_exit(argc, argv);

  birp::workload::TopologyConfig tc;
  tc.edges = kEdges;
  tc.apps = 6;
  tc.variants_per_app = 2;
  tc.seed = flags.seed;
  const auto topology = birp::workload::generate_topology(tc);
  auto cluster = birp::workload::make_cluster(topology, tc);

  // Flash-crowd overlay: the storm lands mid-spike (worst case — lost
  // capacity exactly when demand peaks).
  birp::workload::GeneratorConfig gc;
  gc.slots = flags.slots;
  gc.seed = flags.seed;
  gc.mean_per_edge =
      birp::workload::suggested_mean_per_edge(cluster, flags.target);
  gc.flash_start = flags.slots / 4;
  gc.flash_duration = std::max(4, flags.slots / 4);
  gc.flash_scale = 1.5;
  auto trace = birp::workload::generate(cluster, gc);
  const birp::bench::Scenario scenario{std::move(cluster), std::move(trace)};

  // Seeded storm over the first 2/3 of the horizon: the final third is the
  // guaranteed-recovered window the goodput gate measures in.
  birp::fault::CorrelatedFailureOptions co;
  co.slots = 2 * flags.slots / 3;
  co.devices = kEdges;
  co.seed = flags.seed ^ 0x57023;
  co.group_size = std::max(2, kEdges / kCells);
  co.group_fraction = 0.75;
  co.storm_rate = 0.08;
  co.min_outage_slots = 6;
  co.max_outage_slots = 12;
  co.recovery_stagger_slots = 1;
  co.rescue_fraction = 0.25;
  co.cooldown_slots = 8;
  const auto plan = birp::fault::FaultPlan::generate_correlated(co);
  int recovered_by = 0;
  for (const auto& e : plan.events()) {
    if (e.kind == birp::fault::FaultKind::kDown) {
      recovered_by = std::max(recovered_by, e.to_slot);
    }
  }

  birp::bench::Report report("bench_chaos");
  report.param("edges", kEdges)
      .param("slots", flags.slots)
      .param("target", flags.target)
      .param("seed", flags.seed)
      .param("storm_incidents", plan.num_incidents())
      .param("storm_recovered_by_slot", recovered_by);

  const auto clean = run_arm(report, "no-fault", scenario, topology,
                             birp::fault::FaultPlan{}, /*healed=*/true, 1);
  const auto heal_t1 =
      run_arm(report, "storm-heal/t1", scenario, topology, plan, true, 1);
  const auto heal_tn =
      run_arm(report, "storm-heal/t" + std::to_string(kThreads), scenario,
              topology, plan, true, kThreads);
  if (!flags.quick) {
    run_arm(report, "storm-frozen", scenario, topology, plan,
            /*healed=*/false, 1);
  }
  const bool bit_identical =
      birp::bench::streams_equal(heal_t1.decisions, heal_tn.decisions);

  // Recovery-time objective: once every outage has ended, the healed cluster
  // should serve (nearly) like the never-failed one.
  std::int64_t clean_window = 0;
  std::int64_t heal_window = 0;
  for (int t = recovered_by; t < flags.slots; ++t) {
    clean_window += clean.served_per_slot[static_cast<std::size_t>(t)];
    heal_window += heal_t1.served_per_slot[static_cast<std::size_t>(t)];
  }
  const double recovery_ratio =
      clean_window > 0 ? static_cast<double>(heal_window) /
                             static_cast<double>(clean_window)
                       : 1.0;
  report.result("bit_identical_across_threads", bit_identical)
      .result("post_recovery_goodput_ratio", {recovery_ratio, 4});

  const auto& heal = report.find("storm-heal/t1");
  report.gate("storm-heal decisions t1 == t" + std::to_string(kThreads),
              bit_identical, bit_identical ? "bit-identical" : "differ");
  report.gate("storm-heal/t1 availability_percent",
              heal.number("availability_percent"), ">=",
              kAvailabilityGatePercent);
  report.gate("post-recovery goodput ratio (heal vs no-fault)",
              recovery_ratio, ">=", 0.80);
  report.gate("storm-heal/t1 repartitions", heal.number("repartitions"), ">=",
              1.0);
  report.gate("storm-heal/t1 failure_events", heal.number("failure_events"),
              ">=", 1.0);
  return report.finish(flags);
}
