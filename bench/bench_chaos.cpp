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
// Emits BENCH_chaos.json; CI runs `bench_chaos --quick --check` and archives
// the JSON. --check fails (exit 1) unless, at the default geometry:
//   * every arm conserves requests exactly (metrics total == trace total),
//   * heal decisions are bit-identical at 1 vs N cell threads,
//   * storm availability >= the gate threshold,
//   * post-recovery goodput of the healed arm >= 80% of the no-fault arm,
//   * the control plane actually healed (>= 1 repartition and >= 1 closed
//     failure event with a finite MTTR).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
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

struct ArmResult {
  std::string name;
  int threads = 1;
  bool healed = false;  ///< control plane (vs frozen partition)
  std::int64_t total_requests = 0;
  std::int64_t served = 0;
  std::int64_t dropped = 0;
  std::int64_t orphaned = 0;
  std::int64_t retried = 0;
  bool conservation_ok = false;
  double availability = 100.0;
  std::int64_t repartitions = 0;
  std::int64_t requests_at_risk = 0;
  std::int64_t failure_events = 0;
  double mttr_mean_slots = 0.0;
  std::int64_t watchdog_trips = 0;
  std::int64_t degraded_cell_slots = 0;
  double decide_ms_total = 0.0;
  std::vector<std::int64_t> served_per_slot;
  std::vector<birp::sim::SlotDecision> decisions;  ///< for bit-compare
};

birp::cluster::ControlPlaneConfig control_plane_config(int cells,
                                                       int threads) {
  birp::cluster::ControlPlaneConfig config;
  config.partition.cells = cells;
  config.cell.cell_threads = threads;
  config.cell.watchdog.enabled = true;
  config.health.down_after_misses = 2;
  config.health.up_after_beats = 2;
  config.churn_threshold = 2;
  config.cooldown_slots = 6;
  return config;
}

ArmResult run_arm(const std::string& name,
                  const birp::bench::Scenario& scenario,
                  const birp::workload::Topology& topology,
                  const birp::fault::FaultPlan& plan, bool healed, int cells,
                  int threads) {
  birp::sim::SimulatorConfig sc;
  sc.fault_plan = plan;
  sc.failover.enabled = true;
  sc.failover.retry_budget = 2;
  birp::sim::Simulator simulator(scenario.cluster, scenario.trace, sc);

  std::unique_ptr<birp::sim::Scheduler> scheduler;
  birp::cluster::ControlPlane* plane = nullptr;
  birp::cluster::CellScheduler* frozen = nullptr;
  if (healed) {
    auto cp = std::make_unique<birp::cluster::ControlPlane>(
        scenario.cluster, &topology.link_mbps,
        control_plane_config(cells, threads));
    plane = cp.get();
    scheduler = std::move(cp);
  } else {
    birp::cluster::PartitionConfig pc;
    pc.cells = cells;
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

  ArmResult result;
  result.name = name;
  result.threads = threads;
  result.healed = healed;
  birp::metrics::RunMetrics metrics(scenario.trace.slots());
  for (int t = 0; t < scenario.trace.slots(); ++t) {
    const auto start = std::chrono::steady_clock::now();
    auto slot = simulator.step(*scheduler, &metrics);
    result.decide_ms_total +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    result.served += slot.served;
    result.served_per_slot.push_back(slot.served);
    result.decisions.push_back(std::move(slot.decision));
  }
  simulator.finish(*scheduler, metrics);
  if (plane != nullptr) plane->export_metrics(metrics);

  result.total_requests = metrics.total_requests();
  result.dropped = metrics.dropped();
  result.orphaned = metrics.orphan_dropped();
  result.retried = metrics.retries();
  result.conservation_ok =
      metrics.total_requests() == scenario.trace.total();
  result.availability = metrics.availability_percent();
  result.repartitions = metrics.repartitions();
  result.requests_at_risk = metrics.requests_at_risk();
  result.failure_events = metrics.failure_events();
  result.mttr_mean_slots = metrics.mttr_slots().mean();
  const auto& cell_sched =
      plane != nullptr ? plane->scheduler() : *frozen;
  result.watchdog_trips = cell_sched.watchdog_trips();
  result.degraded_cell_slots = cell_sched.degraded_cell_slots();
  return result;
}

void write_json(const std::string& path, const birp::bench::Cli& cli,
                int edges, int incidents, int recovered_by,
                const std::vector<ArmResult>& results, bool bit_identical,
                double recovery_ratio, double availability_gate) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"bench\": \"bench_chaos\",\n";
  out << "  \"edges\": " << edges << ",\n";
  out << "  \"slots\": " << cli.slots << ",\n";
  out << "  \"target\": " << cli.target << ",\n";
  out << "  \"seed\": " << cli.seed << ",\n";
  out << "  \"storm_incidents\": " << incidents << ",\n";
  out << "  \"storm_recovered_by_slot\": " << recovered_by << ",\n";
  out << "  \"arms\": [\n";
  for (std::size_t c = 0; c < results.size(); ++c) {
    const auto& r = results[c];
    out << "    {\n";
    out << "      \"name\": \"" << r.name << "\",\n";
    out << "      \"cell_threads\": " << r.threads << ",\n";
    out << "      \"healed\": " << (r.healed ? "true" : "false") << ",\n";
    out << "      \"total_requests\": " << r.total_requests << ",\n";
    out << "      \"served\": " << r.served << ",\n";
    out << "      \"dropped\": " << r.dropped << ",\n";
    out << "      \"orphan_dropped\": " << r.orphaned << ",\n";
    out << "      \"retries\": " << r.retried << ",\n";
    out << "      \"conservation_ok\": "
        << (r.conservation_ok ? "true" : "false") << ",\n";
    out << "      \"availability_percent\": " << r.availability << ",\n";
    out << "      \"repartitions\": " << r.repartitions << ",\n";
    out << "      \"requests_at_risk\": " << r.requests_at_risk << ",\n";
    out << "      \"failure_events\": " << r.failure_events << ",\n";
    out << "      \"mttr_mean_slots\": " << r.mttr_mean_slots << ",\n";
    out << "      \"watchdog_trips\": " << r.watchdog_trips << ",\n";
    out << "      \"degraded_cell_slots\": " << r.degraded_cell_slots << ",\n";
    out << "      \"decide_ms_total\": " << r.decide_ms_total << "\n";
    out << "    }" << (c + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"bit_identical_across_threads\": "
      << (bit_identical ? "true" : "false") << ",\n";
  out << "  \"post_recovery_goodput_ratio\": " << recovery_ratio << ",\n";
  out << "  \"availability_gate_percent\": " << availability_gate << "\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  auto cli = birp::bench::Cli::parse(argc, argv, /*default_slots=*/96,
                                     /*default_target=*/0.5);
  std::string json_path = "BENCH_chaos.json";
  int edges = 24;
  int cells = 4;
  int threads = 8;
  double availability_gate = 80.0;
  bool quick = false;
  bool check = false;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (flag == "--quick") {
      quick = true;
      cli.slots = 48;
    } else if (flag == "--json" && a + 1 < argc) {
      json_path = argv[++a];
    } else if (flag == "--edges" && a + 1 < argc) {
      edges = std::atoi(argv[++a]);
    } else if (flag == "--cells" && a + 1 < argc) {
      cells = std::atoi(argv[++a]);
    } else if (flag == "--threads" && a + 1 < argc) {
      threads = std::atoi(argv[++a]);
    } else if (flag == "--availability-gate" && a + 1 < argc) {
      availability_gate = std::atof(argv[++a]);
    } else if (flag == "--check") {
      check = true;
    }
  }

  birp::workload::TopologyConfig tc;
  tc.edges = edges;
  tc.apps = 6;
  tc.variants_per_app = 2;
  tc.seed = cli.seed;
  const auto topology = birp::workload::generate_topology(tc);
  auto cluster = birp::workload::make_cluster(topology, tc);

  // Flash-crowd overlay: the storm lands mid-spike (worst case — lost
  // capacity exactly when demand peaks).
  birp::workload::GeneratorConfig gc;
  gc.slots = cli.slots;
  gc.seed = cli.seed;
  gc.mean_per_edge =
      birp::workload::suggested_mean_per_edge(cluster, cli.target);
  gc.flash_start = cli.slots / 4;
  gc.flash_duration = std::max(4, cli.slots / 4);
  gc.flash_scale = 1.5;
  auto trace = birp::workload::generate(cluster, gc);
  const birp::bench::Scenario scenario{std::move(cluster), std::move(trace)};

  // Seeded storm over the first 2/3 of the horizon: the final third is the
  // guaranteed-recovered window the goodput gate measures in.
  birp::fault::CorrelatedFailureOptions co;
  co.slots = 2 * cli.slots / 3;
  co.devices = edges;
  co.seed = cli.seed ^ 0x57023;
  co.group_size = std::max(2, edges / cells);
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

  std::vector<ArmResult> results;
  results.push_back(run_arm("no-fault", scenario, topology,
                            birp::fault::FaultPlan{}, /*healed=*/true, cells,
                            1));
  results.push_back(run_arm("storm-heal/t1", scenario, topology, plan, true,
                            cells, 1));
  results.push_back(run_arm("storm-heal/t" + std::to_string(threads),
                            scenario, topology, plan, true, cells, threads));
  if (!quick) {
    results.push_back(run_arm("storm-frozen", scenario, topology, plan,
                              /*healed=*/false, cells, 1));
  }

  const auto& clean = results[0];
  const auto& heal_t1 = results[1];
  const auto& heal_tn = results[2];
  bool bit_identical =
      heal_t1.decisions.size() == heal_tn.decisions.size();
  for (std::size_t t = 0; bit_identical && t < heal_t1.decisions.size(); ++t) {
    bit_identical = birp::bench::decisions_equal(heal_t1.decisions[t],
                                                 heal_tn.decisions[t]);
  }

  // Recovery-time objective: once every outage has ended, the healed cluster
  // should serve (nearly) like the never-failed one.
  std::int64_t clean_window = 0;
  std::int64_t heal_window = 0;
  for (int t = recovered_by; t < cli.slots; ++t) {
    clean_window += clean.served_per_slot[static_cast<std::size_t>(t)];
    heal_window += heal_t1.served_per_slot[static_cast<std::size_t>(t)];
  }
  const double recovery_ratio =
      clean_window > 0 ? static_cast<double>(heal_window) /
                             static_cast<double>(clean_window)
                       : 1.0;

  birp::util::TextTable table(
      {"arm", "threads", "served", "dropped", "orphaned", "conserved",
       "avail %", "reparts", "at-risk", "MTTR", "wd trips", "total ms"});
  for (const auto& r : results) {
    table.add_row(
        {r.name, std::to_string(r.threads), std::to_string(r.served),
         std::to_string(r.dropped), std::to_string(r.orphaned),
         r.conservation_ok ? "yes" : "NO",
         birp::util::fixed(r.availability, 2), std::to_string(r.repartitions),
         std::to_string(r.requests_at_risk),
         r.failure_events > 0 ? birp::util::fixed(r.mttr_mean_slots, 1) : "-",
         std::to_string(r.watchdog_trips),
         birp::util::fixed(r.decide_ms_total, 1)});
  }
  table.print(std::cout, "bench_chaos — " + std::to_string(edges) +
                             " edges, " + std::to_string(cli.slots) +
                             " slots, " + std::to_string(plan.num_incidents()) +
                             " storm incidents");
  std::cout << "\npost-recovery goodput ratio (heal vs no-fault): "
            << birp::util::fixed(recovery_ratio, 3)
            << ", bit-identical t1 vs t" << threads << ": "
            << (bit_identical ? "yes" : "NO") << "\n";

  write_json(json_path, cli, edges, plan.num_incidents(), recovered_by,
             results, bit_identical, recovery_ratio, availability_gate);
  std::cout << "wrote " << json_path << "\n";

  if (check) {
    bool ok = true;
    for (const auto& r : results) {
      if (!r.conservation_ok) {
        std::cerr << "FAIL: " << r.name << " lost requests ("
                  << r.total_requests << " accounted vs "
                  << scenario.trace.total() << " offered)\n";
        ok = false;
      }
    }
    if (!bit_identical) {
      std::cerr << "FAIL: heal decisions differ between 1 and " << threads
                << " cell threads\n";
      ok = false;
    }
    if (heal_t1.availability < availability_gate) {
      std::cerr << "FAIL: storm availability "
                << birp::util::fixed(heal_t1.availability, 2) << "% < "
                << availability_gate << "%\n";
      ok = false;
    }
    if (recovery_ratio < 0.80) {
      std::cerr << "FAIL: post-recovery goodput ratio "
                << birp::util::fixed(recovery_ratio, 3) << " < 0.80\n";
      ok = false;
    }
    if (heal_t1.repartitions < 1 || heal_t1.failure_events < 1) {
      std::cerr << "FAIL: control plane never healed (repartitions "
                << heal_t1.repartitions << ", failure events "
                << heal_t1.failure_events << ")\n";
      ok = false;
    }
    if (!ok) return 1;
  }
  return 0;
}
