// Cluster sharding sweep: the tracked baseline for hierarchical scheduling.
//
// Replays a synthetic scale-free topology (workload::generate_topology) slot
// sequence through CellScheduler::decide at 1 / 4 / 16 cells under ONE shared
// per-LP pivot budget. The budget is sized so every arm solves its MILPs to
// completion (the sparse revised-simplex engine makes that feasible even for
// the monolithic LP). What remains is the
// superlinear-simplex gap measured directly in wall time: one cluster-sized
// LP costs far more than 16 cell-sized ones even run serially. That gap, not
// thread parallelism, is the headline: the speedup holds even on one core,
// and cores only widen it.
//
// The 16-cell arm runs at cell_threads 1 and 8 and the two decision streams
// are compared bit-for-bit — the subsystem's defining property (decisions
// are a function of the partition, never of the thread count).
//
// Emits BENCH_cluster.json; CI runs `bench_cluster --quick --check` and
// archives the JSON. The committed BENCH_cluster.json at the repo root is
// the current baseline. --check fails unless, at the default geometry,
//   * 16-cell decide wall-time beats monolithic by >= 3x,
//   * sharded goodput is within 5% of monolithic,
//   * 16-cell decisions are bit-identical at 1 vs 8 cell threads.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

#include "birp/cluster/cell_scheduler.hpp"
#include "birp/cluster/partition.hpp"
#include "birp/util/stats.hpp"
#include "birp/workload/topology.hpp"

namespace {

struct ArmResult {
  std::string name;
  int cells = 1;
  int threads = 0;
  std::int64_t fallbacks = 0;
  std::int64_t served = 0;
  std::int64_t dropped = 0;
  std::int64_t inter_cell_moved = 0;
  double goodput = 0.0;  ///< served / demand over the horizon
  double decide_ms_total = 0.0;
  double decide_ms_p50 = 0.0;
  double decide_ms_p95 = 0.0;
  std::vector<birp::sim::SlotDecision> decisions;  ///< for bit-compare
};

ArmResult run_arm(const std::string& name, const birp::bench::Scenario& scenario,
                  const birp::workload::Topology& topology, long budget,
                  int cells, int threads) {
  birp::cluster::PartitionConfig pc;
  pc.cells = cells;
  auto partition =
      birp::cluster::partition_cluster(scenario.cluster, &topology.link_mbps, pc);

  birp::cluster::CellSchedulerConfig cc;
  cc.birp.solver.lp.max_iterations = budget;
  cc.cell_threads = threads;
  // Offline beliefs keep every arm on identical per-cell problems (no online
  // estimator state drifting with feedback ordering).
  cc.offline = true;
  birp::cluster::CellScheduler scheduler(scenario.cluster, std::move(partition),
                                         cc);

  const int apps = scenario.cluster.num_apps();
  const int devices = scenario.cluster.num_devices();
  ArmResult result;
  result.name = name;
  result.cells = cells;
  result.threads = threads;
  std::int64_t demand_total = 0;
  std::vector<double> decide_ms;
  decide_ms.reserve(static_cast<std::size_t>(scenario.trace.slots()));
  for (int t = 0; t < scenario.trace.slots(); ++t) {
    birp::sim::SlotState state;
    state.slot = t;
    state.demand = birp::util::Grid2<std::int64_t>(apps, devices, 0);
    for (int i = 0; i < apps; ++i) {
      for (int k = 0; k < devices; ++k) {
        state.demand(i, k) = scenario.trace.at(t, i, k);
        demand_total += state.demand(i, k);
      }
    }
    state.previous = t == 0 ? nullptr : &result.decisions.back();

    const auto start = std::chrono::steady_clock::now();
    auto decision = scheduler.decide(state);
    const auto stop = std::chrono::steady_clock::now();
    decide_ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
    result.served += decision.total_served();
    result.dropped += decision.total_dropped();
    result.decisions.push_back(std::move(decision));
  }

  result.fallbacks = scheduler.fallback_count();
  result.inter_cell_moved = scheduler.balancer().moved_total();
  result.goodput = demand_total > 0 ? static_cast<double>(result.served) /
                                          static_cast<double>(demand_total)
                                    : 0.0;
  for (const double ms : decide_ms) result.decide_ms_total += ms;
  result.decide_ms_p50 = birp::util::percentile(decide_ms, 0.5);
  result.decide_ms_p95 = birp::util::percentile(decide_ms, 0.95);
  return result;
}

void write_json(const std::string& path, const birp::bench::Cli& cli, int edges,
                long budget, const std::vector<ArmResult>& results,
                double speedup, double goodput_gap, bool bit_identical) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"bench\": \"bench_cluster\",\n";
  out << "  \"topology\": \"scale-free\",\n";
  out << "  \"edges\": " << edges << ",\n";
  out << "  \"slots\": " << cli.slots << ",\n";
  out << "  \"target\": " << cli.target << ",\n";
  out << "  \"seed\": " << cli.seed << ",\n";
  out << "  \"pivot_budget\": " << budget << ",\n";
  out << "  \"arms\": [\n";
  for (std::size_t c = 0; c < results.size(); ++c) {
    const auto& r = results[c];
    out << "    {\n";
    out << "      \"name\": \"" << r.name << "\",\n";
    out << "      \"cells\": " << r.cells << ",\n";
    out << "      \"cell_threads\": " << r.threads << ",\n";
    out << "      \"fallbacks\": " << r.fallbacks << ",\n";
    out << "      \"served\": " << r.served << ",\n";
    out << "      \"dropped\": " << r.dropped << ",\n";
    out << "      \"inter_cell_moved\": " << r.inter_cell_moved << ",\n";
    out << "      \"goodput\": " << r.goodput << ",\n";
    out << "      \"decide_ms_total\": " << r.decide_ms_total << ",\n";
    out << "      \"decide_ms_p50\": " << r.decide_ms_p50 << ",\n";
    out << "      \"decide_ms_p95\": " << r.decide_ms_p95 << "\n";
    out << "    }" << (c + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"speedup_16c_vs_mono\": " << speedup << ",\n";
  out << "  \"goodput_gap_vs_mono\": " << goodput_gap << ",\n";
  out << "  \"bit_identical_across_threads\": " << (bit_identical ? "true"
                                                                  : "false")
      << "\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  auto cli = birp::bench::Cli::parse(argc, argv, /*default_slots=*/4,
                                     /*default_target=*/0.5);
  std::string json_path = "BENCH_cluster.json";
  int edges = 100;
  int threads = 8;
  long budget = 20000;
  bool quick = false;
  bool check = false;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (flag == "--quick") {
      quick = true;  // 2 slots, skip the slow mid-granularity arm
      cli.slots = 2;
    } else if (flag == "--json" && a + 1 < argc) {
      json_path = argv[++a];
    } else if (flag == "--threads" && a + 1 < argc) {
      threads = std::atoi(argv[++a]);
    } else if (flag == "--edges" && a + 1 < argc) {
      edges = std::atoi(argv[++a]);
    } else if (flag == "--budget" && a + 1 < argc) {
      budget = std::atol(argv[++a]);
    } else if (flag == "--check") {
      check = true;  // fail (exit 1) unless the acceptance gates hold
    }
  }

  birp::workload::TopologyConfig tc;
  tc.edges = edges;
  tc.apps = 10;
  tc.variants_per_app = 2;
  tc.seed = cli.seed;
  const auto topology = birp::workload::generate_topology(tc);
  const auto scenario = birp::bench::make_scenario(
      birp::workload::make_cluster(topology, tc), cli);

  std::vector<ArmResult> results;
  results.push_back(
      run_arm("monolithic", scenario, topology, budget, /*cells=*/1,
              /*threads=*/0));
  if (!quick) {
    results.push_back(
        run_arm("4-cell", scenario, topology, budget, 4, threads));
  }
  results.push_back(run_arm("16-cell/t1", scenario, topology, budget, 16, 1));
  results.push_back(
      run_arm("16-cell/t" + std::to_string(threads), scenario, topology,
              budget, 16, threads));

  const auto& mono = results.front();
  const auto& sharded_t1 = results[results.size() - 2];
  const auto& sharded = results.back();
  bool bit_identical = sharded_t1.decisions.size() == sharded.decisions.size();
  for (std::size_t t = 0; bit_identical && t < sharded.decisions.size(); ++t) {
    bit_identical = birp::bench::decisions_equal(sharded_t1.decisions[t],
                                                 sharded.decisions[t]);
  }
  const double speedup = sharded.decide_ms_total > 0.0
                             ? mono.decide_ms_total / sharded.decide_ms_total
                             : 0.0;
  const double goodput_gap =
      mono.goodput > 0.0
          ? (sharded.goodput - mono.goodput) / mono.goodput
          : 0.0;

  birp::util::TextTable table({"arm", "cells", "threads", "fallbacks",
                               "served", "goodput", "moved", "decide p50 ms",
                               "decide p95 ms", "total ms"});
  for (const auto& r : results) {
    table.add_row({r.name, std::to_string(r.cells), std::to_string(r.threads),
                   std::to_string(r.fallbacks), std::to_string(r.served),
                   birp::util::fixed(r.goodput, 4),
                   std::to_string(r.inter_cell_moved),
                   birp::util::fixed(r.decide_ms_p50, 1),
                   birp::util::fixed(r.decide_ms_p95, 1),
                   birp::util::fixed(r.decide_ms_total, 1)});
  }
  table.print(std::cout, "bench_cluster — " + std::to_string(edges) +
                             " edges, " + std::to_string(cli.slots) +
                             " slots, pivot budget " + std::to_string(budget));

  write_json(json_path, cli, edges, budget, results, speedup, goodput_gap,
             bit_identical);
  std::cout << "\nwrote " << json_path << "\n";
  std::cout << "16-cell vs monolithic decide speedup: "
            << birp::util::fixed(speedup, 2) << "x, goodput gap "
            << birp::util::fixed(100.0 * goodput_gap, 2)
            << "%, bit-identical across threads: "
            << (bit_identical ? "yes" : "NO") << "\n";

  if (check) {
    bool ok = true;
    if (speedup < 3.0) {
      std::cerr << "FAIL: 16-cell decide speedup "
                << birp::util::fixed(speedup, 2) << "x < 3x\n";
      ok = false;
    }
    if (goodput_gap < -0.05 || goodput_gap > 0.05) {
      std::cerr << "FAIL: sharded goodput gap "
                << birp::util::fixed(100.0 * goodput_gap, 2)
                << "% outside +/-5%\n";
      ok = false;
    }
    if (!bit_identical) {
      std::cerr << "FAIL: 16-cell decisions differ between 1 and "
                << threads << " cell threads\n";
      ok = false;
    }
    if (!ok) return 1;
  }
  return 0;
}
