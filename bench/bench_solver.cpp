// Solver perf sweep: the tracked baseline for per-slot MILP solving.
//
// Replays slot sequences through BirpScheduler::decide under three solver
// arms —
//   cold-serial   warm starts off (the pre-warm-start solver, kept as the
//                 comparison baseline)
//   warm-serial   node LPs resume their parent's live LP state
//                 (factorization included) + cross-slot warm starts
//   sparse-large  a synthetic 100-edge x 20-app cluster scheduled the way
//                 the repo schedules large clusters: CellScheduler sharding
//                 (48 cells), warm-started node LPs per cell, cells solved
//                 on a pool of --threads workers
// — and emits BENCH_solver.json with per-arm node/pivot totals and
// decide-latency percentiles. CI runs `bench_solver --quick --check` and
// archives the JSON, so the solver's perf trajectory is tracked PR over PR;
// the committed BENCH_solver.json at the repo root is the current baseline.
//
// Decisions are bit-identical across thread counts by construction (see
// cluster/cell_scheduler.hpp); the warm-serial decision stream is pinned by
// a golden digest in tests/solver_warm_test.cpp. Each arm also reports its
// abandoned warm attempts by reason (singular basis, repair stall, Phase II
// limit). `--check` gates the warm pivot reduction (at least 2x),
// warm-serial's refactorization work (under 11 factor pivots per simplex
// pivot: about 9 when children inherit their parent's LU, about 12.5 when
// every child refactorizes from its Basis), warm-serial's cold LPs (at most
// 1: the first slot's root, which has no basis to start from) and the
// sparse-large decide p95 (under 1000 ms).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

#include "birp/cluster/cell_scheduler.hpp"
#include "birp/cluster/partition.hpp"
#include "birp/core/birp_scheduler.hpp"
#include "birp/device/cluster.hpp"
#include "birp/solver/solution.hpp"
#include "birp/util/stats.hpp"
#include "birp/workload/topology.hpp"

namespace {

struct ConfigResult {
  std::string name;
  std::string cluster;
  int cells = 1;  ///< scheduler shards (1 = monolithic BirpScheduler)
  std::int64_t nodes = 0;
  std::int64_t simplex_pivots = 0;
  std::int64_t factor_pivots = 0;
  std::int64_t warm_lp_solves = 0;
  std::int64_t cold_lp_solves = 0;
  birp::solver::WarmGiveUps give_ups;
  std::int64_t fallbacks = 0;
  double decide_ms_total = 0.0;
  double decide_ms_p50 = 0.0;
  double decide_ms_p95 = 0.0;
};

ConfigResult run_config(const std::string& name, const std::string& cluster,
                        const birp::bench::Scenario& scenario, bool warm) {
  birp::core::BirpConfig config;
  config.solver.warm_start = warm;
  // Offline beliefs keep the arms on identical problems (no online
  // estimator state drifting with feedback ordering).
  auto scheduler = birp::core::BirpScheduler::offline(scenario.cluster, config);

  const int apps = scenario.cluster.num_apps();
  const int devices = scenario.cluster.num_devices();
  birp::sim::SlotDecision previous(apps, scenario.cluster.zoo().max_variants(),
                                   devices);
  ConfigResult result;
  result.name = name;
  result.cluster = cluster;
  std::vector<double> decide_ms;
  decide_ms.reserve(static_cast<std::size_t>(scenario.trace.slots()));
  for (int t = 0; t < scenario.trace.slots(); ++t) {
    birp::sim::SlotState state;
    state.slot = t;
    state.demand = birp::util::Grid2<std::int64_t>(apps, devices, 0);
    for (int i = 0; i < apps; ++i) {
      for (int k = 0; k < devices; ++k) {
        state.demand(i, k) = scenario.trace.at(t, i, k);
      }
    }
    state.previous = t == 0 ? nullptr : &previous;

    const auto start = std::chrono::steady_clock::now();
    auto decision = scheduler.decide(state);
    const auto stop = std::chrono::steady_clock::now();
    decide_ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
    previous = std::move(decision);
  }

  result.nodes = scheduler.total_nodes();
  result.simplex_pivots = scheduler.total_pivots();
  result.factor_pivots = scheduler.total_factor_pivots();
  result.warm_lp_solves = scheduler.warm_lp_solves();
  result.cold_lp_solves = scheduler.cold_lp_solves();
  result.give_ups = scheduler.warm_give_ups();
  result.fallbacks = scheduler.fallback_count();
  for (const double ms : decide_ms) result.decide_ms_total += ms;
  result.decide_ms_p50 = birp::util::percentile(decide_ms, 0.5);
  result.decide_ms_p95 = birp::util::percentile(decide_ms, 0.95);
  return result;
}

// The large arm runs the way the repo actually schedules clusters of this
// size: sharded through CellScheduler (one warm-started BirpScheduler per
// partition cell, cells solved concurrently). Counters are summed over cells so the JSON stays comparable
// with the monolithic arms.
ConfigResult run_large_config(const std::string& name,
                              const std::string& cluster,
                              const birp::bench::Scenario& scenario,
                              const birp::workload::Topology& topology,
                              int cells, int threads) {
  birp::cluster::PartitionConfig pc;
  pc.cells = cells;
  auto partition = birp::cluster::partition_cluster(scenario.cluster,
                                                    &topology.link_mbps, pc);

  birp::cluster::CellSchedulerConfig cc;
  cc.birp.solver.warm_start = true;
  // Same real-time pivot budget bench_cluster uses for its sharded arms: a
  // cell that blows past it falls back to the greedy repair instead of
  // blocking the slot deadline.
  cc.birp.solver.lp.max_iterations = 3000;
  cc.cell_threads = threads;
  cc.offline = true;  // identical problems across runs, as in the other arms
  birp::cluster::CellScheduler scheduler(scenario.cluster, std::move(partition),
                                         cc);

  const int apps = scenario.cluster.num_apps();
  const int devices = scenario.cluster.num_devices();
  birp::sim::SlotDecision previous(apps, scenario.cluster.zoo().max_variants(),
                                   devices);
  ConfigResult result;
  result.name = name;
  result.cluster = cluster;
  result.cells = cells;
  std::vector<double> decide_ms;
  decide_ms.reserve(static_cast<std::size_t>(scenario.trace.slots()));
  for (int t = 0; t < scenario.trace.slots(); ++t) {
    birp::sim::SlotState state;
    state.slot = t;
    state.demand = birp::util::Grid2<std::int64_t>(apps, devices, 0);
    for (int i = 0; i < apps; ++i) {
      for (int k = 0; k < devices; ++k) {
        state.demand(i, k) = scenario.trace.at(t, i, k);
      }
    }
    state.previous = t == 0 ? nullptr : &previous;

    const auto start = std::chrono::steady_clock::now();
    auto decision = scheduler.decide(state);
    const auto stop = std::chrono::steady_clock::now();
    decide_ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
    previous = std::move(decision);
  }

  for (int c = 0; c < scheduler.cells(); ++c) {
    const auto& cell = scheduler.cell(c);
    result.nodes += cell.total_nodes();
    result.simplex_pivots += cell.total_pivots();
    result.factor_pivots += cell.total_factor_pivots();
    result.warm_lp_solves += cell.warm_lp_solves();
    result.cold_lp_solves += cell.cold_lp_solves();
    result.give_ups += cell.warm_give_ups();
  }
  result.fallbacks = scheduler.fallback_count();
  for (const double ms : decide_ms) result.decide_ms_total += ms;
  result.decide_ms_p50 = birp::util::percentile(decide_ms, 0.5);
  result.decide_ms_p95 = birp::util::percentile(decide_ms, 0.95);
  return result;
}

/// Refactorization eliminations per simplex pivot: how much LU work each
/// pivot drags along (children resuming their parent's factorization keep
/// this low).
double factor_pivots_per_pivot(const ConfigResult& r) {
  return r.simplex_pivots > 0 ? static_cast<double>(r.factor_pivots) /
                                    static_cast<double>(r.simplex_pivots)
                              : 0.0;
}

void write_json(const std::string& path, const birp::bench::Cli& cli,
                int threads, int large_slots,
                const std::vector<ConfigResult>& results, double reduction) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"bench\": \"bench_solver\",\n";
  out << "  \"cluster\": \"paper_large\",\n";
  out << "  \"large_cluster\": \"synthetic-100x20\",\n";
  out << "  \"slots\": " << cli.slots << ",\n";
  out << "  \"large_slots\": " << large_slots << ",\n";
  out << "  \"target\": " << cli.target << ",\n";
  out << "  \"seed\": " << cli.seed << ",\n";
  out << "  \"threads\": " << threads << ",\n";
  out << "  \"configs\": [\n";
  for (std::size_t c = 0; c < results.size(); ++c) {
    const auto& r = results[c];
    out << "    {\n";
    out << "      \"name\": \"" << r.name << "\",\n";
    out << "      \"cluster\": \"" << r.cluster << "\",\n";
    out << "      \"cells\": " << r.cells << ",\n";
    out << "      \"nodes\": " << r.nodes << ",\n";
    out << "      \"simplex_pivots\": " << r.simplex_pivots << ",\n";
    out << "      \"factor_pivots\": " << r.factor_pivots << ",\n";
    out << "      \"warm_lp_solves\": " << r.warm_lp_solves << ",\n";
    out << "      \"cold_lp_solves\": " << r.cold_lp_solves << ",\n";
    out << "      \"warm_give_ups\": {\"singular\": " << r.give_ups.singular
        << ", \"repair_stall\": " << r.give_ups.repair_stall
        << ", \"phase2_limit\": " << r.give_ups.phase2_limit << "},\n";
    out << "      \"fallbacks\": " << r.fallbacks << ",\n";
    out << "      \"decide_ms_total\": " << r.decide_ms_total << ",\n";
    out << "      \"decide_ms_p50\": " << r.decide_ms_p50 << ",\n";
    out << "      \"decide_ms_p95\": " << r.decide_ms_p95 << "\n";
    out << "    }" << (c + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"pivot_reduction_vs_cold\": {\"warm-serial\": " << reduction
      << "},\n";
  out << "  \"warm_factor_pivots_per_pivot\": "
      << factor_pivots_per_pivot(results[1]) << "\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  auto cli = birp::bench::Cli::parse(argc, argv, /*default_slots=*/40,
                                     /*default_target=*/0.55);
  std::string json_path = "BENCH_solver.json";
  int threads = 4;
  bool check = false;
  bool quick = false;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (flag == "--quick") {
      quick = true;
      cli.slots = 12;
    } else if (flag == "--json" && a + 1 < argc) {
      json_path = argv[++a];
    } else if (flag == "--threads" && a + 1 < argc) {
      threads = std::atoi(argv[++a]);
    } else if (flag == "--check") {
      check = true;  // fail (exit 1) on any regression gate below
    }
  }

  const auto scenario = birp::bench::make_scenario(
      birp::device::ClusterSpec::paper_large(), cli);

  std::vector<ConfigResult> results;
  results.push_back(run_config("cold-serial", "paper_large", scenario, false));
  results.push_back(run_config("warm-serial", "paper_large", scenario, true));

  // A synthetic 100-edge x 20-app cluster, scheduled through CellScheduler
  // sharding (48 cells of ~2 edges) the way ROADMAP's large-cluster path
  // prescribes, with per-cell warm starts. Fewer slots than paper_large —
  // each decide still spans 48 MILPs.
  birp::workload::TopologyConfig topo_config;
  topo_config.edges = 100;
  topo_config.apps = 20;
  topo_config.variants_per_app = 2;
  topo_config.seed = cli.seed;
  const auto topology = birp::workload::generate_topology(topo_config);
  auto large_cli = cli;
  large_cli.slots = quick ? 4 : 10;
  const int large_slots = large_cli.slots;
  const auto large_scenario = birp::bench::make_scenario(
      birp::workload::make_cluster(topology, topo_config), large_cli);
  results.push_back(run_large_config("sparse-large", "synthetic-100x20",
                                     large_scenario, topology, /*cells=*/48,
                                     threads));

  birp::util::TextTable table({"config", "cluster", "nodes",
                               "simplex pivots", "factor pivots", "warm LPs",
                               "cold LPs", "give-ups sing/stall/P2",
                               "decide p50 ms", "decide p95 ms", "total ms"});
  for (const auto& r : results) {
    table.add_row({r.name, r.cluster, std::to_string(r.nodes),
                   std::to_string(r.simplex_pivots),
                   std::to_string(r.factor_pivots),
                   std::to_string(r.warm_lp_solves),
                   std::to_string(r.cold_lp_solves),
                   std::to_string(r.give_ups.singular) + "/" +
                       std::to_string(r.give_ups.repair_stall) + "/" +
                       std::to_string(r.give_ups.phase2_limit),
                   birp::util::fixed(r.decide_ms_p50, 3),
                   birp::util::fixed(r.decide_ms_p95, 3),
                   birp::util::fixed(r.decide_ms_total, 1)});
  }
  table.print(std::cout, "bench_solver — paper_large " +
                             std::to_string(cli.slots) +
                             " slots, synthetic-100x20 " +
                             std::to_string(large_slots) + " slots");

  const double cold = static_cast<double>(results[0].simplex_pivots);
  const double warm = static_cast<double>(results[1].simplex_pivots);
  const double reduction = warm > 0.0 ? cold / warm : 0.0;
  write_json(json_path, cli, threads, large_slots, results, reduction);
  std::cout << "\nwrote " << json_path << "\n";

  std::cout << "warm-path pivot reduction vs cold: "
            << birp::util::fixed(reduction, 2) << "x\n";
  const double factor_ratio = factor_pivots_per_pivot(results[1]);
  std::cout << "warm-serial factor pivots per simplex pivot: "
            << birp::util::fixed(factor_ratio, 2) << "\n";
  const auto& large = results.back();
  std::cout << "sparse-large decide p95: "
            << birp::util::fixed(large.decide_ms_p95, 1) << " ms\n";

  bool ok = true;
  if (check) {
    if (reduction < 2.0) {
      std::cerr << "FAIL: warm starts reduced simplex pivots by only "
                << birp::util::fixed(reduction, 2) << "x (< 2x)\n";
      ok = false;
    }
    // Branch-and-bound children resume their parent's LU; refactorizing
    // every child instead costs ~12.5 eliminations per simplex pivot.
    if (factor_ratio >= 11.0) {
      std::cerr << "FAIL: warm-serial spends "
                << birp::util::fixed(factor_ratio, 2)
                << " factor pivots per simplex pivot (>= 11)\n";
      ok = false;
    }
    // Every warm-serial LP after the first slot's root has a basis to start
    // from; a second cold LP means a warm attempt was abandoned.
    if (results[1].cold_lp_solves > 1) {
      std::cerr << "FAIL: warm-serial ran " << results[1].cold_lp_solves
                << " cold LPs (> 1, only the first slot's root)\n";
      ok = false;
    }
    if (large.decide_ms_p95 >= 1000.0) {
      std::cerr << "FAIL: sparse-large decide p95 "
                << birp::util::fixed(large.decide_ms_p95, 1)
                << " ms >= 1000 ms on the 100-edge cluster\n";
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
