// Solver perf sweep: the tracked baseline for per-slot MILP solving.
//
// Replays slot sequences through BirpScheduler::decide under three solver
// arms —
//   cold-serial   warm starts off: every node LP starts from the
//                 all-logical basis (the comparison baseline)
//   warm-serial   node LPs resume their parent's live LP state
//                 (factorization included) + cross-slot warm starts
//   sparse-large  a synthetic 100-edge x 20-app cluster scheduled the way
//                 the repo schedules large clusters: CellScheduler sharding
//                 (48 cells), warm-started node LPs per cell, cells solved
//                 on a pool of --threads workers
// — and reports per-arm node/pivot totals and decide-latency percentiles
// (JSON with --json PATH). CI runs `bench_solver --quick --check --json` and
// archives the JSON, so the solver's perf trajectory is tracked PR over PR;
// the committed BENCH_solver.json at the repo root is the current baseline
// (the full 40-slot run).
//
// Decisions are bit-identical across thread counts by construction (see
// cluster/cell_scheduler.hpp); the warm-serial decision stream is pinned by
// a golden digest, and its simplex pivots and nodes exactly, in
// tests/solver_warm_test.cpp. Each arm also reports its
// abandoned warm attempts by reason (singular basis, repair stall, Phase II
// limit). `--check` gates the warm pivot reduction (at least 2x),
// warm-serial's refactorization work (under 11 factor pivots per simplex
// pivot: about 9 when children inherit their parent's LU, about 12.5 when
// every child refactorizes from its Basis), warm-serial's structural
// eliminations per simplex pivot (under 2.53, half the 5.06 the
// product-form eta file needed on the --quick run: the Forrest–Tomlin LU
// refactorizes on its interval instead of every 23-49 pivots), warm-serial's
// BTRANs per simplex pivot (under 1.16: 1.37 on the --quick run while the
// dual repair solved for its duals on every pivot, 0.95 since it keeps its
// reduced costs between pivots), warm-serial's cold LPs (at most 1: the
// first slot's root, which has no basis to start from), cold-serial's
// simplex pivots per cold LP (under 862 on the --quick run: midway between
// the 1186 of primal Phase I over artificial columns and the 538 of the dual
// repair from the all-logical basis that replaced it) and the sparse-large
// decide p95 (under 1000 ms).
#include <string>
#include <vector>

#include "common.hpp"

#include "birp/cluster/cell_scheduler.hpp"
#include "birp/cluster/partition.hpp"
#include "birp/core/birp_scheduler.hpp"
#include "birp/device/cluster.hpp"
#include "birp/solver/solution.hpp"
#include "birp/workload/topology.hpp"

namespace {

/// Adds the solver counters of `cells` (a monolithic arm is one cell),
/// summed, so the sharded arm stays comparable with the monolithic ones.
void add_solver_counters(
    birp::bench::Row& arm,
    const std::vector<const birp::core::BirpScheduler*>& cells,
    std::int64_t fallbacks) {
  std::int64_t nodes = 0, pivots = 0, factor_pivots = 0, structural = 0;
  std::int64_t btrans = 0, warm = 0, cold = 0;
  birp::solver::WarmGiveUps give_ups;
  for (const auto* cell : cells) {
    nodes += cell->total_nodes();
    pivots += cell->total_pivots();
    factor_pivots += cell->total_factor_pivots();
    structural += cell->total_structural_factor_pivots();
    btrans += cell->total_btran_solves();
    warm += cell->warm_lp_solves();
    cold += cell->cold_lp_solves();
    give_ups += cell->warm_give_ups();
  }
  arm.add("nodes", nodes)
      .add("simplex_pivots", pivots)
      .add("factor_pivots", factor_pivots)
      .add("structural_factor_pivots", structural)
      .add("btran_solves", btrans)
      .add("warm_lp_solves", warm)
      .add("cold_lp_solves", cold)
      .add("give_ups_singular", give_ups.singular)
      .add("give_ups_repair_stall", give_ups.repair_stall)
      .add("give_ups_phase2_limit", give_ups.phase2_limit)
      .add("fallbacks", fallbacks);
}

}  // namespace

int main(int argc, char** argv) {
  birp::bench::Flags flags(/*default_slots=*/40, /*default_target=*/0.55);
  int threads = 4;
  flags.with_quick(12)
      .option("--check", flags.check)
      .option("--json", flags.json)
      .option("--threads", threads);
  flags.parse_or_exit(argc, argv);
  const int large_slots = flags.quick ? 4 : 10;

  birp::bench::Report report("bench_solver");
  report.param("cluster", "paper_large")
      .param("large_cluster", "synthetic-100x20")
      .param("slots", flags.slots)
      .param("large_slots", large_slots)
      .param("target", flags.target)
      .param("seed", flags.seed)
      .param("threads", threads);

  const auto scenario = birp::bench::make_scenario(
      birp::device::ClusterSpec::paper_large(), flags);
  for (const bool warm : {false, true}) {
    birp::core::BirpConfig config;
    config.solver.warm_start = warm;
    // Offline beliefs keep the arms on identical problems (no online
    // estimator state drifting with feedback ordering).
    auto scheduler =
        birp::core::BirpScheduler::offline(scenario.cluster, config);
    const auto replay = birp::bench::replay_decide(scheduler, scenario.trace);
    auto& arm = report.arm()
                    .add("name", warm ? "warm-serial" : "cold-serial")
                    .add("cluster", "paper_large")
                    .add("cells", 1);
    add_solver_counters(arm, {&scheduler}, scheduler.fallback_count());
    birp::bench::add_decide_ms(arm, replay.decide_ms);
  }

  // A synthetic 100-edge x 20-app cluster, scheduled the way the repo
  // schedules clusters of this size: CellScheduler sharding (48 cells of ~2
  // edges, one warm-started BirpScheduler each, solved concurrently). Fewer
  // slots than paper_large — each decide still spans 48 MILPs.
  birp::workload::TopologyConfig topo_config;
  topo_config.edges = 100;
  topo_config.apps = 20;
  topo_config.variants_per_app = 2;
  topo_config.seed = flags.seed;
  const auto topology = birp::workload::generate_topology(topo_config);
  const auto large_scenario = birp::bench::make_scenario(
      birp::workload::make_cluster(topology, topo_config), large_slots,
      flags.target, flags.seed);
  birp::cluster::PartitionConfig pc;
  pc.cells = 48;
  birp::cluster::CellSchedulerConfig cc;
  cc.birp.solver.warm_start = true;
  // Same real-time pivot budget bench_cluster uses for its sharded arms: a
  // cell that blows past it falls back to the greedy repair instead of
  // blocking the slot deadline.
  cc.birp.solver.lp.max_iterations = 3000;
  cc.cell_threads = threads;
  // Identical problems across runs, as in the other arms.
  cc.birp.online = false;
  birp::cluster::CellScheduler large(
      large_scenario.cluster,
      birp::cluster::partition_cluster(large_scenario.cluster,
                                       &topology.link_mbps, pc),
      cc);
  const auto replay = birp::bench::replay_decide(large, large_scenario.trace);
  std::vector<const birp::core::BirpScheduler*> cells;
  for (int c = 0; c < large.cells(); ++c) cells.push_back(&large.cell(c));
  auto& arm = report.arm()
                  .add("name", "sparse-large")
                  .add("cluster", "synthetic-100x20")
                  .add("cells", pc.cells);
  add_solver_counters(arm, cells, large.fallback_count());
  birp::bench::add_decide_ms(arm, replay.decide_ms);

  const auto& cold = report.find("cold-serial");
  const auto& warm = report.find("warm-serial");
  const double reduction = birp::bench::ratio(cold.number("simplex_pivots"),
                                              warm.number("simplex_pivots"));
  // Refactorization eliminations per simplex pivot: how much LU work each
  // pivot drags along (children resuming their parent's factorization keep
  // this low; refactorizing every child costs ~12.5).
  const double factor_ratio = birp::bench::ratio(
      warm.number("factor_pivots"), warm.number("simplex_pivots"));
  // The same, counting only the eliminations of basic columns with more
  // than one nonzero (singleton logicals cost nothing).
  const double structural_ratio = birp::bench::ratio(
      warm.number("structural_factor_pivots"), warm.number("simplex_pivots"));
  // B^{-T} solves per simplex pivot: Phase II prices from one BTRAN of the
  // basic costs per iteration, the dual repair from one of the pivot row
  // (its reduced costs are updated along that row).
  const double btran_ratio = birp::bench::ratio(warm.number("btran_solves"),
                                                warm.number("simplex_pivots"));
  // What one LP from the all-logical basis costs: the dual repair to a
  // feasible basis, then Phase II.
  const double cold_pivots_per_lp = birp::bench::ratio(
      cold.number("simplex_pivots"), cold.number("cold_lp_solves"));
  report.result("pivot_reduction_vs_cold", {reduction, 2})
      .result("warm_factor_pivots_per_pivot", {factor_ratio, 2})
      .result("warm_structural_factor_pivots_per_pivot", {structural_ratio, 2})
      .result("warm_btran_per_pivot", {btran_ratio, 2})
      .result("cold_pivots_per_cold_lp", {cold_pivots_per_lp, 1});
  report.gate("warm-serial pivot reduction vs cold", reduction, ">=", 2.0);
  report.gate("warm-serial factor pivots per simplex pivot", factor_ratio,
              "<", 11.0);
  report.gate("warm-serial structural factor pivots per simplex pivot",
              structural_ratio, "<", 2.53);
  report.gate("warm-serial BTRANs per simplex pivot", btran_ratio, "<", 1.16);
  // Every warm-serial LP after the first slot's root has a basis to start
  // from; a second cold LP means a warm attempt was abandoned.
  report.gate("warm-serial cold LPs", warm.number("cold_lp_solves"), "<=",
              1.0);
  report.gate("cold-serial simplex pivots per cold LP", cold_pivots_per_lp,
              "<", 862.0);
  report.gate("sparse-large decide_ms_p95",
              report.find("sparse-large").number("decide_ms_p95"), "<",
              1000.0);
  return report.finish(flags);
}
