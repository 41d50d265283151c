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
// The 16-cell arm runs at cell_threads 0, 1 and 8 and the decision streams
// are compared bit-for-bit — the subsystem's defining property (decisions
// are a function of the partition, never of the thread count). The calling
// thread solves cells alongside the cell_threads pool workers, so t0 is the
// caller alone, t1 runs two solvers and t8 nine.
//
// Writes its report as JSON with --json PATH; CI runs `bench_cluster --quick
// --check --json` and archives the JSON. The committed BENCH_cluster.json at
// the repo root is the current baseline (the full 4-slot run). --check fails
// unless, at the fixed geometry (100 edges, 20,000-pivot budget),
//   * 16-cell decide wall-time beats monolithic by >= 3x,
//   * sharded goodput is within 5% of monolithic,
//   * 16-cell decisions are bit-identical at 0 vs 8 and 1 vs 8 cell
//     threads.
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

#include "birp/cluster/cell_scheduler.hpp"
#include "birp/cluster/partition.hpp"
#include "birp/workload/topology.hpp"

namespace {

constexpr int kEdges = 100;
constexpr long kPivotBudget = 20000;  ///< per-LP, shared by every arm
constexpr int kThreads = 8;

}  // namespace

int main(int argc, char** argv) {
  birp::bench::Flags flags(/*default_slots=*/4, /*default_target=*/0.5);
  // --quick: 2 slots and no slow mid-granularity 4-cell arm.
  flags.with_quick(2)
      .option("--check", flags.check)
      .option("--json", flags.json);
  flags.parse_or_exit(argc, argv);

  birp::workload::TopologyConfig tc;
  tc.edges = kEdges;
  tc.apps = 10;
  tc.variants_per_app = 2;
  tc.seed = flags.seed;
  const auto topology = birp::workload::generate_topology(tc);
  const auto scenario = birp::bench::make_scenario(
      birp::workload::make_cluster(topology, tc), flags);

  birp::bench::Report report("bench_cluster");
  report.param("topology", "scale-free")
      .param("edges", kEdges)
      .param("slots", flags.slots)
      .param("target", flags.target)
      .param("seed", flags.seed)
      .param("pivot_budget", kPivotBudget);

  const auto run_arm = [&](const std::string& name, int cells, int threads) {
    birp::cluster::PartitionConfig pc;
    pc.cells = cells;
    birp::cluster::CellSchedulerConfig cc;
    cc.birp.solver.lp.max_iterations = kPivotBudget;
    cc.cell_threads = threads;
    // Offline beliefs keep every arm on identical per-cell problems (no
    // online estimator state drifting with feedback ordering).
    cc.birp.online = false;
    birp::cluster::CellScheduler scheduler(
        scenario.cluster,
        birp::cluster::partition_cluster(scenario.cluster, &topology.link_mbps,
                                         pc),
        cc);
    auto replay = birp::bench::replay_decide(scheduler, scenario.trace);
    std::int64_t served = 0;
    std::int64_t dropped = 0;
    for (const auto& decision : replay.decisions) {
      served += decision.total_served();
      dropped += decision.total_dropped();
    }
    const double goodput =
        birp::bench::ratio(static_cast<double>(served),
                           static_cast<double>(scenario.trace.total()));
    auto& arm = report.arm()
                    .add("name", name)
                    .add("cells", cells)
                    .add("cell_threads", threads)
                    .add("fallbacks", scheduler.fallback_count())
                    .add("served", served)
                    .add("dropped", dropped)
                    .add("inter_cell_moved", scheduler.balancer().moved_total())
                    .add("goodput", {goodput, 4});
    birp::bench::add_decide_ms(arm, replay.decide_ms);
    return std::move(replay.decisions);
  };
  run_arm("monolithic", /*cells=*/1, /*threads=*/0);
  if (!flags.quick) run_arm("4-cell", 4, kThreads);
  const auto t0 = run_arm("16-cell/t0", 16, 0);
  const auto t1 = run_arm("16-cell/t1", 16, 1);
  const auto tn = run_arm("16-cell/t" + std::to_string(kThreads), 16, kThreads);

  const auto& mono = report.find("monolithic");
  const auto& sharded = report.find("16-cell/t" + std::to_string(kThreads));
  const double speedup = birp::bench::ratio(mono.number("decide_ms_total"),
                                            sharded.number("decide_ms_total"));
  const double goodput_gap =
      birp::bench::ratio(sharded.number("goodput") - mono.number("goodput"),
                         mono.number("goodput"));
  const bool caller_only_identical = birp::bench::streams_equal(t0, tn);
  const bool bit_identical = birp::bench::streams_equal(t1, tn);
  report.result("speedup_16c_vs_mono", {speedup, 2})
      .result("goodput_gap_vs_mono", {goodput_gap, 4})
      .result("bit_identical_across_threads",
              caller_only_identical && bit_identical);
  report.gate("16-cell decide speedup vs monolithic", speedup, ">=", 3.0);
  report.gate("|goodput gap vs monolithic|", std::abs(goodput_gap), "<=", 0.05);
  report.gate("16-cell decisions t0 == t" + std::to_string(kThreads),
              caller_only_identical,
              caller_only_identical ? "bit-identical" : "differ");
  report.gate("16-cell decisions t1 == t" + std::to_string(kThreads),
              bit_identical, bit_identical ? "bit-identical" : "differ");
  return report.finish(flags);
}
