// Tests for the hierarchical sharded scheduling subsystem (birp/cluster):
// partitioner invariants, inter-cell balancer contracts, and the
// CellScheduler's defining properties — byte-identity at k = 1 and
// bit-identical decisions at any thread count.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "birp/cluster/balancer.hpp"
#include "birp/cluster/cell_scheduler.hpp"
#include "birp/cluster/partition.hpp"
#include "birp/core/birp_scheduler.hpp"
#include "birp/device/cluster.hpp"
#include "birp/metrics/run_metrics.hpp"
#include "birp/serve/engine.hpp"
#include "birp/sim/simulator.hpp"
#include "birp/sim/validate.hpp"
#include "birp/util/rng.hpp"
#include "birp/workload/generator.hpp"
#include "birp/workload/topology.hpp"

namespace birp::cluster {
namespace {

workload::TopologyConfig small_topology_config(int edges, int apps) {
  workload::TopologyConfig config;
  config.edges = edges;
  config.apps = apps;
  config.variants_per_app = 2;
  return config;
}

void expect_valid_partition(const Partition& partition, int devices,
                            int cells) {
  EXPECT_EQ(partition.cells(), cells);
  ASSERT_EQ(partition.devices(), devices);
  std::vector<int> seen(static_cast<std::size_t>(devices), 0);
  for (int c = 0; c < partition.cells(); ++c) {
    const auto& members = partition.members[static_cast<std::size_t>(c)];
    ASSERT_FALSE(members.empty()) << "cell " << c << " is empty";
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    for (const int k : members) {
      ASSERT_GE(k, 0);
      ASSERT_LT(k, devices);
      ++seen[static_cast<std::size_t>(k)];
      EXPECT_EQ(partition.cell_of[static_cast<std::size_t>(k)], c);
    }
    if (c > 0) {
      // Canonical cell order: ascending smallest member.
      EXPECT_LT(partition.members[static_cast<std::size_t>(c - 1)].front(),
                members.front());
    }
  }
  for (const int count : seen) EXPECT_EQ(count, 1);  // no orphans, no dupes
}

/// Kernighan–Lin convergence: no single device can move to another cell
/// under `cap` members, without emptying its own, and lower the cut.
void expect_refinement_converged(const Partition& partition,
                                 const util::Grid2<double>& affinity,
                                 int cap) {
  for (int v = 0; v < partition.devices(); ++v) {
    const int cur = partition.cell_of[static_cast<std::size_t>(v)];
    if (partition.members[static_cast<std::size_t>(cur)].size() <= 1) continue;
    std::vector<double> connection(
        static_cast<std::size_t>(partition.cells()), 0.0);
    for (int u = 0; u < partition.devices(); ++u) {
      if (u == v) continue;
      connection[static_cast<std::size_t>(
          partition.cell_of[static_cast<std::size_t>(u)])] += affinity(v, u);
    }
    for (int c = 0; c < partition.cells(); ++c) {
      const auto size = static_cast<int>(
          partition.members[static_cast<std::size_t>(c)].size());
      if (c == cur || size >= cap) continue;
      EXPECT_LE(connection[static_cast<std::size_t>(c)],
                connection[static_cast<std::size_t>(cur)] + 1e-12)
          << "moving device " << v << " to cell " << c << " lowers the cut";
    }
  }
}

void expect_decisions_equal(const sim::SlotDecision& a,
                            const sim::SlotDecision& b) {
  EXPECT_EQ(a.served.raw(), b.served.raw());
  EXPECT_EQ(a.kernel.raw(), b.kernel.raw());
  EXPECT_EQ(a.drops.raw(), b.drops.raw());
  EXPECT_EQ(a.pad_partial_launches, b.pad_partial_launches);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].app, b.flows[f].app);
    EXPECT_EQ(a.flows[f].from, b.flows[f].from);
    EXPECT_EQ(a.flows[f].to, b.flows[f].to);
    EXPECT_EQ(a.flows[f].count, b.flows[f].count);
  }
}

// ----------------------------------------------------------- partitioner ----

TEST(Partition, CoversEveryDeviceExactlyOnce) {
  const auto config = small_topology_config(30, 3);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);
  PartitionConfig pc;
  pc.cells = 4;
  const auto partition =
      partition_cluster(cluster, &topology.link_mbps, pc);
  expect_valid_partition(partition, 30, 4);
}

TEST(Partition, DeterministicInConfig) {
  const auto config = small_topology_config(40, 3);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);
  PartitionConfig pc;
  pc.cells = 5;
  const auto a = partition_cluster(cluster, &topology.link_mbps, pc);
  const auto b = partition_cluster(cluster, &topology.link_mbps, pc);
  EXPECT_EQ(a.cell_of, b.cell_of);
  EXPECT_EQ(a.members, b.members);
  // A different seed still yields a valid (possibly different) partition.
  pc.seed += 1;
  const auto c = partition_cluster(cluster, &topology.link_mbps, pc);
  expect_valid_partition(c, 40, 5);
}

TEST(Partition, BalanceToleranceBoundsCellSizes) {
  const auto config = small_topology_config(47, 2);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);
  PartitionConfig pc;
  pc.cells = 5;
  const auto partition =
      partition_cluster(cluster, &topology.link_mbps, pc);
  expect_valid_partition(partition, 47, 5);
  // cap = ceil(1.15 * 47 / 5) = 11
  for (const auto& members : partition.members) {
    EXPECT_LE(static_cast<int>(members.size()), 11);
  }
}

TEST(Partition, RefinementNeverWorsensTheCut) {
  // Refinement takes only single-device moves that strictly lower the cut
  // and stops once a sweep finds none; this instance converges well inside
  // the sweep budget, so no balanced single-device move may lower its cut.
  const auto config = small_topology_config(36, 2);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);
  const auto affinity = build_affinity(cluster, &topology.link_mbps,
                                       PartitionObjective::kBandwidth);
  PartitionConfig pc;
  pc.cells = 4;
  const auto partition = partition_affinity(affinity, pc);
  expect_valid_partition(partition, 36, 4);
  // cap = ceil(1.15 * 36 / 4) = 11
  expect_refinement_converged(partition, affinity, 11);
}

TEST(Partition, SixPassRefinementInstanceIsPinned) {
  // A dense random affinity graph on which Kernighan–Lin refinement still
  // improves the cut in its sixth sweep and converges there: the pinned
  // partition is what exactly six passes produce (five stop one move
  // short, cut 134.823), and it leaves no improving balanced move.
  util::Xoshiro256StarStar rng(882);
  const int K = 8 + static_cast<int>(rng.uniform_int(0, 40));
  const int cells = 2 + static_cast<int>(rng.uniform_int(0, 6));
  const double density = rng.uniform(0.1, 0.9);
  ASSERT_EQ(K, 30);
  ASSERT_EQ(cells, 7);
  util::Grid2<double> affinity(K, K, 0.0);
  for (int a = 0; a < K; ++a) {
    for (int b = a + 1; b < K; ++b) {
      if (rng.uniform() < density) {
        const double w = rng.uniform(0.0, 1.0);
        affinity(a, b) = w;
        affinity(b, a) = w;
      }
    }
  }
  PartitionConfig pc;
  pc.cells = cells;
  const auto partition = partition_affinity(affinity, pc);
  expect_valid_partition(partition, K, cells);
  EXPECT_EQ(partition.cell_of,
            (std::vector<int>{0, 1, 2, 3, 0, 3, 0, 4, 5, 1, 1, 2, 6, 6, 2,
                              5, 1, 0, 5, 2, 6, 3, 3, 2, 6, 1, 3, 0, 5, 6}));
  EXPECT_NEAR(cut_weight(partition, affinity), 134.42812173425287, 1e-9);
  // cap = ceil(1.15 * 30 / 7) = 5
  expect_refinement_converged(partition, affinity, 5);
}

TEST(Partition, CustomCostRecoversBlockStructure) {
  // Two 6-device blocks with affinity only inside a block: a custom pair
  // cost, given to the partitioner as its matrix, must yield the zero-cut
  // split.
  util::Grid2<double> affinity(12, 12, 0.0);
  for (int a = 0; a < 12; ++a) {
    for (int b = 0; b < 12; ++b) {
      if (a != b && (a < 6) == (b < 6)) affinity(a, b) = 1.0;
    }
  }
  PartitionConfig pc;
  pc.cells = 2;
  const auto partition = partition_affinity(affinity, pc);
  expect_valid_partition(partition, 12, 2);
  EXPECT_DOUBLE_EQ(cut_weight(partition, affinity), 0.0);
}

TEST(Partition, ObjectivesProduceValidPartitions) {
  const auto config = small_topology_config(24, 2);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);
  for (const auto objective :
       {PartitionObjective::kBalanced, PartitionObjective::kBandwidth,
        PartitionObjective::kAffinity}) {
    PartitionConfig pc;
    pc.cells = 3;
    pc.objective = objective;
    expect_valid_partition(
        partition_cluster(cluster, &topology.link_mbps, pc), 24, 3);
  }
}

TEST(Partition, SingleCellIsTheWholeCluster) {
  const auto config = small_topology_config(10, 2);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);
  PartitionConfig pc;
  pc.cells = 1;
  const auto partition = partition_cluster(cluster, &topology.link_mbps, pc);
  ASSERT_EQ(partition.cells(), 1);
  ASSERT_EQ(static_cast<int>(partition.members[0].size()), 10);
  for (int k = 0; k < 10; ++k) {
    EXPECT_EQ(partition.members[0][static_cast<std::size_t>(k)], k);
    EXPECT_EQ(partition.cell_of[static_cast<std::size_t>(k)], 0);
  }
}

// -------------------------------------------------------------- balancer ----

class BalancerFixture : public ::testing::Test {
 protected:
  BalancerFixture()
      : config_(small_topology_config(12, 3)),
        topology_(workload::generate_topology(config_)),
        cluster_(workload::make_cluster(topology_, config_)) {
    PartitionConfig pc;
    pc.cells = 4;
    partition_ = partition_cluster(cluster_, &topology_.link_mbps, pc);
  }

  /// Demand concentrated on cell `hot`: every device there gets `load` per
  /// app, everywhere else stays idle.
  [[nodiscard]] sim::SlotState skewed_state(int hot, std::int64_t load) const {
    sim::SlotState state;
    state.demand = util::Grid2<std::int64_t>(cluster_.num_apps(),
                                             cluster_.num_devices(), 0);
    for (const int k : partition_.members[static_cast<std::size_t>(hot)]) {
      for (int i = 0; i < cluster_.num_apps(); ++i) {
        state.demand(i, k) = load;
      }
    }
    return state;
  }

  workload::TopologyConfig config_;
  workload::Topology topology_;
  device::ClusterSpec cluster_;
  Partition partition_;
};

TEST_F(BalancerFixture, MovesFlowFromHotToColdCells) {
  InterCellBalancer balancer(cluster_, BalancerConfig{}, partition_.cells());
  const auto state = skewed_state(/*hot=*/0, /*load=*/40);
  const auto moves = balancer.plan(state, partition_);
  ASSERT_FALSE(moves.empty());
  EXPECT_GT(balancer.moved_total(), 0);
  for (const auto& move : moves) {
    EXPECT_EQ(partition_.cell_of[static_cast<std::size_t>(move.from)], 0);
    EXPECT_NE(partition_.cell_of[static_cast<std::size_t>(move.to)], 0);
    EXPECT_GT(move.count, 0);
    // Bounded by the per-slot move fraction of the donor's demand.
    EXPECT_LE(move.count,
              static_cast<std::int64_t>(
                  kMoveFraction *
                  static_cast<double>(state.demand(move.app, move.from))));
  }
}

TEST_F(BalancerFixture, RespectsNetworkBudgetFraction) {
  InterCellBalancer balancer(cluster_, BalancerConfig{}, partition_.cells());
  const auto state = skewed_state(0, 100000);  // far above any budget
  const auto moves = balancer.plan(state, partition_);
  ASSERT_FALSE(moves.empty());
  // Per donor/recipient pair the moved request-MB must fit the fraction of
  // the smaller endpoint budget.
  for (const auto& move : moves) {
    const double budget =
        kNetworkFraction * std::min(cluster_.network_mb(move.from),
                                    cluster_.network_mb(move.to));
    double moved_mb = 0.0;
    for (const auto& other : moves) {
      if (other.from == move.from && other.to == move.to) {
        moved_mb += static_cast<double>(other.count) *
                    cluster_.zoo().app(other.app).request_mb;
      }
    }
    EXPECT_LE(moved_mb, budget + 1e-9);
  }
}

TEST_F(BalancerFixture, NeverTouchesDownEdges) {
  InterCellBalancer balancer(cluster_, BalancerConfig{}, partition_.cells());
  auto state = skewed_state(0, 50);
  // Take down the hottest donor edge and one edge of every other cell.
  state.edge_up.assign(static_cast<std::size_t>(cluster_.num_devices()), 1);
  std::vector<int> down;
  for (int c = 0; c < partition_.cells(); ++c) {
    const int victim = partition_.members[static_cast<std::size_t>(c)].front();
    down.push_back(victim);
    state.edge_up[static_cast<std::size_t>(victim)] = 0;
  }
  const auto moves = balancer.plan(state, partition_);
  ASSERT_FALSE(moves.empty());
  for (const auto& move : moves) {
    EXPECT_TRUE(std::find(down.begin(), down.end(), move.from) == down.end());
    EXPECT_TRUE(std::find(down.begin(), down.end(), move.to) == down.end());
  }
}

TEST_F(BalancerFixture, HonorsImportAvoidanceHints) {
  InterCellBalancer with_hints(cluster_, BalancerConfig{}, partition_.cells());
  InterCellBalancer without_hints(cluster_, BalancerConfig{},
                                   partition_.cells());
  auto state = skewed_state(0, 50);
  const auto baseline = without_hints.plan(state, partition_);
  ASSERT_FALSE(baseline.empty());
  // Open the import breaker for every app everywhere: no move may land.
  sim::SchedulerHints hints;
  hints.avoid_import = util::Grid2<std::uint8_t>(cluster_.num_apps(),
                                                 cluster_.num_devices(), 1);
  state.hints = &hints;
  EXPECT_TRUE(with_hints.plan(state, partition_).empty());
}

TEST_F(BalancerFixture, DisabledPlansNothing) {
  BalancerConfig bc;
  bc.enabled = false;
  InterCellBalancer balancer(cluster_, bc, partition_.cells());
  EXPECT_TRUE(balancer.plan(skewed_state(0, 50), partition_).empty());
}

TEST_F(BalancerFixture, PropertyMovesRespectLivenessUnderMassFailure) {
  // Seeded property sweep: under arbitrary mass edge-down masks (up to half
  // the cluster at once) every planned move stays on live edges and within
  // the donor's demand. Exercises the storm regime the control plane sees
  // between a failure and the next repartition.
  util::Xoshiro256StarStar rng(0xdead5eedULL);
  const int K = cluster_.num_devices();
  int trials_with_moves = 0;
  for (int trial = 0; trial < 48; ++trial) {
    InterCellBalancer balancer(cluster_, BalancerConfig{}, partition_.cells());
    auto state = skewed_state(trial % partition_.cells(), 60);
    state.edge_up.assign(static_cast<std::size_t>(K), 1);
    for (int k = 0; k < K; ++k) {
      if (rng.bernoulli(0.5)) state.edge_up[static_cast<std::size_t>(k)] = 0;
    }
    const auto moves = balancer.plan(state, partition_);
    if (!moves.empty()) ++trials_with_moves;
    for (const auto& move : moves) {
      EXPECT_TRUE(state.is_up(move.from))
          << "trial " << trial << ": donated from down edge " << move.from;
      EXPECT_TRUE(state.is_up(move.to))
          << "trial " << trial << ": imported at down edge " << move.to;
      EXPECT_GT(move.count, 0);
      EXPECT_LE(move.count, state.demand(move.app, move.from));
    }
  }
  EXPECT_GE(trials_with_moves, 24);  // the sweep is not vacuous
}

TEST_F(BalancerFixture, FullyDownCellNeitherDonatesNorReceives) {
  // Kill every member of two cells outright: no move may originate in or
  // land on either, however empty (and thus "cold") they look. The hot cell
  // stays live so moves are actually planned.
  InterCellBalancer balancer(cluster_, BalancerConfig{}, partition_.cells());
  auto state = skewed_state(/*hot=*/2, /*load=*/80);
  state.edge_up.assign(static_cast<std::size_t>(cluster_.num_devices()), 1);
  for (const int c : {0, 1}) {
    for (const int k : partition_.members[static_cast<std::size_t>(c)]) {
      state.edge_up[static_cast<std::size_t>(k)] = 0;
    }
  }
  const auto moves = balancer.plan(state, partition_);
  ASSERT_FALSE(moves.empty());
  for (const auto& move : moves) {
    const int from_cell = partition_.cell_of[static_cast<std::size_t>(move.from)];
    const int to_cell = partition_.cell_of[static_cast<std::size_t>(move.to)];
    EXPECT_GT(from_cell, 1);
    EXPECT_GT(to_cell, 1);
  }
}

// -------------------------------------------------------- cell scheduler ----

TEST(CellScheduler, SingleCellIsByteIdenticalToMonolithic) {
  // k = 1 must be a byte-identical pass-through of the wrapped scheduler,
  // decision by decision, over a simulated horizon with feedback.
  const auto cluster = device::ClusterSpec(
      device::one_of_each(), model::Zoo::small_scale(), 6.0, 0x7e57);
  workload::GeneratorConfig gc;
  gc.slots = 5;
  gc.mean_per_edge = 12.0;
  const auto trace = workload::generate(cluster, gc);

  core::BirpConfig birp;
  core::BirpScheduler mono(cluster, birp);

  PartitionConfig pc;
  pc.cells = 1;
  CellSchedulerConfig cc;
  cc.birp = birp;
  CellScheduler sharded(cluster, partition_cluster(cluster, nullptr, pc), cc);
  EXPECT_EQ(sharded.cells(), 1);

  // Drive both through the simulator separately (identical inputs slot by
  // slot because the simulator is deterministic in its seed) and compare
  // the aggregate outcome bit for bit.
  const auto m1 = sim::Simulator(cluster, trace).run(mono);
  const auto m2 = sim::Simulator(cluster, trace).run(sharded);
  EXPECT_DOUBLE_EQ(m1.total_loss(), m2.total_loss());
  EXPECT_EQ(m1.total_requests(), m2.total_requests());
  EXPECT_EQ(m1.slo_failures(), m2.slo_failures());
  EXPECT_DOUBLE_EQ(m1.latency_quantile(0.5), m2.latency_quantile(0.5));
  EXPECT_DOUBLE_EQ(m1.latency_quantile(0.95), m2.latency_quantile(0.95));
  EXPECT_DOUBLE_EQ(m1.total_energy_j(), m2.total_energy_j());

  // And the very first decision matches structurally too (fresh schedulers,
  // no feedback yet).
  core::BirpScheduler mono2(cluster, birp);
  CellScheduler sharded2(cluster, partition_cluster(cluster, nullptr, pc), cc);
  sim::SlotState state;
  state.slot = 0;
  state.demand = util::Grid2<std::int64_t>(cluster.num_apps(),
                                           cluster.num_devices(), 0);
  for (int i = 0; i < cluster.num_apps(); ++i) {
    for (int k = 0; k < cluster.num_devices(); ++k) {
      state.demand(i, k) = trace.at(0, i, k);
    }
  }
  expect_decisions_equal(mono2.decide(state), sharded2.decide(state));
}

class ShardedFixture : public ::testing::Test {
 protected:
  ShardedFixture()
      : config_(small_topology_config(12, 3)),
        topology_(workload::generate_topology(config_)),
        cluster_(workload::make_cluster(topology_, config_)) {
    PartitionConfig pc;
    pc.cells = 4;
    partition_ = partition_cluster(cluster_, &topology_.link_mbps, pc);
    workload::GeneratorConfig gc;
    gc.slots = 3;
    gc.mean_per_edge = 10.0;
    trace_ = workload::generate(cluster_, gc);
  }

  [[nodiscard]] metrics::RunMetrics run(const CellSchedulerConfig& cc) const {
    CellScheduler scheduler(cluster_, partition_, cc);
    return sim::Simulator(cluster_, *trace_).run(scheduler);
  }

  workload::TopologyConfig config_;
  workload::Topology topology_;
  device::ClusterSpec cluster_;
  Partition partition_;
  std::optional<workload::Trace> trace_;
};

TEST_F(ShardedFixture, DecisionsBitIdenticalAcrossCellThreadCounts) {
  // The defining property: for a fixed partition, cell_threads is purely a
  // latency knob. Run the full simulated horizon (with feedback, faults off)
  // at 1 and at 8 threads and demand bit-equal outcomes.
  CellSchedulerConfig serial;
  serial.cell_threads = 0;
  CellSchedulerConfig parallel;
  parallel.cell_threads = 8;
  const auto m1 = run(serial);
  const auto m2 = run(parallel);
  EXPECT_DOUBLE_EQ(m1.total_loss(), m2.total_loss());
  EXPECT_EQ(m1.total_requests(), m2.total_requests());
  EXPECT_EQ(m1.slo_failures(), m2.slo_failures());
  EXPECT_EQ(m1.dropped(), m2.dropped());
  EXPECT_DOUBLE_EQ(m1.latency_quantile(0.5), m2.latency_quantile(0.5));
  EXPECT_DOUBLE_EQ(m1.latency_quantile(0.99), m2.latency_quantile(0.99));
  EXPECT_DOUBLE_EQ(m1.total_energy_j(), m2.total_energy_j());
}

TEST_F(ShardedFixture, FirstDecisionBitIdenticalAcrossThreads) {
  // Decision-level (not just metric-level) equality for one slot.
  CellSchedulerConfig serial;
  serial.cell_threads = 0;
  CellSchedulerConfig parallel;
  parallel.cell_threads = 8;
  CellScheduler a(cluster_, partition_, serial);
  CellScheduler b(cluster_, partition_, parallel);
  sim::SlotState state;
  state.slot = 0;
  state.demand = util::Grid2<std::int64_t>(cluster_.num_apps(),
                                           cluster_.num_devices(), 0);
  for (int i = 0; i < cluster_.num_apps(); ++i) {
    for (int k = 0; k < cluster_.num_devices(); ++k) {
      state.demand(i, k) = trace_->at(0, i, k);
    }
  }
  expect_decisions_equal(a.decide(state), b.decide(state));
}

TEST_F(ShardedFixture, MergedDecisionConservesSkewedDemandEndToEnd) {
  // Skewed demand forces balancer moves; the merged decision must go
  // through validate_and_repair with the ORIGINAL demand and come out
  // exactly conservative. The repair may cancel some flow (cell-local
  // flows compete with balancer flows for the same edge budgets), but the
  // balancer's network cap keeps that from wiping out the redistribution.
  CellScheduler scheduler(cluster_, partition_, CellSchedulerConfig{});
  sim::SlotState state;
  state.slot = 0;
  state.demand = util::Grid2<std::int64_t>(cluster_.num_apps(),
                                           cluster_.num_devices(), 0);
  for (const int k : partition_.members[0]) {
    for (int i = 0; i < cluster_.num_apps(); ++i) {
      state.demand(i, k) = 30;
    }
  }
  auto decision = scheduler.decide(state);
  EXPECT_GT(scheduler.balancer().moved_total(), 0);
  const auto inter_cell_flow = [&](const sim::SlotDecision& d) {
    std::int64_t total = 0;
    for (const auto& flow : d.flows) {
      if (partition_.cell_of[static_cast<std::size_t>(flow.from)] !=
          partition_.cell_of[static_cast<std::size_t>(flow.to)]) {
        total += flow.count;
      }
    }
    return total;
  };
  EXPECT_EQ(inter_cell_flow(decision), scheduler.balancer().moved_total());
  (void)sim::validate_and_repair(cluster_, state.demand, nullptr, decision);
  // The balancer's network cap keeps repair-time cancellation (cell-local
  // flows competing for the same budgets) from wiping out redistribution.
  EXPECT_GT(inter_cell_flow(decision), 0);
  // Post-repair the decision is exactly conservative by construction; the
  // moved requests must show up as served or dropped somewhere, not vanish.
  std::int64_t accounted = decision.total_served() + decision.total_dropped();
  std::int64_t demanded = 0;
  for (const auto d : state.demand.raw()) demanded += d;
  EXPECT_EQ(accounted, demanded);
}

TEST_F(ShardedFixture, ReportsAggregateFallbacksAndName) {
  CellSchedulerConfig cc;
  CellScheduler scheduler(cluster_, partition_, cc);
  EXPECT_EQ(scheduler.name(), "BIRP-CLUSTER/4");
  EXPECT_EQ(scheduler.fallback_count(), 0);
  CellSchedulerConfig offline;
  offline.offline = true;
  offline.name_override = "custom";
  CellScheduler named(cluster_, partition_, offline);
  EXPECT_EQ(named.name(), "custom");
}

TEST_F(ShardedFixture, RunsUnderTheServeEngine) {
  CellSchedulerConfig cc;
  cc.cell_threads = 2;
  CellScheduler scheduler(cluster_, partition_, cc);
  serve::ServeConfig sc;
  sc.threads = 2;
  serve::ServeEngine engine(cluster_, *trace_, sc);
  const auto metrics = engine.run(scheduler);
  EXPECT_EQ(metrics.total_requests(), trace_->total());
}

TEST_F(ShardedFixture, SurvivesEdgeFailuresWithinACell) {
  CellSchedulerConfig cc;
  CellScheduler scheduler(cluster_, partition_, cc);
  sim::SlotState state;
  state.slot = 0;
  state.demand = util::Grid2<std::int64_t>(cluster_.num_apps(),
                                           cluster_.num_devices(), 5);
  state.edge_up.assign(static_cast<std::size_t>(cluster_.num_devices()), 1);
  state.edge_up[static_cast<std::size_t>(partition_.members[0].front())] = 0;
  auto decision = scheduler.decide(state);
  // Nothing may be served on the dead edge.
  const int dead = partition_.members[0].front();
  for (int i = 0; i < cluster_.num_apps(); ++i) {
    for (int j = 0; j < cluster_.zoo().max_variants(); ++j) {
      EXPECT_EQ(decision.served(i, j, dead), 0);
    }
  }
}

}  // namespace
}  // namespace birp::cluster
