// Tests for the self-healing cluster control plane: HealthTracker hysteresis
// and MTTR accounting, live repartitioning with estimator-state handoff, the
// cell-level degraded-operation watchdog, chaos-regime conservation and
// determinism, and the flash-crowd trace stressor.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "decision_digest.hpp"
#include "birp/cluster/cell_scheduler.hpp"
#include "birp/cluster/control_plane.hpp"
#include "birp/cluster/health.hpp"
#include "birp/cluster/partition.hpp"
#include "birp/core/birp_scheduler.hpp"
#include "birp/device/cluster.hpp"
#include "birp/fault/fault_plan.hpp"
#include "birp/metrics/run_metrics.hpp"
#include "birp/sim/simulator.hpp"
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

/// Control-plane configuration with fast (low-hysteresis) reactions so small
/// test horizons exercise the full detect -> repartition -> heal loop.
ControlPlaneConfig fast_config(int cells) {
  ControlPlaneConfig config;
  config.partition.cells = cells;
  config.health.down_after_misses = 2;
  config.health.up_after_beats = 1;
  config.churn_threshold = 1;
  config.cooldown_slots = 2;
  return config;
}

sim::SlotState uniform_state(const device::ClusterSpec& cluster, int slot,
                             std::int64_t load) {
  sim::SlotState state;
  state.slot = slot;
  state.demand =
      util::Grid2<std::int64_t>(cluster.num_apps(), cluster.num_devices(), load);
  state.edge_up.assign(static_cast<std::size_t>(cluster.num_devices()), 1);
  return state;
}

void expect_decisions_equal(const sim::SlotDecision& a,
                            const sim::SlotDecision& b) {
  EXPECT_EQ(a.served.raw(), b.served.raw());
  EXPECT_EQ(a.kernel.raw(), b.kernel.raw());
  EXPECT_EQ(a.drops.raw(), b.drops.raw());
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].app, b.flows[f].app);
    EXPECT_EQ(a.flows[f].from, b.flows[f].from);
    EXPECT_EQ(a.flows[f].to, b.flows[f].to);
    EXPECT_EQ(a.flows[f].count, b.flows[f].count);
  }
}

// --------------------------------------------------------- health tracker ----

TEST(HealthTracker, SuspectBlipClosesWithoutAnEvent) {
  HealthTracker tracker(2, HealthConfig{3, 2});
  tracker.observe(0, {1, 1});
  EXPECT_EQ(tracker.state(0), EdgeHealth::kHealthy);
  tracker.observe(1, {0, 1});  // one miss: suspect, still live
  EXPECT_EQ(tracker.state(0), EdgeHealth::kSuspect);
  EXPECT_TRUE(tracker.is_live(0));
  EXPECT_EQ(tracker.live_count(), 2);
  tracker.observe(2, {1, 1});  // blip over: back to healthy, no record
  EXPECT_EQ(tracker.state(0), EdgeHealth::kHealthy);
  EXPECT_TRUE(tracker.events().empty());
  EXPECT_EQ(tracker.declared_downs(), 0);
}

TEST(HealthTracker, DeclaresDownAndRecordsMttr) {
  HealthTracker tracker(1, HealthConfig{2, 2});
  tracker.observe(0, {1});
  tracker.observe(1, {0});  // first miss
  EXPECT_EQ(tracker.state(0), EdgeHealth::kSuspect);
  tracker.observe(2, {0});  // second consecutive miss: declared down
  EXPECT_EQ(tracker.state(0), EdgeHealth::kDown);
  EXPECT_FALSE(tracker.is_live(0));
  EXPECT_EQ(tracker.live_count(), 0);
  EXPECT_EQ(tracker.live_mask()[0], 0);
  ASSERT_EQ(tracker.events().size(), 1u);
  EXPECT_EQ(tracker.events()[0].edge, 0);
  EXPECT_EQ(tracker.events()[0].first_miss_slot, 1);
  EXPECT_EQ(tracker.events()[0].declared_down_slot, 2);
  EXPECT_FALSE(tracker.events()[0].closed());

  tracker.observe(3, {1});  // first beat: recovering, live again
  EXPECT_EQ(tracker.state(0), EdgeHealth::kRecovering);
  EXPECT_TRUE(tracker.is_live(0));
  tracker.observe(4, {1});  // second beat: healthy, event closes
  EXPECT_EQ(tracker.state(0), EdgeHealth::kHealthy);
  ASSERT_TRUE(tracker.events()[0].closed());
  EXPECT_EQ(tracker.events()[0].recovered_slot, 4);
  EXPECT_EQ(tracker.events()[0].mttr_slots(), 3);
  EXPECT_EQ(tracker.declared_downs(), 1);
  EXPECT_EQ(tracker.declared_recoveries(), 1);
}

TEST(HealthTracker, RelapseFoldsIntoTheSameEvent) {
  HealthTracker tracker(1, HealthConfig{1, 3});
  tracker.observe(0, {0});  // threshold 1: down immediately
  EXPECT_EQ(tracker.state(0), EdgeHealth::kDown);
  ASSERT_EQ(tracker.events().size(), 1u);
  tracker.observe(1, {1});
  tracker.observe(2, {1});  // two beats, needs three
  EXPECT_EQ(tracker.state(0), EdgeHealth::kRecovering);
  tracker.observe(3, {0});  // relapse: same outage, no new event
  EXPECT_EQ(tracker.state(0), EdgeHealth::kDown);
  EXPECT_EQ(tracker.events().size(), 1u);
  EXPECT_FALSE(tracker.events()[0].closed());
  tracker.observe(4, {1});
  tracker.observe(5, {1});
  tracker.observe(6, {1});  // third consecutive beat: closed at slot 6
  ASSERT_EQ(tracker.events().size(), 1u);
  EXPECT_TRUE(tracker.events()[0].closed());
  EXPECT_EQ(tracker.events()[0].recovered_slot, 6);
  EXPECT_EQ(tracker.events()[0].mttr_slots(), 6);
  EXPECT_EQ(tracker.declared_downs(), 1);
  EXPECT_EQ(tracker.declared_recoveries(), 1);
}

TEST(HealthTracker, EmptyMaskMeansEveryEdgeBeat) {
  HealthTracker tracker(3, HealthConfig{1, 1});
  tracker.observe(0, {0, 0, 0});
  EXPECT_EQ(tracker.live_count(), 0);
  tracker.observe(1, {});  // fault-free default: all beat
  EXPECT_EQ(tracker.live_count(), 3);
  for (const auto& event : tracker.events()) EXPECT_TRUE(event.closed());
}

// ----------------------------------------------------------- control plane ----

TEST(ControlPlane, RepartitionsOnCrashAndAgainOnRecovery) {
  const auto config = small_topology_config(12, 3);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);

  const auto trace = [&] {
    workload::GeneratorConfig gc;
    gc.slots = 24;
    gc.mean_per_edge = 5.0;
    return workload::generate(cluster, gc);
  }();
  sim::SimulatorConfig sc;
  // Down half of one region mid-run; recovery before the horizon so the
  // failure events close and MTTR is measurable.
  sc.fault_plan = fault::FaultPlan::single_edge_crash(2, 6, 14);
  sc.fault_plan.add_down(3, 6, 14);

  ControlPlane plane(cluster, &topology.link_mbps, fast_config(3));
  sim::Simulator simulator(cluster, trace, sc);
  metrics::RunMetrics metrics_run;
  std::vector<int> cut_slots;
  for (int t = 0; t < trace.slots(); ++t) {
    const std::int64_t before = plane.repartitions();
    (void)simulator.step(plane, &metrics_run);
    if (plane.repartitions() > before) cut_slots.push_back(t);
  }
  simulator.finish(plane, metrics_run);

  // The crash and the recovery each churned the debounced live set past the
  // threshold: the partition is re-cut exactly when the crash is declared
  // (second missed beat) and when the recovery is (first beat back). Shed
  // pressure during the outage may re-evaluate the cut, but it finds the
  // same one.
  EXPECT_EQ(cut_slots, (std::vector<int>{7, 14}));
  EXPECT_EQ(plane.repartitions(), 2);
  EXPECT_EQ(plane.health().declared_downs(), 2);
  EXPECT_EQ(plane.health().declared_recoveries(), 2);
  ASSERT_EQ(plane.health().events().size(), 2u);
  for (const auto& event : plane.health().events()) {
    EXPECT_TRUE(event.closed());
    EXPECT_GT(event.mttr_slots(), 0);
  }

  // Conservation holds through both handoffs.
  EXPECT_EQ(metrics_run.total_requests(), trace.total());

  // The exported metrics mirror the control plane's own counters.
  metrics::RunMetrics exported;
  plane.export_metrics(exported);
  EXPECT_EQ(exported.failure_events(), 2);
  EXPECT_EQ(exported.repartitions(), plane.repartitions());
  EXPECT_GT(exported.mttr_slots().mean(), 0.0);
  EXPECT_GE(exported.requests_at_risk(), 0);
  EXPECT_EQ(exported.requests_at_risk(), plane.requests_at_risk());
}

TEST(ControlPlane, EstimatorStateSurvivesRepartition) {
  const auto config = small_topology_config(12, 3);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);

  ControlPlane plane(cluster, &topology.link_mbps, fast_config(3));
  const int probe = 0;  // stays up; its learned state must ride the handoff

  // Train the probe edge's estimators with synthetic observations.
  for (int t = 0; t < 6; ++t) {
    (void)plane.decide(uniform_state(cluster, t, 4));
    sim::SlotFeedback feedback;
    feedback.slot = t;
    feedback.busy_s.assign(static_cast<std::size_t>(cluster.num_devices()),
                           0.0);
    for (int rep = 0; rep < 3; ++rep) {
      feedback.observations.push_back({probe, 0, 0, 4, 1.8});
    }
    plane.observe(feedback);
  }

  const auto snapshot = [&] {
    const int c = plane.partition().cell_of[static_cast<std::size_t>(probe)];
    return plane.scheduler().cell(c).export_device_estimators(
        plane.scheduler().local_index(probe));
  }();
  ASSERT_FALSE(snapshot.empty());
  EXPECT_GT(snapshot[0].within_count(), 0);  // the training actually landed

  // Crash two edges (not the probe) until the detector fires and the control
  // plane re-cuts the partition.
  int t = 6;
  while (plane.repartitions() == 0 && t < 20) {
    auto state = uniform_state(cluster, t, 4);
    state.edge_up[10] = 0;
    state.edge_up[11] = 0;
    (void)plane.decide(state);
    ++t;
  }
  ASSERT_GE(plane.repartitions(), 1);

  // Re-export from the re-cut cells: bit-for-bit the same beliefs.
  const int c = plane.partition().cell_of[static_cast<std::size_t>(probe)];
  const auto carried = plane.scheduler().cell(c).export_device_estimators(
      plane.scheduler().local_index(probe));
  ASSERT_EQ(carried.size(), snapshot.size());
  for (std::size_t e = 0; e < carried.size(); ++e) {
    EXPECT_EQ(carried[e].within_count(), snapshot[e].within_count());
    EXPECT_EQ(carried[e].beyond_count(), snapshot[e].beyond_count());
    const auto a = carried[e].mean_estimate();
    const auto b = snapshot[e].mean_estimate();
    EXPECT_DOUBLE_EQ(a.eta, b.eta);
    EXPECT_EQ(a.beta, b.beta);
    EXPECT_DOUBLE_EQ(a.c, b.c);
  }
}

TEST(ControlPlane, FallbackCountSurvivesRepartition) {
  // The RepartitionsOnCrashAndAgainOnRecovery run with no node budget: every
  // cell solve falls back, so the run's fallbacks are its cell-slots,
  // including those of the cells each re-cut retired.
  const auto config = small_topology_config(12, 3);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);
  workload::GeneratorConfig gc;
  gc.slots = 24;
  gc.mean_per_edge = 5.0;
  const auto trace = workload::generate(cluster, gc);
  sim::SimulatorConfig sc;
  sc.fault_plan = fault::FaultPlan::single_edge_crash(2, 6, 14);
  sc.fault_plan.add_down(3, 6, 14);

  auto cp = fast_config(3);
  cp.cell.birp.solver.max_nodes = 0;
  ControlPlane plane(cluster, &topology.link_mbps, cp);
  const auto metrics_run = sim::Simulator(cluster, trace, sc).run(plane);
  EXPECT_GE(plane.repartitions(), 1);
  EXPECT_EQ(metrics_run.solver_fallbacks(), 24 * 3);
  EXPECT_EQ(plane.fallback_count(), 24 * 3);
}

TEST(CellScheduler, RepartitionRestartsCountersAndCarriesEstimators) {
  // The contract a per-slot counter delta relies on: after repartition every
  // solver, watchdog and balancer counter restarts from zero, fallbacks
  // accumulate across the re-cut, and each device's estimators move intact.
  const auto config = small_topology_config(12, 3);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);
  const int K = cluster.num_devices();
  PartitionConfig pc;
  pc.cells = 3;
  CellSchedulerConfig cc;
  cc.birp.solver.lp.max_iterations = 1;  // every solve pivots, then falls back
  cc.watchdog.enabled = true;
  cc.watchdog.strike_threshold = 1;
  cc.watchdog.degraded_slots = 1;
  CellScheduler scheduler(
      cluster, partition_cluster(cluster, &topology.link_mbps, pc), cc);

  for (int t = 0; t < 6; ++t) {
    auto state = uniform_state(cluster, t, 1);
    for (int i = 0; i < cluster.num_apps(); ++i) {
      for (int k = 0; k < K; ++k) state.demand(i, k) = 1 + 3 * k;  // skewed
    }
    (void)scheduler.decide(state);
    sim::SlotFeedback feedback;
    feedback.slot = t;
    feedback.busy_s.assign(static_cast<std::size_t>(K), 0.0);
    for (int k = 0; k < K; ++k) {
      feedback.observations.push_back({k, 0, 0, 2 + k % 3, 1.0 + 0.1 * k});
    }
    scheduler.observe(feedback);
  }
  std::int64_t pivots = 0;
  for (int c = 0; c < scheduler.cells(); ++c) {
    pivots += scheduler.cell(c).total_pivots();
  }
  ASSERT_GT(pivots, 0);
  ASSERT_GT(scheduler.fallback_count(), 0);
  ASSERT_GT(scheduler.watchdog_trips(), 0);
  ASSERT_GT(scheduler.degraded_cell_slots(), 0);
  ASSERT_GT(scheduler.balancer().moved_total(), 0);

  std::vector<std::vector<core::TirEstimator>> before;
  for (int k = 0; k < K; ++k) {
    const int c = scheduler.partition().cell_of[static_cast<std::size_t>(k)];
    before.push_back(scheduler.cell(c).export_device_estimators(
        scheduler.local_index(k)));
    ASSERT_GT(before.back()[0].within_count() +
                  before.back()[0].beyond_count(),
              0);
  }
  const std::int64_t fallbacks = scheduler.fallback_count();

  std::vector<int> cell_of(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) cell_of[static_cast<std::size_t>(k)] = k % 3;
  Partition next = canonicalize(cell_of, 3);
  ASSERT_NE(next.cell_of, scheduler.partition().cell_of);
  scheduler.repartition(next);

  EXPECT_EQ(scheduler.partition().cell_of, next.cell_of);
  for (int c = 0; c < scheduler.cells(); ++c) {
    const auto& cell = scheduler.cell(c);
    EXPECT_EQ(cell.total_pivots(), 0);
    EXPECT_EQ(cell.total_nodes(), 0);
    EXPECT_EQ(cell.warm_lp_solves(), 0);
    EXPECT_EQ(cell.cold_lp_solves(), 0);
  }
  EXPECT_EQ(scheduler.watchdog_trips(), 0);
  EXPECT_EQ(scheduler.degraded_cell_slots(), 0);
  EXPECT_EQ(scheduler.balancer().moved_total(), 0);
  EXPECT_EQ(scheduler.fallback_count(), fallbacks);
  for (int k = 0; k < K; ++k) {
    const int c = next.cell_of[static_cast<std::size_t>(k)];
    const auto carried = scheduler.cell(c).export_device_estimators(
        scheduler.local_index(k));
    const auto& was = before[static_cast<std::size_t>(k)];
    ASSERT_EQ(carried.size(), was.size()) << "device " << k;
    for (std::size_t e = 0; e < carried.size(); ++e) {
      EXPECT_EQ(carried[e].within_count(), was[e].within_count());
      EXPECT_EQ(carried[e].beyond_count(), was[e].beyond_count());
      const auto a = carried[e].mean_estimate();
      const auto b = was[e].mean_estimate();
      EXPECT_EQ(a.eta, b.eta);
      EXPECT_EQ(a.beta, b.beta);
      EXPECT_EQ(a.c, b.c);
    }
  }
}

TEST(ControlPlane, StormConservesRequestsWithFailoverAcrossRepartitions) {
  // Satellite regression: orphans whose home edge moved cells mid-retry must
  // re-admit without double counting — exact conservation is the witness.
  const auto config = small_topology_config(12, 3);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);

  workload::GeneratorConfig gc;
  gc.slots = 28;
  gc.mean_per_edge = 5.0;
  gc.flash_start = 8;
  gc.flash_duration = 8;
  gc.flash_scale = 1.5;
  const auto trace = workload::generate(cluster, gc);

  fault::CorrelatedFailureOptions storm;
  storm.slots = 24;
  storm.devices = cluster.num_devices();
  storm.group_size = 4;
  storm.storm_rate = 0.2;
  storm.group_fraction = 0.6;
  storm.min_outage_slots = 5;
  storm.max_outage_slots = 9;
  storm.rescue_fraction = 0.5;
  storm.cooldown_slots = 6;
  sim::SimulatorConfig sc;
  sc.fault_plan = fault::FaultPlan::generate_correlated(storm);
  ASSERT_FALSE(sc.fault_plan.empty());
  sc.failover.enabled = true;
  sc.failover.retry_budget = 1;

  ControlPlane plane(cluster, &topology.link_mbps, fast_config(3));
  sim::Simulator simulator(cluster, trace, sc);
  const auto metrics_run = simulator.run(plane);

  EXPECT_EQ(metrics_run.total_requests(), trace.total());
  EXPECT_GT(metrics_run.retries(), 0);
  EXPECT_GE(plane.repartitions(), 1);
  EXPECT_GE(plane.health().declared_downs(), 1);
}

TEST(ControlPlane, BitIdenticalAcrossCellAndSimThreadsUnderStorm) {
  const auto config = small_topology_config(12, 3);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);

  workload::GeneratorConfig gc;
  gc.slots = 16;
  gc.mean_per_edge = 5.0;
  const auto trace = workload::generate(cluster, gc);

  fault::FaultPlan plan = fault::FaultPlan::single_edge_crash(4, 3, 9);
  plan.add_down(5, 3, 11);
  plan.add_bandwidth(0, 0, 16, 0.6);

  auto make_plane = [&](int cell_threads) {
    auto cp = fast_config(3);
    cp.cell.cell_threads = cell_threads;
    cp.cell.watchdog.enabled = true;  // degraded path must stay deterministic
    cp.cell.watchdog.pivot_budget = 50;
    cp.cell.watchdog.strike_threshold = 1;
    cp.cell.watchdog.degraded_slots = 2;
    return ControlPlane(cluster, &topology.link_mbps, cp);
  };
  // Caller only, caller + one worker, more workers than cells.
  auto plane_zero = make_plane(0);
  auto plane_one = make_plane(1);
  auto plane_many = make_plane(8);

  sim::SimulatorConfig sc;
  sc.fault_plan = plan;
  sc.failover.enabled = true;

  sim::Simulator sim_zero(cluster, trace, sc);
  sim::Simulator sim_one(cluster, trace, sc);
  sim::Simulator sim_many(cluster, trace, sc);
  metrics::RunMetrics m_zero;
  metrics::RunMetrics m_one;
  metrics::RunMetrics m_many;
  for (int t = 0; t < trace.slots(); ++t) {
    const auto z = sim_zero.step(plane_zero, &m_zero);
    const auto a = sim_one.step(plane_one, &m_one);
    const auto b = sim_many.step(plane_many, &m_many);
    expect_decisions_equal(z.decision, a.decision);
    expect_decisions_equal(a.decision, b.decision);
  }
  sim_zero.finish(plane_zero, m_zero);
  sim_one.finish(plane_one, m_one);
  sim_many.finish(plane_many, m_many);
  EXPECT_EQ(m_zero.total_requests(), trace.total());
  EXPECT_EQ(m_one.total_requests(), trace.total());
  EXPECT_EQ(m_many.total_requests(), trace.total());
  EXPECT_EQ(plane_zero.repartitions(), plane_one.repartitions());
  EXPECT_EQ(plane_one.repartitions(), plane_many.repartitions());
  EXPECT_EQ(plane_zero.scheduler().watchdog_trips(),
            plane_many.scheduler().watchdog_trips());
  EXPECT_EQ(m_zero.retries(), m_one.retries());
  EXPECT_EQ(m_one.retries(), m_many.retries());
  EXPECT_EQ(m_zero.orphan_dropped(), m_one.orphan_dropped());
  EXPECT_EQ(m_one.orphan_dropped(), m_many.orphan_dropped());
}

TEST(ControlPlane, StormDecisionStreamDigestIsPinned) {
  // 20 slots on 30 edges in 10 cells under a correlated rack storm and a
  // flash crowd. The churn trigger is out of reach, so every repartition
  // comes from the live-fraction or the shed-spread trigger; 10 cells give
  // 5 donor/recipient pairs, so the balancer's pair cap binds. The digest
  // covers every executed decision, the repartition count, the balancer's
  // moves and its final per-cell pressure EMAs.
  const auto config = small_topology_config(30, 3);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);

  workload::GeneratorConfig gc;
  gc.slots = 20;
  gc.mean_per_edge = 6.0;
  gc.flash_start = 4;
  gc.flash_duration = 10;
  const auto trace = workload::generate(cluster, gc);

  fault::CorrelatedFailureOptions storm;
  storm.slots = 20;
  storm.devices = cluster.num_devices();
  storm.group_size = 6;
  storm.storm_rate = 0.25;
  storm.group_fraction = 0.75;
  storm.min_outage_slots = 4;
  storm.max_outage_slots = 8;
  storm.cooldown_slots = 3;
  sim::SimulatorConfig sc;
  sc.fault_plan = fault::FaultPlan::generate_correlated(storm);
  ASSERT_FALSE(sc.fault_plan.empty());

  ControlPlaneConfig cp;
  cp.partition.cells = 10;
  cp.health.down_after_misses = 1;
  cp.health.up_after_beats = 1;
  cp.churn_threshold = 1000;
  cp.cooldown_slots = 2;
  ControlPlane plane(cluster, &topology.link_mbps, cp);
  sim::Simulator simulator(cluster, trace, sc);
  testutil::Fnv1a digest;
  for (int t = 0; t < trace.slots(); ++t) {
    testutil::hash_decision(digest, simulator.step(plane).decision);
  }
  const auto& balancer = plane.scheduler().balancer();
  digest.value(plane.repartitions());
  digest.value(balancer.moved_total());
  for (int c = 0; c < plane.scheduler().cells(); ++c) {
    digest.value(balancer.pressure(c).shed);
    digest.value(balancer.pressure(c).busy);
  }
  EXPECT_GE(plane.repartitions(), 1);
  EXPECT_GT(balancer.moved_total(), 0);
  EXPECT_EQ(digest.get(), 0x699204441277b401ULL) << std::hex << digest.get();
}

// ---------------------------------------------------------------- watchdog ----

TEST(CellWatchdog, TripsIntoDegradedModeAndConserves) {
  const auto config = small_topology_config(12, 3);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);

  PartitionConfig pc;
  pc.cells = 3;
  auto partition = partition_cluster(cluster, &topology.link_mbps, pc);

  CellSchedulerConfig cc;
  cc.watchdog.enabled = true;
  cc.watchdog.pivot_budget = 1;  // every real solve overruns
  cc.watchdog.strike_threshold = 1;
  cc.watchdog.degraded_slots = 3;
  CellScheduler scheduler(cluster, std::move(partition), cc);

  const auto trace = [&] {
    workload::GeneratorConfig gc;
    gc.slots = 12;
    gc.mean_per_edge = 5.0;
    return workload::generate(cluster, gc);
  }();
  sim::SimulatorConfig sc;
  sc.fault_plan = fault::FaultPlan::single_edge_crash(1, 2, 6);
  sim::Simulator simulator(cluster, trace, sc);
  const auto metrics_run = simulator.run(scheduler);

  EXPECT_GE(scheduler.watchdog_trips(), 1);
  EXPECT_GE(scheduler.degraded_cell_slots(), 1);
  // Degraded cells answer with the fallback planner: every request still
  // resolves exactly once.
  EXPECT_EQ(metrics_run.total_requests(), trace.total());
}

/// Forwards to a CellScheduler, optionally with fixed hints, and keeps the
/// slot state and raw decision of every slot in which a cell served degraded.
class DegradedSlotRecorder : public sim::Scheduler {
 public:
  struct Slot {
    util::Grid2<std::int64_t> demand;
    sim::SlotDecision decision;
  };

  DegradedSlotRecorder(CellScheduler& inner, const sim::SchedulerHints* hints)
      : inner_(inner), hints_(hints) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] sim::SlotDecision decide(const sim::SlotState& state) override {
    sim::SlotState hinted = state;
    if (hints_ != nullptr) hinted.hints = hints_;
    const std::int64_t before = inner_.degraded_cell_slots();
    auto decision = inner_.decide(hinted);
    if (inner_.degraded_cell_slots() > before) {
      slots.push_back({state.demand, decision});
    }
    return decision;
  }
  void observe(const sim::SlotFeedback& feedback) override {
    inner_.observe(feedback);
  }

  std::vector<Slot> slots;

 private:
  CellScheduler& inner_;
  const sim::SchedulerHints* hints_;
};

/// The TripsIntoDegradedModeAndConserves fixture (12 edges, 3 cells, every
/// real solve overruns) with edge `down` out for the whole run; returns the
/// degraded slots.
std::vector<DegradedSlotRecorder::Slot> degraded_slots_with_edge_down(
    int down, const sim::SchedulerHints* hints) {
  const auto config = small_topology_config(12, 3);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);

  PartitionConfig pc;
  pc.cells = 3;
  auto partition = partition_cluster(cluster, &topology.link_mbps, pc);

  CellSchedulerConfig cc;
  cc.watchdog.enabled = true;
  cc.watchdog.pivot_budget = 1;
  cc.watchdog.strike_threshold = 1;
  cc.watchdog.degraded_slots = 3;
  CellScheduler scheduler(cluster, std::move(partition), cc);
  DegradedSlotRecorder recorder(scheduler, hints);

  workload::GeneratorConfig gc;
  gc.slots = 12;
  gc.mean_per_edge = 5.0;
  const auto trace = workload::generate(cluster, gc);
  sim::SimulatorConfig sc;
  sc.fault_plan = fault::FaultPlan::single_edge_crash(down, 0, trace.slots());
  sim::Simulator simulator(cluster, trace, sc);
  const auto metrics_run = simulator.run(recorder);
  EXPECT_EQ(metrics_run.total_requests(), trace.total());
  EXPECT_GE(scheduler.watchdog_trips(), 1);
  return std::move(recorder.slots);
}

void expect_conserves(const sim::SlotDecision& decision,
                      const util::Grid2<std::int64_t>& demand) {
  for (int i = 0; i < decision.apps(); ++i) {
    for (int k = 0; k < decision.devices(); ++k) {
      std::int64_t served = 0;
      for (int j = 0; j < decision.max_variants(); ++j) {
        served += decision.served(i, j, k);
      }
      EXPECT_EQ(served + decision.drops(i, k),
                demand(i, k) - decision.exports(i, k) + decision.imports(i, k))
          << "app " << i << " edge " << k;
    }
  }
}

TEST(CellWatchdog, DegradedCellHonoursLiveness) {
  constexpr int kDown = 1;
  const auto slots = degraded_slots_with_edge_down(kDown, nullptr);
  ASSERT_FALSE(slots.empty());
  for (const auto& slot : slots) {
    const auto& decision = slot.decision;
    for (int i = 0; i < decision.apps(); ++i) {
      for (int j = 0; j < decision.max_variants(); ++j) {
        EXPECT_EQ(decision.served(i, j, kDown), 0);
      }
      EXPECT_EQ(decision.drops(i, kDown), slot.demand(i, kDown));
    }
    expect_conserves(decision, slot.demand);
  }
}

TEST(CellWatchdog, DegradedCellHonoursLadderCap) {
  sim::SchedulerHints hints;
  hints.variant_cap.assign(3, 0);  // small_topology_config's three apps
  const auto slots = degraded_slots_with_edge_down(1, &hints);
  ASSERT_FALSE(slots.empty());
  for (const auto& slot : slots) {
    const auto& decision = slot.decision;
    for (int i = 0; i < decision.apps(); ++i) {
      for (int j = 1; j < decision.max_variants(); ++j) {
        for (int k = 0; k < decision.devices(); ++k) {
          EXPECT_EQ(decision.served(i, j, k), 0)
              << "app " << i << " variant " << j << " edge " << k;
        }
      }
    }
    expect_conserves(decision, slot.demand);
  }
}

TEST(CellWatchdog, DisabledNeverTrips) {
  const auto config = small_topology_config(8, 2);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);
  PartitionConfig pc;
  pc.cells = 2;
  CellScheduler scheduler(
      cluster, partition_cluster(cluster, &topology.link_mbps, pc), {});
  const auto trace = [&] {
    workload::GeneratorConfig gc;
    gc.slots = 4;
    gc.mean_per_edge = 4.0;
    return workload::generate(cluster, gc);
  }();
  (void)sim::Simulator(cluster, trace).run(scheduler);
  EXPECT_EQ(scheduler.watchdog_trips(), 0);
  EXPECT_EQ(scheduler.degraded_cell_slots(), 0);
}

// ------------------------------------------------------------- flash crowd ----

TEST(FlashCrowd, OverlayIsAdditiveAndScopedToItsWindow) {
  const auto config = small_topology_config(10, 3);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);

  workload::GeneratorConfig base;
  base.slots = 30;
  base.mean_per_edge = 6.0;
  auto crowded = base;
  crowded.flash_start = 10;
  crowded.flash_duration = 8;
  crowded.flash_scale = 1.5;

  const auto plain = workload::generate(cluster, base);
  const auto spiked = workload::generate(cluster, crowded);

  std::int64_t extra = 0;
  for (int t = 0; t < base.slots; ++t) {
    const bool in_window = t >= 10 && t < 18;
    for (int i = 0; i < cluster.num_apps(); ++i) {
      for (int k = 0; k < cluster.num_devices(); ++k) {
        if (in_window) {
          // Additive overlay: never below the base draw.
          EXPECT_GE(spiked.at(t, i, k), plain.at(t, i, k));
          extra += spiked.at(t, i, k) - plain.at(t, i, k);
        } else {
          // Outside the window the base trace is byte-identical.
          EXPECT_EQ(spiked.at(t, i, k), plain.at(t, i, k));
        }
      }
    }
  }
  EXPECT_GT(extra, 0);
  EXPECT_EQ(spiked.total(), plain.total() + extra);
}

TEST(FlashCrowd, SameConfigIsDeterministic) {
  const auto config = small_topology_config(8, 2);
  const auto topology = workload::generate_topology(config);
  const auto cluster = workload::make_cluster(topology, config);
  workload::GeneratorConfig gc;
  gc.slots = 20;
  gc.mean_per_edge = 5.0;
  gc.flash_start = 5;
  gc.flash_duration = 6;
  const auto a = workload::generate(cluster, gc);
  const auto b = workload::generate(cluster, gc);
  ASSERT_EQ(a.total(), b.total());
  for (int t = 0; t < gc.slots; ++t) {
    for (int i = 0; i < cluster.num_apps(); ++i) {
      for (int k = 0; k < cluster.num_devices(); ++k) {
        ASSERT_EQ(a.at(t, i, k), b.at(t, i, k));
      }
    }
  }
}

}  // namespace
}  // namespace birp::cluster
