// Tests for fault injection (FaultPlan), failover re-admission
// (FailoverPolicy), and their integration with the slot simulator, the
// serving engine, and the BIRP scheduler's liveness masking.
#include <algorithm>
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "decision_digest.hpp"
#include "fnv1a.hpp"
#include "run_digest.hpp"
#include "birp/core/birp_scheduler.hpp"
#include "birp/device/cluster.hpp"
#include "birp/fault/failover.hpp"
#include "birp/fault/fault_plan.hpp"
#include "birp/serve/engine.hpp"
#include "birp/sim/simulator.hpp"
#include "birp/workload/generator.hpp"
#include "birp/workload/trace.hpp"

namespace birp::fault {
namespace {

device::ClusterSpec small_cluster(double tau = 6.0) {
  return device::ClusterSpec(device::one_of_each(), model::Zoo::small_scale(),
                             tau, 0x7e57);
}

std::uint64_t plan_digest(const FaultPlan& plan) {
  testutil::Fnv1a digest;
  digest.value(plan.events().size());
  for (const FaultEvent& event : plan.events()) {
    digest.value(static_cast<int>(event.kind));
    digest.value(event.device);
    digest.value(event.from_slot);
    digest.value(event.to_slot);
    digest.value(event.factor);
    digest.value(event.root_cause);
  }
  return digest.get();
}

workload::Trace uniform_trace(const device::ClusterSpec& cluster, int slots,
                              std::int64_t per_cell) {
  workload::Trace trace(slots, cluster.num_apps(), cluster.num_devices());
  for (int t = 0; t < slots; ++t) {
    for (int i = 0; i < cluster.num_apps(); ++i) {
      for (int k = 0; k < cluster.num_devices(); ++k) {
        trace.set(t, i, k, per_cell);
      }
    }
  }
  return trace;
}

/// Serves all local demand with variant 0 (batch == demand, capped at 16).
class LocalGreedyScheduler : public sim::Scheduler {
 public:
  explicit LocalGreedyScheduler(const device::ClusterSpec& cluster)
      : cluster_(cluster) {}
  [[nodiscard]] std::string name() const override { return "local-greedy"; }
  [[nodiscard]] sim::SlotDecision decide(const sim::SlotState& state) override {
    sim::SlotDecision decision(cluster_.num_apps(),
                               cluster_.zoo().max_variants(),
                               cluster_.num_devices());
    for (int i = 0; i < cluster_.num_apps(); ++i) {
      for (int k = 0; k < cluster_.num_devices(); ++k) {
        const auto demand = state.demand(i, k);
        const auto take = std::min<std::int64_t>(demand, 16);
        decision.served(i, 0, k) = take;
        decision.kernel(i, 0, k) =
            static_cast<int>(std::max<std::int64_t>(take, 1));
        decision.drops(i, k) = demand - take;
      }
    }
    return decision;
  }

 private:
  const device::ClusterSpec& cluster_;
};

// ------------------------------------------------------------ fault plan ----

TEST(FaultPlan, QueriesReflectEvents) {
  FaultPlan plan;
  plan.add_down(1, 5, 8);  // [5, 8)
  plan.add_bandwidth(0, 2, 10, 0.5);
  plan.add_bandwidth(0, 4, 6, 0.4);  // overlap: combines multiplicatively
  plan.add_straggler(2, 0, 4, 2.0);

  EXPECT_FALSE(plan.is_down(1, 4));
  EXPECT_TRUE(plan.is_down(1, 5));
  EXPECT_TRUE(plan.is_down(1, 7));
  EXPECT_FALSE(plan.is_down(1, 8));  // to_slot exclusive
  EXPECT_FALSE(plan.is_down(0, 6));  // other device untouched

  EXPECT_DOUBLE_EQ(plan.bandwidth_factor(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(plan.bandwidth_factor(0, 3), 0.5);
  EXPECT_DOUBLE_EQ(plan.bandwidth_factor(0, 5), 0.5 * 0.4);
  EXPECT_DOUBLE_EQ(plan.bandwidth_factor(1, 3), 1.0);

  EXPECT_DOUBLE_EQ(plan.straggler_factor(2, 3), 2.0);
  EXPECT_DOUBLE_EQ(plan.straggler_factor(2, 4), 1.0);

  const auto mask = plan.up_mask(3, 6);
  ASSERT_EQ(mask.size(), 3u);
  EXPECT_EQ(mask[0], 1);
  EXPECT_EQ(mask[1], 0);
  EXPECT_EQ(mask[2], 1);

  EXPECT_EQ(plan.down_slots(1, 100), 3);
  EXPECT_EQ(plan.down_slots(0, 100), 0);
}

TEST(FaultPlan, BandwidthFloorHoldsUnderStackedDips) {
  FaultPlan plan;
  for (int e = 0; e < 8; ++e) plan.add_bandwidth(0, 0, 5, 0.1);
  EXPECT_GE(plan.bandwidth_factor(0, 2), 0.01);
}

TEST(FaultPlan, RejectsInvalidEvents) {
  FaultPlan plan;
  EXPECT_THROW(plan.add_down(-1, 0, 5), std::logic_error);
  EXPECT_THROW(plan.add_down(0, 5, 5), std::logic_error);  // empty interval
  EXPECT_THROW(plan.add_bandwidth(0, 0, 5, 0.0), std::logic_error);
  EXPECT_THROW(plan.add_bandwidth(0, 0, 5, 1.5), std::logic_error);
  EXPECT_THROW(plan.add_straggler(0, 0, 5, 0.9), std::logic_error);
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, CsvRoundTrips) {
  FaultPlan plan;
  plan.add_down(2, 10, 40);
  plan.add_bandwidth(0, 5, 25, 0.375);
  plan.add_straggler(1, 0, 100, 2.25);

  std::ostringstream out;
  plan.write_csv(out);
  const auto reparsed = FaultPlan::from_csv(out.str());
  EXPECT_EQ(reparsed, plan);

  // CRLF line endings and a missing trailing newline both parse the same.
  std::string crlf;
  for (const char c : out.str()) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  EXPECT_EQ(FaultPlan::from_csv(crlf), plan);
  std::string no_trailing = out.str();
  while (!no_trailing.empty() && no_trailing.back() == '\n') {
    no_trailing.pop_back();
  }
  EXPECT_EQ(FaultPlan::from_csv(no_trailing), plan);
}

TEST(FaultPlan, FromCsvRejectsMalformedNumbers) {
  const std::string header = "kind,device,from_slot,to_slot,factor\n";
  const auto good = FaultPlan::from_csv(header + "bandwidth,0,3,9,0.5\n");
  EXPECT_EQ(good.events().size(), 1U);
  for (const char* row :
       {"bandwidth,0x,3,9,0.5", "bandwidth,0,3.5,9,0.5", "bandwidth,0,3,9,0.5x",
        "bandwidth,0,3,9, 0.5", "bandwidth,0,3,9,nan", "down,0,3,9,1,2x"}) {
    EXPECT_THROW((void)FaultPlan::from_csv(header + row + "\n"),
                 std::logic_error)
        << row;
  }
}

TEST(FaultPlan, GenerateIsDeterministic) {
  FaultPlanOptions options;
  options.slots = 400;
  options.devices = 5;
  options.crash_rate = 0.01;
  options.degrade_rate = 0.01;
  options.straggler_rate = 0.01;
  const auto a = FaultPlan::generate(options);
  const auto b = FaultPlan::generate(options);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());

  options.seed ^= 0x1234;
  const auto c = FaultPlan::generate(options);
  EXPECT_NE(c, a);

  FaultPlanOptions quiet;
  quiet.slots = 400;
  quiet.devices = 5;
  EXPECT_TRUE(FaultPlan::generate(quiet).empty());  // all rates zero
}

TEST(FaultPlan, CanonicalScenarios) {
  const auto crash = FaultPlan::single_edge_crash(1, 10, 20);
  EXPECT_EQ(crash.down_slots(1, 100), 10);
  EXPECT_FALSE(crash.is_down(1, 9));
  EXPECT_TRUE(crash.is_down(1, 10));

  const auto flap = FaultPlan::flapping_edge(0, 5, 25, 2, 3);
  // down [5,7) up [7,10) down [10,12) up [12,15) down [15,17) ...
  EXPECT_TRUE(flap.is_down(0, 5));
  EXPECT_FALSE(flap.is_down(0, 7));
  EXPECT_TRUE(flap.is_down(0, 10));
  EXPECT_FALSE(flap.is_down(0, 13));
  EXPECT_FALSE(flap.is_down(0, 30));  // beyond the horizon

  const auto degraded = FaultPlan::degraded_bandwidth(2, 0, 50, 0.3);
  EXPECT_DOUBLE_EQ(degraded.bandwidth_factor(2, 25), 0.3);
  EXPECT_EQ(degraded.down_slots(2, 50), 0);
}

TEST(FaultPlan, UpRescuePunchesThroughDown) {
  FaultPlan plan;
  plan.add_down(0, 10, 20);
  plan.add_up(0, 14, 16);  // transient recovery mid-outage
  EXPECT_TRUE(plan.is_down(0, 13));
  EXPECT_FALSE(plan.is_down(0, 14));
  EXPECT_FALSE(plan.is_down(0, 15));
  EXPECT_TRUE(plan.is_down(0, 16));  // relapse: the outage resumes
  EXPECT_TRUE(plan.is_down(0, 19));
  EXPECT_FALSE(plan.is_down(0, 20));
  // The rescue window is interval-scoped: it cannot mask a later outage.
  plan.add_down(0, 30, 35);
  EXPECT_TRUE(plan.is_down(0, 32));
  // Rescued slots count as up in the mask and the downtime tally.
  EXPECT_EQ(plan.up_mask(1, 15)[0], 1);
  EXPECT_EQ(plan.up_mask(1, 17)[0], 0);
  EXPECT_EQ(plan.down_slots(0, 40), 8 + 5);
}

TEST(FaultPlan, RootCauseLabelsCountIncidents) {
  FaultPlan plan;
  EXPECT_EQ(plan.num_incidents(), 0);
  plan.add(FaultEvent{FaultKind::kDown, 0, 5, 15, 1.0, /*root_cause=*/7});
  plan.add(FaultEvent{FaultKind::kDown, 1, 5, 18, 1.0, /*root_cause=*/7});
  plan.add(FaultEvent{FaultKind::kBandwidth, 2, 5, 15, 0.5, /*root_cause=*/7});
  plan.add(FaultEvent{FaultKind::kDown, 3, 40, 50, 1.0, /*root_cause=*/9});
  plan.add_down(4, 60, 65);  // uncorrelated: root_cause = -1
  EXPECT_EQ(plan.num_incidents(), 2);
}

TEST(FaultPlan, GenerateCorrelatedIsDeterministicAndLabeled) {
  CorrelatedFailureOptions options;
  options.slots = 200;
  options.devices = 24;
  options.group_size = 6;
  options.storm_rate = 0.05;
  options.group_fraction = 0.75;
  options.rescue_fraction = 0.5;
  const auto a = FaultPlan::generate_correlated(options);
  const auto b = FaultPlan::generate_correlated(options);
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
  EXPECT_GE(a.num_incidents(), 1);

  options.seed ^= 0xbeef;
  EXPECT_NE(FaultPlan::generate_correlated(options), a);

  // Every generated event belongs to a labeled incident, victims of one
  // incident share its rack, and rescue windows sit inside their outage.
  bool saw_up = false;
  for (const auto& event : a.events()) {
    EXPECT_GE(event.root_cause, 0);
    if (event.kind == FaultKind::kUp) {
      saw_up = true;
      bool inside = false;
      for (const auto& other : a.events()) {
        if (other.kind == FaultKind::kDown && other.device == event.device &&
            other.root_cause == event.root_cause &&
            other.from_slot < event.from_slot &&
            event.to_slot < other.to_slot) {
          inside = true;
        }
      }
      EXPECT_TRUE(inside) << "kUp rescue outside its outage interval";
    }
  }
  EXPECT_TRUE(saw_up);  // rescue_fraction = 0.5 over several storms
}

TEST(FaultPlan, GenerateDigestIsPinned) {
  // Every hazard on: outage lengths, bandwidth-dip depths and lengths, and
  // straggler factors and lengths all come from the generator's fixed
  // ranges, so a change to any of them moves this digest.
  FaultPlanOptions options;
  options.slots = 300;
  options.devices = 6;
  options.crash_rate = 0.02;
  options.degrade_rate = 0.02;
  options.straggler_rate = 0.02;
  const auto plan = FaultPlan::generate(options);
  int kinds[4] = {0, 0, 0, 0};
  for (const auto& event : plan.events()) ++kinds[static_cast<int>(event.kind)];
  EXPECT_GT(kinds[0], 0);
  EXPECT_GT(kinds[1], 0);
  EXPECT_GT(kinds[2], 0);
  const std::uint64_t digest = plan_digest(plan);
  EXPECT_EQ(digest, 0x7eb74e87a5061252ULL) << std::hex << digest;
}

TEST(FaultPlan, GenerateCorrelatedDigestIsPinned) {
  // Storms with flapping victims and the survivors' bandwidth cascade.
  CorrelatedFailureOptions options;
  options.slots = 200;
  options.devices = 24;
  options.group_size = 6;
  options.storm_rate = 0.05;
  options.group_fraction = 0.5;
  options.rescue_fraction = 0.5;
  const auto plan = FaultPlan::generate_correlated(options);
  bool cascade = false;
  for (const auto& event : plan.events()) {
    cascade = cascade || event.kind == FaultKind::kBandwidth;
  }
  EXPECT_TRUE(cascade);
  const std::uint64_t digest = plan_digest(plan);
  EXPECT_EQ(digest, 0x0ec0ebc564b7587aULL) << std::hex << digest;
}

TEST(FaultPlan, CsvRoundTripsRootCauseAndAcceptsLegacyLayout) {
  FaultPlan plan;
  plan.add(FaultEvent{FaultKind::kDown, 2, 10, 40, 1.0, /*root_cause=*/3});
  plan.add(FaultEvent{FaultKind::kUp, 2, 20, 22, 1.0, /*root_cause=*/3});
  plan.add_bandwidth(0, 5, 25, 0.375);

  std::ostringstream out;
  plan.write_csv(out);
  EXPECT_NE(out.str().find("root_cause"), std::string::npos);
  EXPECT_EQ(FaultPlan::from_csv(out.str()), plan);

  // Legacy 5-column layout (pre-root-cause) parses with root_cause = -1.
  const auto legacy = FaultPlan::from_csv(
      "kind,device,from_slot,to_slot,factor\n"
      "down,1,2,5,1\n"
      "bandwidth,0,3,9,0.5\n");
  FaultPlan expected;
  expected.add_down(1, 2, 5);
  expected.add_bandwidth(0, 3, 9, 0.5);
  EXPECT_EQ(legacy, expected);
}

// -------------------------------------------------------------- failover ----

TEST(FailoverPolicy, DisabledDropsEverything) {
  FailoverPolicy policy(FailoverConfig{}, 2, 3);
  EXPECT_FALSE(policy.enabled());
  const auto outcome = policy.on_orphans(0, 1, 7);
  EXPECT_EQ(outcome.retried, 0);
  EXPECT_EQ(outcome.dropped, 7);
  const auto& readmit = policy.begin_slot(1, {1, 1, 1});
  for (int i = 0; i < 2; ++i) {
    for (int k = 0; k < 3; ++k) EXPECT_EQ(readmit(i, k), 0);
  }
  EXPECT_EQ(policy.total_retries(), 0);
}

TEST(FailoverPolicy, ReadmitsOnceThenDropsAtBudget) {
  FailoverConfig config;
  config.enabled = true;
  config.retry_budget = 1;
  FailoverPolicy policy(config, 1, 3);

  policy.begin_slot(0, {1, 0, 1});  // slot 0: edge 1 down
  const auto first = policy.on_orphans(0, 1, 6);
  EXPECT_EQ(first.retried, 6);
  EXPECT_EQ(first.dropped, 0);

  // Slot 1: the 6 orphans are re-admitted across the two up edges,
  // round-robin — the split is even to within one request.
  const auto& readmit = policy.begin_slot(1, {1, 0, 1});
  EXPECT_EQ(readmit(0, 1), 0);  // never to a down edge
  EXPECT_EQ(readmit(0, 0) + readmit(0, 2), 6);
  EXPECT_LE(std::abs(readmit(0, 0) - readmit(0, 2)), 1);
  EXPECT_EQ(policy.total_retries(), 6);

  // The re-admission target fails too: the cohort is past its budget.
  const auto again = policy.on_orphans(0, 0, readmit(0, 0));
  EXPECT_EQ(again.retried, 0);
  EXPECT_EQ(again.dropped, readmit(0, 0));
  EXPECT_EQ(policy.drain_pending(), 0);
}

TEST(FailoverPolicy, FreshOrphansAtRetriedCellAreBudgetedSeparately) {
  // A cell can hold both a re-admitted cohort and fresh arrivals; orphans
  // there consume the re-admitted (highest-attempt) cohort first, and only
  // the remainder counts as fresh first-attempt orphans.
  FailoverConfig config;
  config.enabled = true;
  config.retry_budget = 1;
  FailoverPolicy policy(config, 1, 2);
  policy.begin_slot(0, {1, 1});
  EXPECT_EQ(policy.on_orphans(0, 1, 4).retried, 4);
  const auto& readmit = policy.begin_slot(1, {1, 0});  // all 4 land on edge 0
  ASSERT_EQ(readmit(0, 0), 4);
  // 10 orphans at edge 0: 4 are the spent cohort (dropped), 6 are fresh.
  const auto outcome = policy.on_orphans(0, 0, 10);
  EXPECT_EQ(outcome.dropped, 4);
  EXPECT_EQ(outcome.retried, 6);
}

TEST(FailoverPolicy, NoUpEdgeKeepsOrphansPending) {
  FailoverConfig config;
  config.enabled = true;
  FailoverPolicy policy(config, 1, 2);
  policy.begin_slot(0, {0, 1});
  EXPECT_EQ(policy.on_orphans(0, 0, 3).retried, 3);

  const auto& blackout = policy.begin_slot(1, {0, 0});  // nobody up
  EXPECT_EQ(blackout(0, 0) + blackout(0, 1), 0);

  const auto& recovered = policy.begin_slot(2, {0, 1});
  EXPECT_EQ(recovered(0, 1), 3);  // still waiting, injected when possible
  EXPECT_EQ(recovered(0, 0), 0);
}

TEST(FailoverPolicy, DrainPendingFlushesWaitingOrphans) {
  FailoverConfig config;
  config.enabled = true;
  FailoverPolicy policy(config, 1, 2);
  policy.begin_slot(0, {1, 1});
  EXPECT_EQ(policy.on_orphans(0, 0, 5).retried, 5);
  EXPECT_EQ(policy.drain_pending(), 5);  // horizon ended before re-admission
  EXPECT_EQ(policy.drain_pending(), 0);  // idempotent
}

// ------------------------------------------------- simulator integration ----

TEST(SimFault, EmptyPlanIsBitIdenticalToDefaultConfig) {
  const auto cluster = small_cluster();
  const auto trace = uniform_trace(cluster, 6, 8);
  sim::SimulatorConfig plain;
  sim::SimulatorConfig gated;
  gated.failover.enabled = true;  // enabled but no faults: must change nothing
  LocalGreedyScheduler s1(cluster);
  LocalGreedyScheduler s2(cluster);
  const auto a = sim::Simulator(cluster, trace, plain).run(s1);
  const auto b = sim::Simulator(cluster, trace, gated).run(s2);
  EXPECT_DOUBLE_EQ(a.total_loss(), b.total_loss());
  EXPECT_EQ(a.slo_failures(), b.slo_failures());
  EXPECT_DOUBLE_EQ(a.completion().quantile(0.5), b.completion().quantile(0.5));
  EXPECT_DOUBLE_EQ(a.total_energy_j(), b.total_energy_j());
  EXPECT_EQ(b.orphan_dropped(), 0);
  EXPECT_EQ(b.retries(), 0);
  EXPECT_DOUBLE_EQ(b.availability_percent(), 100.0);
}

TEST(SimFault, CrashOrphansAreAccountedAndConserved) {
  const auto cluster = small_cluster();
  const auto trace = uniform_trace(cluster, 5, 5);
  sim::SimulatorConfig config;
  config.noise_sigma = 0.0;
  config.fault_plan = FaultPlan::single_edge_crash(1, 1, 3);
  LocalGreedyScheduler scheduler(cluster);
  const auto metrics = sim::Simulator(cluster, trace, config).run(scheduler);

  // Every request resolves exactly once: served, dropped, or orphaned.
  EXPECT_EQ(metrics.total_requests(), trace.total());
  // All of the down edge's demand during the outage is orphaned.
  EXPECT_EQ(metrics.orphan_dropped(),
            5 * static_cast<std::int64_t>(cluster.num_apps()) * 2);
  EXPECT_EQ(metrics.retries(), 0);  // failover disabled
  EXPECT_EQ(metrics.downtime_slots(1), 2);
  EXPECT_EQ(metrics.downtime_slots(0), 0);
  EXPECT_LT(metrics.availability_percent(), 100.0);
  EXPECT_EQ(metrics.sampled_edges(), cluster.num_devices());
}

TEST(SimFault, FailoverStrictlyReducesSloFailures) {
  const auto cluster = small_cluster();
  const auto trace = uniform_trace(cluster, 6, 5);
  sim::SimulatorConfig config;
  config.noise_sigma = 0.0;
  config.fault_plan = FaultPlan::single_edge_crash(1, 1, 3);

  LocalGreedyScheduler s1(cluster);
  const auto no_failover = sim::Simulator(cluster, trace, config).run(s1);

  config.failover.enabled = true;
  LocalGreedyScheduler s2(cluster);
  const auto with_failover = sim::Simulator(cluster, trace, config).run(s2);

  EXPECT_GT(with_failover.retries(), 0);
  EXPECT_LT(with_failover.slo_failures(), no_failover.slo_failures());
  EXPECT_LT(with_failover.orphan_dropped(), no_failover.orphan_dropped());
  EXPECT_EQ(with_failover.total_requests(), trace.total());
}

TEST(SimFault, StragglerStretchesBusyTime) {
  const auto cluster = small_cluster();
  const auto trace = uniform_trace(cluster, 1, 6);
  sim::SimulatorConfig clean;
  clean.noise_sigma = 0.0;
  sim::SimulatorConfig slow = clean;
  slow.fault_plan.add_straggler(0, 0, 1, 2.0);
  LocalGreedyScheduler s1(cluster);
  LocalGreedyScheduler s2(cluster);
  metrics::RunMetrics m1;
  metrics::RunMetrics m2;
  const auto r1 = sim::Simulator(cluster, trace, clean).step(s1, &m1);
  const auto r2 = sim::Simulator(cluster, trace, slow).step(s2, &m2);
  EXPECT_NEAR(r2.feedback.busy_s[0], 2.0 * r1.feedback.busy_s[0], 1e-9);
  EXPECT_NEAR(r2.feedback.busy_s[1], r1.feedback.busy_s[1], 1e-9);
}

// ------------------------------------------------------- golden runs ----

/// Online BIRP at 1.2x load on the small cluster for 10 slots: edge 2
/// flaps (down 2, up 2), edge 0 runs at half bandwidth, edge 1 is a 1.5x
/// straggler, and failover re-admits the orphans.
struct FaultedRun {
  device::ClusterSpec cluster = small_cluster();
  workload::Trace trace = [this] {
    workload::GeneratorConfig gc;
    gc.slots = 10;
    gc.mean_per_edge = workload::suggested_mean_per_edge(cluster, 1.2);
    return workload::generate(cluster, gc);
  }();
  FaultPlan plan = [] {
    auto plan = FaultPlan::flapping_edge(2, 1, 10, 2, 2);
    plan.add_bandwidth(0, 0, 10, 0.5);
    plan.add_straggler(1, 0, 10, 1.5);
    return plan;
  }();
};

TEST(GoldenRuns, SimulatorBirpWithFaultsDigestIsPinned) {
  // Every executed decision, per-slot request accounting, loss, busy time
  // and TIR observation, then the final run metrics.
  const FaultedRun run;
  sim::SimulatorConfig config;
  config.fault_plan = run.plan;
  config.failover.enabled = true;
  core::BirpScheduler scheduler(run.cluster);
  sim::Simulator simulator(run.cluster, run.trace, config);
  metrics::RunMetrics metrics(run.trace.slots());
  testutil::Fnv1a digest;
  std::int64_t retried = 0;
  for (int t = 0; t < run.trace.slots(); ++t) {
    const auto result = simulator.step(scheduler, &metrics);
    testutil::hash_decision(digest, result.decision);
    digest.value(result.served);
    digest.value(result.dropped);
    digest.value(result.orphaned);
    digest.value(result.retried);
    digest.value(result.slo_failures);
    digest.value(result.slot_loss);
    testutil::hash_feedback(digest, result.feedback);
    retried += result.retried;
  }
  simulator.finish(scheduler, metrics);
  testutil::hash_metrics(digest, metrics);
  EXPECT_GT(retried, 0);
  EXPECT_EQ(metrics.total_requests(), run.trace.total());
  EXPECT_EQ(digest.get(), 0x86eafd2454306c4dULL) << std::hex << digest.get();
}

TEST(GoldenRuns, ServeEngineBirpWithFaultsDigestIsPinned) {
  // The same faulted run through the request-level engine with adaptive
  // batching: decisions, per-slot accounting, seals and feedback, then the
  // run metrics the steps recorded.
  const FaultedRun run;
  serve::ServeConfig config;
  config.fault_plan = run.plan;
  config.failover.enabled = true;
  config.adaptive.enabled = true;
  core::BirpScheduler scheduler(run.cluster);
  serve::ServeEngine engine(run.cluster, run.trace, config);
  metrics::RunMetrics metrics(run.trace.slots());
  testutil::Fnv1a digest;
  std::int64_t retried = 0;
  for (int t = 0; t < run.trace.slots(); ++t) {
    const auto result = engine.step(scheduler, &metrics);
    testutil::hash_decision(digest, result.decision);
    digest.value(result.served);
    digest.value(result.planned_drops);
    digest.value(result.queue_drops);
    digest.value(result.deadline_sheds);
    digest.value(result.orphaned);
    digest.value(result.retried);
    digest.value(result.slo_failures);
    digest.value(result.slot_loss);
    digest.value(result.seals);
    testutil::hash_feedback(digest, result.feedback);
    retried += result.retried;
  }
  testutil::hash_metrics(digest, metrics);
  EXPECT_GT(retried, 0);
  EXPECT_EQ(digest.get(), 0x6e78829107097c28ULL) << std::hex << digest.get();
}

TEST(GoldenRuns, SimulatorBackoffFailoverDigestIsPinned) {
  // The faulted run with jittered exponential backoff: orphans wait out a
  // seeded delay before re-entering demand, so the digest pins the order of
  // the jitter draws. Every step result, then run() on a fresh simulator.
  const FaultedRun run;
  sim::SimulatorConfig config;
  config.fault_plan = run.plan;
  config.failover.enabled = true;
  config.failover.backoff_base_slots = 2;
  config.failover.backoff_jitter = 0.5;
  core::BirpScheduler scheduler(run.cluster);
  sim::Simulator simulator(run.cluster, run.trace, config);
  metrics::RunMetrics metrics(run.trace.slots());
  testutil::Fnv1a digest;
  std::int64_t retried = 0;
  for (int t = 0; t < run.trace.slots(); ++t) {
    const auto result = simulator.step(scheduler, &metrics);
    testutil::hash_decision(digest, result.decision);
    digest.value(result.served);
    digest.value(result.dropped);
    digest.value(result.orphaned);
    digest.value(result.retried);
    digest.value(result.slo_failures);
    digest.value(result.slot_loss);
    testutil::hash_feedback(digest, result.feedback);
    retried += result.retried;
  }
  simulator.finish(scheduler, metrics);
  testutil::hash_metrics(digest, metrics);
  EXPECT_EQ(metrics.total_requests(), run.trace.total());

  core::BirpScheduler fresh(run.cluster);
  const auto whole = sim::Simulator(run.cluster, run.trace, config).run(fresh);
  testutil::hash_metrics(digest, whole);
  EXPECT_GT(retried, 0);
  EXPECT_GT(whole.retries(), 0);
  EXPECT_EQ(whole.total_requests(), run.trace.total());
  EXPECT_EQ(digest.get(), 0xfea50e75d11b3a86ULL) << std::hex << digest.get();
}

// -------------------------------------------------- scheduler liveness ----

TEST(BirpMasking, DownEdgeServesAndFlowsNothing) {
  const auto cluster = small_cluster();
  core::BirpScheduler scheduler(cluster);
  sim::SlotState state;
  state.slot = 0;
  state.demand = util::Grid2<std::int64_t>(cluster.num_apps(),
                                           cluster.num_devices(), 6);
  state.edge_up.assign(static_cast<std::size_t>(cluster.num_devices()), 1);
  state.edge_up[1] = 0;
  const auto decision = scheduler.decide(state);
  for (int i = 0; i < cluster.num_apps(); ++i) {
    for (int j = 0; j < cluster.zoo().max_variants(); ++j) {
      EXPECT_EQ(decision.served(i, j, 1), 0);
    }
    EXPECT_EQ(decision.imports(i, 1), 0);
    EXPECT_EQ(decision.exports(i, 1), 0);
    EXPECT_EQ(decision.drops(i, 1), 6);  // conservation forces drops
  }
}

// ---------------------------------------------- serve-engine integration ----

TEST(ServeFault, EmptyPlanIsBitIdenticalToDefaultConfig) {
  const auto cluster = small_cluster();
  const auto trace = uniform_trace(cluster, 4, 6);
  serve::ServeConfig plain;
  serve::ServeConfig gated;
  gated.failover.enabled = true;
  LocalGreedyScheduler s1(cluster);
  LocalGreedyScheduler s2(cluster);
  serve::ServeEngine e1(cluster, trace, plain);
  serve::ServeEngine e2(cluster, trace, gated);
  const auto a = e1.run(s1);
  const auto b = e2.run(s2);
  EXPECT_DOUBLE_EQ(a.total_loss(), b.total_loss());
  EXPECT_EQ(a.slo_failures(), b.slo_failures());
  EXPECT_DOUBLE_EQ(a.latency_quantile(0.5), b.latency_quantile(0.5));
  EXPECT_EQ(b.orphan_dropped(), 0);
  EXPECT_DOUBLE_EQ(b.availability_percent(), 100.0);
}

TEST(ServeFault, CrashConservesRequests) {
  const auto cluster = small_cluster();
  const auto trace = uniform_trace(cluster, 5, 5);
  serve::ServeConfig config;
  config.noise_sigma = 0.0;
  config.fault_plan = FaultPlan::single_edge_crash(1, 1, 3);
  LocalGreedyScheduler scheduler(cluster);
  serve::ServeEngine engine(cluster, trace, config);
  const auto metrics = engine.run(scheduler);
  EXPECT_EQ(metrics.total_requests(), trace.total());
  EXPECT_EQ(metrics.orphan_dropped(),
            5 * static_cast<std::int64_t>(cluster.num_apps()) * 2);
  EXPECT_EQ(metrics.downtime_slots(1), 2);
  EXPECT_LT(metrics.availability_percent(), 100.0);
}

TEST(ServeFault, FailoverStrictlyReducesSloFailures) {
  const auto cluster = small_cluster();
  const auto trace = uniform_trace(cluster, 6, 5);
  serve::ServeConfig config;
  config.noise_sigma = 0.0;
  config.fault_plan = FaultPlan::single_edge_crash(1, 1, 3);

  LocalGreedyScheduler s1(cluster);
  serve::ServeEngine e1(cluster, trace, config);
  const auto no_failover = e1.run(s1);

  config.failover.enabled = true;
  LocalGreedyScheduler s2(cluster);
  serve::ServeEngine e2(cluster, trace, config);
  const auto with_failover = e2.run(s2);

  EXPECT_GT(with_failover.retries(), 0);
  EXPECT_LT(with_failover.slo_failures(), no_failover.slo_failures());
  EXPECT_LT(with_failover.orphan_dropped(), no_failover.orphan_dropped());
  EXPECT_EQ(with_failover.total_requests(), trace.total());
}

TEST(ServeFault, SameSeedIsBitIdentical) {
  const auto cluster = small_cluster();
  const auto trace = uniform_trace(cluster, 6, 6);
  serve::ServeConfig config;
  config.fault_plan = FaultPlan::flapping_edge(0, 1, 6, 1, 2);
  config.fault_plan.add_bandwidth(1, 0, 6, 0.6);
  config.failover.enabled = true;
  serve::ServeConfig one = config;
  one.threads = 1;
  serve::ServeConfig many = config;
  many.threads = 4;
  LocalGreedyScheduler s1(cluster);
  LocalGreedyScheduler s2(cluster);
  serve::ServeEngine e1(cluster, trace, one);
  serve::ServeEngine e2(cluster, trace, many);
  const auto a = e1.run(s1);
  const auto b = e2.run(s2);
  EXPECT_DOUBLE_EQ(a.total_loss(), b.total_loss());
  EXPECT_EQ(a.slo_failures(), b.slo_failures());
  EXPECT_EQ(a.orphan_dropped(), b.orphan_dropped());
  EXPECT_EQ(a.retries(), b.retries());
  EXPECT_DOUBLE_EQ(a.latency_quantile(0.95), b.latency_quantile(0.95));
}

}  // namespace
}  // namespace birp::fault
