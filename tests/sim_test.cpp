// Tests for decision bookkeeping, validation/repair, and the simulator.
#include <cmath>

#include <gtest/gtest.h>

#include "decision_digest.hpp"
#include "fnv1a.hpp"
#include "run_digest.hpp"
#include "birp/device/cluster.hpp"
#include "birp/sched/max_batch.hpp"
#include "birp/sim/decision.hpp"
#include "birp/sim/scheduler.hpp"
#include "birp/sim/simulator.hpp"
#include "birp/sim/validate.hpp"
#include "birp/workload/generator.hpp"
#include "birp/workload/trace.hpp"

namespace birp::sim {
namespace {

device::ClusterSpec small_cluster(double tau = 6.0) {
  return device::ClusterSpec(device::one_of_each(), model::Zoo::small_scale(),
                             tau, 0x7e57);
}

/// Scheduler under full test control: replays a fixed decision every slot.
class FixedScheduler : public Scheduler {
 public:
  explicit FixedScheduler(SlotDecision decision)
      : decision_(std::move(decision)) {}

  [[nodiscard]] std::string name() const override { return "fixed"; }
  [[nodiscard]] SlotDecision decide(const SlotState&) override {
    return decision_;
  }
  void observe(const SlotFeedback& feedback) override {
    feedbacks_.push_back(feedback);
  }

  std::vector<SlotFeedback> feedbacks_;

 private:
  SlotDecision decision_;
};

/// Serves all local demand with variant 0 (batch == demand, capped).
class LocalGreedyScheduler : public Scheduler {
 public:
  explicit LocalGreedyScheduler(const device::ClusterSpec& cluster)
      : cluster_(cluster) {}
  [[nodiscard]] std::string name() const override { return "local-greedy"; }
  [[nodiscard]] SlotDecision decide(const SlotState& state) override {
    SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                          cluster_.num_devices());
    for (int i = 0; i < cluster_.num_apps(); ++i) {
      for (int k = 0; k < cluster_.num_devices(); ++k) {
        const auto demand = state.demand(i, k);
        const auto take = std::min<std::int64_t>(demand, 16);
        decision.served(i, 0, k) = take;
        decision.kernel(i, 0, k) = static_cast<int>(std::max<std::int64_t>(take, 1));
        decision.drops(i, k) = demand - take;
      }
    }
    return decision;
  }

 private:
  const device::ClusterSpec& cluster_;
};

// ------------------------------------------------------------- decision ----

TEST(SlotDecision, FlowAccounting) {
  SlotDecision decision(2, 3, 4);
  decision.flows.push_back({0, 1, 2, 5});
  decision.flows.push_back({0, 3, 2, 2});
  decision.flows.push_back({1, 2, 0, 9});
  EXPECT_EQ(decision.imports(0, 2), 7);
  EXPECT_EQ(decision.exports(0, 1), 5);
  EXPECT_EQ(decision.exports(1, 2), 9);
  EXPECT_EQ(decision.imports(1, 0), 9);
  EXPECT_EQ(decision.imports(0, 0), 0);
}

TEST(SlotDecision, TotalsAndDeployment) {
  SlotDecision decision(1, 2, 2);
  decision.served(0, 0, 0) = 3;
  decision.served(0, 1, 1) = 4;
  decision.drops(0, 0) = 2;
  EXPECT_EQ(decision.total_served(), 7);
  EXPECT_EQ(decision.total_dropped(), 2);
  EXPECT_TRUE(decision.deployed(0, 0, 0));
  EXPECT_FALSE(decision.deployed(0, 1, 0));
}

// ------------------------------------------------------------- validate ----

class ValidateFixture : public ::testing::Test {
 protected:
  ValidateFixture() : cluster_(small_cluster()) {}

  util::Grid2<std::int64_t> demand_grid(std::int64_t value) {
    util::Grid2<std::int64_t> demand(cluster_.num_apps(),
                                     cluster_.num_devices(), value);
    return demand;
  }

  device::ClusterSpec cluster_;
};

TEST_F(ValidateFixture, CleanDecisionUntouched) {
  auto demand = demand_grid(4);
  SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                        cluster_.num_devices());
  for (int k = 0; k < cluster_.num_devices(); ++k) {
    decision.served(0, 0, k) = 4;
    decision.kernel(0, 0, k) = 4;
  }
  const auto report = validate_and_repair(cluster_, demand, nullptr, decision);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(decision.total_served(), 4 * cluster_.num_devices());
  EXPECT_EQ(decision.total_dropped(), 0);
}

TEST_F(ValidateFixture, UnservedDemandBecomesDrops) {
  auto demand = demand_grid(10);
  SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                        cluster_.num_devices());
  decision.served(0, 0, 0) = 4;  // edge 0 serves 4 of 10; others serve none
  decision.kernel(0, 0, 0) = 4;
  const auto report = validate_and_repair(cluster_, demand, nullptr, decision);
  EXPECT_EQ(report.added_drops, 10 * cluster_.num_devices() - 4);
  EXPECT_EQ(decision.drops(0, 0), 6);
}

TEST_F(ValidateFixture, OverservingIsTrimmed) {
  auto demand = demand_grid(3);
  SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                        cluster_.num_devices());
  decision.served(0, 0, 0) = 8;  // only 3 exist locally
  decision.kernel(0, 0, 0) = 8;
  decision.served(0, 0, 1) = 3;
  decision.kernel(0, 0, 1) = 3;
  decision.served(0, 0, 2) = 3;
  decision.kernel(0, 0, 2) = 3;
  const auto report = validate_and_repair(cluster_, demand, nullptr, decision);
  EXPECT_EQ(report.trimmed_served, 5);
  EXPECT_EQ(decision.served(0, 0, 0), 3);
}

TEST_F(ValidateFixture, PhantomVariantServingIsRemoved) {
  auto demand = demand_grid(5);
  SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants() + 2,
                        cluster_.num_devices());
  decision.served(0, cluster_.zoo().max_variants(), 0) = 5;  // no such model
  const auto report = validate_and_repair(cluster_, demand, nullptr, decision);
  EXPECT_GE(report.trimmed_served, 5);
  EXPECT_EQ(decision.total_served(), 0);
}

TEST_F(ValidateFixture, NegativeCountsSanitized) {
  auto demand = demand_grid(2);
  SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                        cluster_.num_devices());
  decision.served(0, 0, 0) = -5;
  decision.drops(0, 1) = -3;
  decision.flows.push_back({0, 0, 1, -2});
  decision.flows.push_back({0, 1, 1, 7});  // self flow
  validate_and_repair(cluster_, demand, nullptr, decision);
  EXPECT_TRUE(decision.flows.empty());
  EXPECT_GE(decision.served(0, 0, 0), 0);
  EXPECT_GE(decision.drops(0, 1), 0);
}

TEST_F(ValidateFixture, ExportsCappedAtDemand) {
  auto demand = demand_grid(3);
  SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                        cluster_.num_devices());
  decision.flows.push_back({0, 0, 1, 50});  // only 3 available at edge 0
  const auto report = validate_and_repair(cluster_, demand, nullptr, decision);
  EXPECT_GE(report.cancelled_flow, 47);
  EXPECT_LE(decision.exports(0, 0), 3);
}

TEST_F(ValidateFixture, NetworkBudgetCancelsFlows) {
  auto demand = demand_grid(4000);
  SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                        cluster_.num_devices());
  // Massive transfer: zeta * 4000 far exceeds any per-slot budget.
  decision.flows.push_back({0, 0, 1, 4000});
  const auto report = validate_and_repair(cluster_, demand, nullptr, decision);
  EXPECT_GT(report.cancelled_flow, 0);
  const double cost = decision_network_mb(cluster_, decision, nullptr, 0);
  EXPECT_LE(cost, cluster_.network_mb(0) + 1e-6);
}

TEST_F(ValidateFixture, MemoryEvictionOnOversizedKernels) {
  auto demand = demand_grid(64);
  SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                        cluster_.num_devices());
  // A kernel whose activations alone exceed device memory.
  const int j = cluster_.zoo().num_variants(0) - 1;  // largest variant
  decision.served(0, j, 0) = 32;
  decision.kernel(0, j, 0) = 32;
  const double mb = cluster_.zoo().variant(0, j).intermediate_mb * 32.0;
  if (mb > cluster_.memory_mb(0)) {
    const auto report =
        validate_and_repair(cluster_, demand, nullptr, decision);
    EXPECT_GE(report.memory_evictions, 1);
    EXPECT_EQ(decision.served(0, j, 0), 0);
  }
}

TEST_F(ValidateFixture, KernelCapEnforced) {
  auto demand = demand_grid(100);
  SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                        cluster_.num_devices());
  decision.served(0, 0, 0) = 100;
  decision.kernel(0, 0, 0) = 999;
  validate_and_repair(cluster_, demand, nullptr, decision);
  EXPECT_LE(decision.kernel(0, 0, 0), kMaxKernelBatch);
}

TEST_F(ValidateFixture, SwitchCostsChargedAgainstPrevious) {
  auto demand = demand_grid(2);
  SlotDecision previous(cluster_.num_apps(), cluster_.zoo().max_variants(),
                        cluster_.num_devices());
  previous.served(0, 0, 0) = 1;  // variant 0 deployed on edge 0 last slot

  SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                        cluster_.num_devices());
  decision.served(0, 0, 0) = 2;  // retained: free
  decision.served(0, 1, 0) = 2;  // new: pays compressed weights
  decision.kernel(0, 0, 0) = 2;
  decision.kernel(0, 1, 0) = 2;

  const double with_prev =
      decision_network_mb(cluster_, decision, &previous, 0);
  const double boot = decision_network_mb(cluster_, decision, nullptr, 0);
  EXPECT_NEAR(with_prev, cluster_.zoo().variant(0, 1).compressed_mb, 1e-9);
  EXPECT_DOUBLE_EQ(boot, 0.0);  // t = 0: staged models, no switch cost
}

TEST_F(ValidateFixture, SwitchCostOverBudgetIsCountedNotRepaired) {
  // Edge 0's link carries 0.75 MB a slot, less than any variant's
  // compressed weights, so deploying a variant there that the previous slot
  // did not deploy overruns Eq. 9 through the switch cost alone. The repair
  // can only cancel flows: it counts the overrun and changes nothing.
  auto profiles = device::one_of_each();
  profiles[0].bandwidth_mbps = 1.0;
  const device::ClusterSpec cluster(profiles, model::Zoo::small_scale(), 6.0,
                                    0x7e57);
  util::Grid2<std::int64_t> demand(cluster.num_apps(), cluster.num_devices(),
                                   0);
  const SlotDecision previous(cluster.num_apps(),
                              cluster.zoo().max_variants(),
                              cluster.num_devices());
  SlotDecision decision(cluster.num_apps(), cluster.zoo().max_variants(),
                        cluster.num_devices());
  for (int k = 0; k < cluster.num_devices(); ++k) {
    demand(0, k) = 2;
    decision.served(0, 0, k) = 2;
    decision.kernel(0, 0, k) = 2;
  }
  ASSERT_GT(decision_network_mb(cluster, decision, &previous, 0),
            cluster.network_mb(0));
  const auto digest = [](const SlotDecision& d) {
    testutil::Fnv1a fnv;
    testutil::hash_decision(fnv, d);
    return fnv.get();
  };
  const auto before = digest(decision);
  const auto report = validate_and_repair(cluster, demand, &previous, decision);
  EXPECT_EQ(report.network_overruns, 1);  // the no-flow path
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(digest(decision), before);

  // With a flow into edge 0 the repair cancels it and still finds the
  // switch cost over budget: the repair loop's path counts it too.
  demand(0, 0) = 3;
  demand(0, 1) = 1;
  decision.flows.push_back({0, 1, 0, 1});
  const auto repaired =
      validate_and_repair(cluster, demand, &previous, decision);
  EXPECT_EQ(repaired.network_overruns, 1);
  EXPECT_EQ(repaired.cancelled_flow, 1);
}

// ------------------------------------------------------------ simulator ----

class SimulatorFixture : public ::testing::Test {
 protected:
  SimulatorFixture() : cluster_(small_cluster()) {}

  workload::Trace uniform_trace(int slots, std::int64_t per_cell) {
    workload::Trace trace(slots, cluster_.num_apps(), cluster_.num_devices());
    for (int t = 0; t < slots; ++t) {
      for (int i = 0; i < cluster_.num_apps(); ++i) {
        for (int k = 0; k < cluster_.num_devices(); ++k) {
          trace.set(t, i, k, per_cell);
        }
      }
    }
    return trace;
  }

  device::ClusterSpec cluster_;
};

TEST_F(SimulatorFixture, ServesAndAccountsRequests) {
  const auto trace = uniform_trace(3, 5);
  SimulatorConfig config;
  config.noise_sigma = 0.0;
  Simulator simulator(cluster_, trace, config);
  LocalGreedyScheduler scheduler(cluster_);
  const auto metrics = simulator.run(scheduler);
  EXPECT_EQ(metrics.total_requests(), trace.total());
  EXPECT_EQ(metrics.dropped(), 0);
  EXPECT_EQ(metrics.completion().count(),
            static_cast<std::size_t>(trace.total()));
  EXPECT_EQ(metrics.slot_loss().size(), 3u);
}

TEST_F(SimulatorFixture, NoiseFreeBatchTimeMatchesGroundTruth) {
  const auto trace = uniform_trace(1, 6);
  SimulatorConfig config;
  config.noise_sigma = 0.0;
  Simulator simulator(cluster_, trace, config);
  LocalGreedyScheduler scheduler(cluster_);
  metrics::RunMetrics metrics;
  const auto result = simulator.step(scheduler, &metrics);
  // Each edge runs exactly one batch of 6 on variant 0; busy time must be
  // the ground-truth batch time.
  for (int k = 0; k < cluster_.num_devices(); ++k) {
    EXPECT_NEAR(result.feedback.busy_s[static_cast<std::size_t>(k)],
                cluster_.truth().batch_time_s(k, 0, 0, 6), 1e-9);
  }
}

TEST_F(SimulatorFixture, TirObservationsMatchTruthWithoutNoise) {
  const auto trace = uniform_trace(1, 6);
  SimulatorConfig config;
  config.noise_sigma = 0.0;
  Simulator simulator(cluster_, trace, config);
  LocalGreedyScheduler scheduler(cluster_);
  const auto result = simulator.step(scheduler);
  ASSERT_FALSE(result.feedback.observations.empty());
  for (const auto& obs : result.feedback.observations) {
    const auto& truth = cluster_.truth().tir(obs.device, obs.app, obs.variant);
    EXPECT_NEAR(obs.observed_tir, truth.tir(obs.batch), 1e-9);
  }
}

TEST_F(SimulatorFixture, LossMatchesServedVariantsPlusDropPenalty) {
  const auto trace = uniform_trace(1, 20);  // greedy serves 16, drops 4
  SimulatorConfig config;
  config.noise_sigma = 0.0;
  Simulator simulator(cluster_, trace, config);
  LocalGreedyScheduler scheduler(cluster_);
  metrics::RunMetrics metrics;
  const auto result = simulator.step(scheduler, &metrics);
  const double expected =
      cluster_.num_devices() *
      (16.0 * cluster_.zoo().variant(0, 0).loss +
       4.0 * cluster_.zoo().worst_loss(0));
  EXPECT_NEAR(result.slot_loss, expected, 1e-9);
  EXPECT_EQ(result.dropped, 4 * cluster_.num_devices());
}

TEST(GoldenRuns, SimulatorMaxCarryoverDigestIsPinned) {
  // MAX on paper_large pads every launch to B0 and sheds at 1.5x load;
  // carryover retries each shed request once. The digest covers every
  // executed decision, per-slot request accounting, loss, busy time and TIR
  // observation, then the final run metrics (carryover flushed at the
  // horizon).
  const auto cluster = device::ClusterSpec::paper_large();
  workload::GeneratorConfig gc;
  gc.slots = 12;
  gc.mean_per_edge = workload::suggested_mean_per_edge(cluster, 1.5);
  const auto trace = workload::generate(cluster, gc);
  SimulatorConfig config;
  config.carryover_unserved = true;
  sched::MaxScheduler scheduler(cluster);
  Simulator simulator(cluster, trace, config);
  metrics::RunMetrics metrics(trace.slots());
  testutil::Fnv1a digest;
  std::int64_t dropped = 0;
  std::int64_t failed = 0;
  for (int t = 0; t < trace.slots(); ++t) {
    const auto result = simulator.step(scheduler, &metrics);
    EXPECT_TRUE(result.decision.pad_partial_launches);
    testutil::hash_decision(digest, result.decision);
    digest.value(result.served);
    digest.value(result.dropped);
    digest.value(result.orphaned);
    digest.value(result.retried);
    digest.value(result.slo_failures);
    digest.value(result.slot_loss);
    testutil::hash_feedback(digest, result.feedback);
    dropped += result.decision.total_dropped();
    failed += result.dropped;
  }
  simulator.finish(scheduler, metrics);
  testutil::hash_metrics(digest, metrics);
  EXPECT_GT(failed, 0);
  EXPECT_GT(dropped, failed);  // some sheds were deferred, not failed
  EXPECT_EQ(metrics.total_requests(), trace.total());
  EXPECT_EQ(digest.get(), 0x4df3547584d1bbcaULL) << std::hex << digest.get();
}

TEST_F(SimulatorFixture, SeedChangesNoise) {
  const auto trace = uniform_trace(5, 8);
  SimulatorConfig a;
  a.seed = 1;
  SimulatorConfig b;
  b.seed = 2;
  LocalGreedyScheduler s1(cluster_);
  LocalGreedyScheduler s2(cluster_);
  const auto m1 = Simulator(cluster_, trace, a).run(s1);
  const auto m2 = Simulator(cluster_, trace, b).run(s2);
  EXPECT_NE(m1.completion().quantile(0.5), m2.completion().quantile(0.5));
}

TEST_F(SimulatorFixture, SerialKernelsSpreadCompletionTimes) {
  // kernel = 1 -> every request completes at a distinct time.
  const auto trace = uniform_trace(1, 4);
  SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                        cluster_.num_devices());
  for (int k = 0; k < cluster_.num_devices(); ++k) {
    decision.served(0, 0, k) = 4;
    decision.kernel(0, 0, k) = 1;  // serial execution
  }
  FixedScheduler scheduler(decision);
  SimulatorConfig config;
  config.noise_sigma = 0.0;
  Simulator simulator(cluster_, trace, config);
  metrics::RunMetrics metrics;
  simulator.step(scheduler, &metrics);
  // Completion p10 must differ from p90 (steps at 1x, 2x, 3x, 4x gamma).
  EXPECT_LT(metrics.completion().quantile(0.05),
            metrics.completion().quantile(0.95) / 2.0);
}

TEST_F(SimulatorFixture, BatchedKernelsCompleteTogether) {
  // Demand only on edge 0, served there as one merged launch: all four
  // requests must share one completion time.
  workload::Trace trace(1, 1, cluster_.num_devices());
  trace.set(0, 0, 0, 4);
  SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                        cluster_.num_devices());
  decision.served(0, 0, 0) = 4;
  decision.kernel(0, 0, 0) = 4;  // one merged launch
  FixedScheduler scheduler(decision);
  SimulatorConfig config;
  config.noise_sigma = 0.0;
  Simulator simulator(cluster_, trace, config);
  metrics::RunMetrics metrics;
  simulator.step(scheduler, &metrics);
  ASSERT_EQ(metrics.completion().count(), 4u);
  EXPECT_DOUBLE_EQ(metrics.completion().quantile(0.0),
                   metrics.completion().quantile(1.0));
}

TEST_F(SimulatorFixture, ImportedRequestsWaitForTransfer) {
  // All of edge 0's demand is served at edge 1; the batch cannot start
  // before the transfer stream delivers it.
  workload::Trace trace(1, 1, cluster_.num_devices());
  trace.set(0, 0, 0, 8);
  SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                        cluster_.num_devices());
  decision.served(0, 0, 1) = 8;
  decision.kernel(0, 0, 1) = 8;
  decision.flows.push_back({0, 0, 1, 8});
  FixedScheduler scheduler(decision);
  SimulatorConfig config;
  config.noise_sigma = 0.0;
  Simulator simulator(cluster_, trace, config);
  metrics::RunMetrics metrics;
  simulator.step(scheduler, &metrics);

  const double batch_tau =
      cluster_.truth().batch_time_s(1, 0, 0, 8) / cluster_.tau_s();
  // Completion must include a positive transfer delay on top of compute.
  EXPECT_GT(metrics.completion().quantile(0.5), batch_tau * 1.001);
}

TEST_F(SimulatorFixture, RunHonorsMaxSlots) {
  const auto trace = uniform_trace(10, 3);
  Simulator simulator(cluster_, trace);
  LocalGreedyScheduler scheduler(cluster_);
  const auto metrics = simulator.run(scheduler, 4);
  EXPECT_EQ(metrics.slot_loss().size(), 4u);
  EXPECT_EQ(simulator.current_slot(), 4);
}

TEST_F(SimulatorFixture, StepBeyondHorizonThrows) {
  const auto trace = uniform_trace(1, 1);
  Simulator simulator(cluster_, trace);
  LocalGreedyScheduler scheduler(cluster_);
  simulator.step(scheduler);
  EXPECT_THROW(simulator.step(scheduler), std::logic_error);
}

TEST_F(SimulatorFixture, EnergyMatchesBusyAndIdleSplit) {
  const auto trace = uniform_trace(1, 6);
  SimulatorConfig config;
  config.noise_sigma = 0.0;
  Simulator simulator(cluster_, trace, config);
  LocalGreedyScheduler scheduler(cluster_);
  metrics::RunMetrics metrics;
  const auto result = simulator.step(scheduler, &metrics);
  double expected = 0.0;
  for (int k = 0; k < cluster_.num_devices(); ++k) {
    expected += cluster_.device(k).slot_energy_j(
        result.feedback.busy_s[static_cast<std::size_t>(k)],
        cluster_.tau_s());
  }
  EXPECT_NEAR(metrics.total_energy_j(), expected, 1e-9);
  EXPECT_GT(metrics.total_energy_j(), 0.0);
}

TEST_F(SimulatorFixture, CarryoverDefersFreshDropsOnce) {
  // Demand 20, greedy serves 16: paper semantics fail 4 immediately;
  // carryover semantics retry them next slot (demand 0 there), where they
  // are served — no drops at all.
  workload::Trace trace(2, 1, cluster_.num_devices());
  for (int k = 0; k < cluster_.num_devices(); ++k) trace.set(0, 0, k, 20);
  LocalGreedyScheduler scheduler(cluster_);

  SimulatorConfig plain;
  plain.noise_sigma = 0.0;
  LocalGreedyScheduler s1(cluster_);
  const auto strict = Simulator(cluster_, trace, plain).run(s1);
  EXPECT_EQ(strict.dropped(), 4 * cluster_.num_devices());

  SimulatorConfig retry = plain;
  retry.carryover_unserved = true;
  const auto carried = Simulator(cluster_, trace, retry).run(scheduler);
  EXPECT_EQ(carried.dropped(), 0);
  EXPECT_EQ(carried.total_requests(), trace.total());
}

TEST_F(SimulatorFixture, CarryoverAgedRequestsFailForGood) {
  // Persistent overload: 20 demand every slot, capacity 16. Deferred
  // requests meet another full slot and (drops consume aged first) fail.
  workload::Trace trace(3, 1, cluster_.num_devices());
  for (int t = 0; t < 3; ++t) {
    for (int k = 0; k < cluster_.num_devices(); ++k) trace.set(t, 0, k, 20);
  }
  SimulatorConfig retry;
  retry.noise_sigma = 0.0;
  retry.carryover_unserved = true;
  LocalGreedyScheduler scheduler(cluster_);
  const auto metrics = Simulator(cluster_, trace, retry).run(scheduler);
  // Every request eventually resolves: served or failed; none vanish.
  EXPECT_EQ(metrics.total_requests(), trace.total());
  EXPECT_GT(metrics.dropped(), 0);
}

TEST_F(SimulatorFixture, CarryoverReentersDemandExactlyOnce) {
  // A scheduler that serves nothing, spying on the demand it is offered.
  class DemandSpy : public Scheduler {
   public:
    explicit DemandSpy(const device::ClusterSpec& cluster)
        : cluster_(cluster) {}
    [[nodiscard]] std::string name() const override { return "spy"; }
    [[nodiscard]] SlotDecision decide(const SlotState& state) override {
      std::int64_t total = 0;
      for (int i = 0; i < cluster_.num_apps(); ++i) {
        for (int k = 0; k < cluster_.num_devices(); ++k) {
          total += state.demand(i, k);
        }
      }
      demands.push_back(total);
      return SlotDecision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                          cluster_.num_devices());
    }
    std::vector<std::int64_t> demands;

   private:
    const device::ClusterSpec& cluster_;
  };

  // Demand only in slot 0; nothing is ever served. Deferred requests must
  // re-enter the demand exactly once (slot 1) and fail for good on the
  // second miss — slot 2 sees zero demand.
  workload::Trace trace(3, 1, cluster_.num_devices());
  for (int k = 0; k < cluster_.num_devices(); ++k) trace.set(0, 0, k, 7);
  SimulatorConfig config;
  config.noise_sigma = 0.0;
  config.carryover_unserved = true;
  DemandSpy scheduler(cluster_);
  const auto metrics = Simulator(cluster_, trace, config).run(scheduler);
  const std::int64_t total = 7 * cluster_.num_devices();
  ASSERT_EQ(scheduler.demands.size(), 3u);
  EXPECT_EQ(scheduler.demands[0], total);
  EXPECT_EQ(scheduler.demands[1], total);  // deferred once
  EXPECT_EQ(scheduler.demands[2], 0);      // failed for good, no re-entry
  EXPECT_EQ(metrics.dropped(), total);     // each request fails exactly once
  EXPECT_EQ(metrics.total_requests(), trace.total());
}

TEST_F(SimulatorFixture, MismatchedTraceRejected) {
  workload::Trace trace(1, 2, 2);  // wrong apps/devices
  EXPECT_THROW(Simulator(cluster_, trace), std::logic_error);
}

}  // namespace
}  // namespace birp::sim
