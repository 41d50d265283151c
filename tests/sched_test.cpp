// Tests for the baseline schedulers: OAEI, MAX, NO-REDIST.
#include <gtest/gtest.h>

#include "decision_digest.hpp"
#include "birp/core/birp_scheduler.hpp"
#include "birp/device/cluster.hpp"
#include "birp/sched/max_batch.hpp"
#include "birp/sched/no_redist.hpp"
#include "birp/sched/oaei.hpp"
#include "birp/sim/simulator.hpp"
#include "birp/workload/generator.hpp"

namespace birp::sched {
namespace {

workload::Trace make_trace(const device::ClusterSpec& cluster, int slots,
                           double target) {
  workload::GeneratorConfig config;
  config.slots = slots;
  config.mean_per_edge = workload::suggested_mean_per_edge(cluster, target);
  return workload::generate(cluster, config);
}

// ----------------------------------------------------------------- oaei ----

TEST(Oaei, ServesModerateLoadWithSerialKernels) {
  const auto cluster = device::ClusterSpec::paper_small();
  const auto trace = make_trace(cluster, 5, 0.4);
  OaeiScheduler scheduler(cluster);
  sim::Simulator simulator(cluster, trace);
  for (int t = 0; t < 5; ++t) {
    const auto result = simulator.step(scheduler);
    // Serial execution: every kernel is batch 1.
    for (int i = 0; i < cluster.num_apps(); ++i) {
      for (int j = 0; j < cluster.zoo().num_variants(i); ++j) {
        for (int k = 0; k < cluster.num_devices(); ++k) {
          if (result.decision.served(i, j, k) > 0) {
            EXPECT_EQ(result.decision.kernel(i, j, k), 1);
          }
        }
      }
    }
    EXPECT_GT(result.served, 0);
  }
}

TEST(Oaei, DecisionsPassValidationCleanly) {
  const auto cluster = device::ClusterSpec::paper_small();
  const auto trace = make_trace(cluster, 8, 0.4);
  OaeiScheduler scheduler(cluster);
  sim::Simulator simulator(cluster, trace);
  int clean = 0;
  for (int t = 0; t < 8; ++t) {
    clean += simulator.step(scheduler).repairs.clean() ? 1 : 0;
  }
  EXPECT_GE(clean, 7);  // randomized rounding may rarely need a trim
}

TEST(Oaei, CapacityFactorStartsAtOneAndStaysBounded) {
  const auto cluster = device::ClusterSpec::paper_small();
  OaeiScheduler scheduler(cluster);
  for (int k = 0; k < cluster.num_devices(); ++k) {
    EXPECT_DOUBLE_EQ(scheduler.capacity_factor(k), 1.0);
  }
  const auto trace = make_trace(cluster, 20, 0.5);
  sim::Simulator simulator(cluster, trace);
  simulator.run(scheduler);
  for (int k = 0; k < cluster.num_devices(); ++k) {
    EXPECT_GT(scheduler.capacity_factor(k), 0.2);
    EXPECT_LT(scheduler.capacity_factor(k), 4.5);
  }
}

TEST(Oaei, LearnedCapacityTracksSerialReality) {
  // Serial execution has no TIR speedup and lognormal noise is mean-one, so
  // the learned factor should hover near 1.
  const auto cluster = device::ClusterSpec::paper_small();
  OaeiScheduler scheduler(cluster);
  const auto trace = make_trace(cluster, 30, 0.5);
  sim::Simulator simulator(cluster, trace);
  simulator.run(scheduler);
  for (int k = 0; k < cluster.num_devices(); ++k) {
    EXPECT_NEAR(scheduler.capacity_factor(k), 1.0, 0.35);
  }
}

TEST(Oaei, LearnedCapacityTracksAStraggler) {
  // Edge 0 runs every launch 1.5x slower for the whole run. The learner
  // compares observed busy time with its unscaled serial prediction, so it
  // must settle near 1.5; feeding its own factor back into each sample would
  // compound the bias toward the 4.0 clamp.
  const auto cluster = device::ClusterSpec::paper_small();
  OaeiScheduler scheduler(cluster);
  const auto trace = make_trace(cluster, 30, 0.5);
  sim::SimulatorConfig config;
  config.fault_plan.add_straggler(0, 0, 30, 1.5);
  sim::Simulator simulator(cluster, trace, config);
  simulator.run(scheduler);
  EXPECT_NEAR(scheduler.capacity_factor(0), 1.5, 0.2);
  for (int k = 1; k < cluster.num_devices(); ++k) {
    EXPECT_NEAR(scheduler.capacity_factor(k), 1.0, 0.35) << "edge " << k;
  }
}

TEST(Oaei, DecisionStreamDigestIsPinned) {
  // 20 slots with execution feedback: the drop penalty prices the LP, the
  // rounding stream picks the versions, and the capacity learner's
  // smoothing rescales the next slot's compute row.
  const auto cluster = device::ClusterSpec::paper_large();
  const auto trace = make_trace(cluster, 20, 0.9);
  OaeiScheduler scheduler(cluster);
  sim::Simulator simulator(cluster, trace);
  testutil::Fnv1a digest;
  for (int t = 0; t < trace.slots(); ++t) {
    testutil::hash_decision(digest, simulator.step(scheduler).decision);
  }
  for (int k = 0; k < cluster.num_devices(); ++k) {
    digest.value(scheduler.capacity_factor(k));
  }
  EXPECT_EQ(digest.get(), 0x0b3446385b6a2f0cULL) << std::hex << digest.get();
}

// ------------------------------------------------------------------ max ----

TEST(Max, AlwaysUsesFixedKernel) {
  const auto cluster = device::ClusterSpec::paper_small();
  const auto trace = make_trace(cluster, 5, 0.4);
  MaxConfig config;
  config.b0 = 16;
  MaxScheduler scheduler(cluster, config);
  sim::Simulator simulator(cluster, trace);
  for (int t = 0; t < 5; ++t) {
    const auto result = simulator.step(scheduler);
    for (int i = 0; i < cluster.num_apps(); ++i) {
      for (int j = 0; j < cluster.zoo().num_variants(i); ++j) {
        for (int k = 0; k < cluster.num_devices(); ++k) {
          if (result.decision.served(i, j, k) > 0) {
            EXPECT_EQ(result.decision.kernel(i, j, k), 16);
          }
        }
      }
    }
  }
}

TEST(Max, RespectsBudgetsByConstruction) {
  const auto cluster = device::ClusterSpec::paper_small();
  const auto trace = make_trace(cluster, 6, 0.6);
  MaxScheduler scheduler(cluster);
  sim::Simulator simulator(cluster, trace);
  for (int t = 0; t < 6; ++t) {
    EXPECT_TRUE(simulator.step(scheduler).repairs.clean()) << "slot " << t;
  }
}

TEST(Max, PaddedLaunchesWasteComputeAtLowLoad) {
  // With three requests and B0 = 16, the launch still costs a full padded
  // batch: busy time must exceed the right-sized alternative.
  const auto cluster = device::ClusterSpec::paper_small();
  workload::Trace trace(1, 1, cluster.num_devices());
  trace.set(0, 0, 0, 3);
  MaxScheduler scheduler(cluster);
  sim::SimulatorConfig config;
  config.noise_sigma = 0.0;
  sim::Simulator simulator(cluster, trace, config);
  const auto result = simulator.step(scheduler);
  double busy = 0.0;
  for (const double b : result.feedback.busy_s) busy += b;
  // Find where the requests landed and compare with a batch-3 launch there.
  double right_sized = 1e18;
  for (int j = 0; j < cluster.zoo().num_variants(0); ++j) {
    for (int k = 0; k < cluster.num_devices(); ++k) {
      if (result.decision.served(0, j, k) > 0) {
        right_sized = cluster.truth().batch_time_s(k, 0, j, 3);
      }
    }
  }
  ASSERT_LT(right_sized, 1e18);
  EXPECT_GT(busy, right_sized * 1.5);
}

TEST(Max, RejectsBadConfig) {
  const auto cluster = device::ClusterSpec::paper_small();
  MaxConfig config;
  config.b0 = 0;
  EXPECT_THROW(MaxScheduler(cluster, config), std::logic_error);
}

// ------------------------------------------------------------ no-redist ----

TEST(NoRedist, NeverMovesRequests) {
  const auto cluster = device::ClusterSpec::paper_small();
  const auto trace = make_trace(cluster, 6, 0.5);
  auto scheduler = make_no_redist(cluster);
  EXPECT_EQ(scheduler.name(), "NO-REDIST");
  sim::Simulator simulator(cluster, trace);
  for (int t = 0; t < 6; ++t) {
    const auto result = simulator.step(scheduler);
    EXPECT_TRUE(result.decision.flows.empty()) << "slot " << t;
  }
}

TEST(NoRedist, WorseThanBirpUnderSkew) {
  // A strongly skewed, heavy workload: the hot edge cannot serve locally
  // with good models, so disabling redistribution must cost loss.
  const auto cluster = device::ClusterSpec::paper_large();
  workload::GeneratorConfig config;
  config.slots = 12;
  config.mean_per_edge = workload::suggested_mean_per_edge(cluster, 0.9);
  config.hot_edge_factor = 3.0;
  const auto trace = workload::generate(cluster, config);

  // Oracle beliefs on both sides so MAB exploration noise cannot mask the
  // redistribution effect: with identical beliefs, allowing flows strictly
  // enlarges the per-slot feasible set.
  auto birp = core::BirpScheduler::offline(cluster);
  core::BirpConfig off_config;
  off_config.online = false;
  auto noredist = make_no_redist(cluster, off_config);
  sim::Simulator sim_a(cluster, trace);
  sim::Simulator sim_b(cluster, trace);
  const auto with = sim_a.run(birp);
  const auto without = sim_b.run(noredist);
  EXPECT_LT(with.total_loss(), without.total_loss());
}

}  // namespace
}  // namespace birp::sched
