// Tests for BIRP's core: the MAB TIR estimator, the per-slot problem
// builder, the incumbent heuristic, and the scheduler itself.
#include <cmath>

#include <gtest/gtest.h>

#include "decision_digest.hpp"
#include "birp/core/birp_scheduler.hpp"
#include "birp/core/problem.hpp"
#include "birp/core/tir_estimator.hpp"
#include "birp/device/cluster.hpp"
#include "birp/sim/simulator.hpp"
#include "birp/util/rng.hpp"
#include "birp/workload/generator.hpp"

namespace birp::core {
namespace {

// -------------------------------------------------------- tir estimator ----

TEST(TirEstimator, InitializationMatchesEq23) {
  TirEstimator estimator;
  const auto params = estimator.mean_estimate();
  EXPECT_DOUBLE_EQ(params.eta, 0.1);
  EXPECT_EQ(params.beta, 16);
  EXPECT_NEAR(params.c, std::pow(16.0, 0.1), 1e-12);
}

TEST(TirEstimator, LowerConfidenceIsConservative) {
  TirEstimator estimator;
  const auto mean = estimator.mean_estimate();
  const auto lcb = estimator.lower_confidence(5);
  EXPECT_LE(lcb.eta, mean.eta);
  EXPECT_LE(lcb.beta, mean.beta);
  EXPECT_GE(lcb.eta, 0.01);
  EXPECT_GE(lcb.beta, 1);
  EXPECT_GE(lcb.c, 1.0);
}

TEST(TirEstimator, PaddingShrinksWithObservations) {
  TirEstimatorConfig config;
  TirEstimator estimator(config);
  // Before any observation the prior applies unpadded (cold-start rule).
  EXPECT_DOUBLE_EQ(estimator.lower_confidence(10).eta,
                   estimator.mean_estimate().eta);
  estimator.update(1.2, 4, 0);
  const double early_gap = estimator.mean_estimate().eta -
                           estimator.lower_confidence(10).eta;
  EXPECT_GT(early_gap, 0.0);
  // Many more within-threshold observations shrink the confidence padding.
  for (int t = 1; t < 200; ++t) estimator.update(1.2, 4, t);
  const double late_gap = estimator.mean_estimate().eta -
                          estimator.lower_confidence(210).eta;
  EXPECT_LT(late_gap, early_gap);
  EXPECT_EQ(estimator.within_count(), 200);
}

TEST(TirEstimator, SlotZeroAndColdCountsApplyNoPadding) {
  // Cold-start guard: a zero observation count contributes no padding.
  // Without it, sqrt(eps2 ln(t+1) / (0+1)) grows forever on an arm whose
  // beyond-threshold branch never fired, shrinking its LCB every slot.
  TirEstimator estimator;
  // Only within-threshold observations: n2 stays 0, so beta and C reach
  // the optimizer unpadded no matter how late the slot.
  for (int t = 0; t < 50; ++t) estimator.update(1.1, 2, t);
  EXPECT_EQ(estimator.beyond_count(), 0);
  EXPECT_GT(estimator.within_count(), 0);
  const auto mean = estimator.mean_estimate();
  const auto lcb = estimator.lower_confidence(100000);
  EXPECT_EQ(lcb.beta, mean.beta);
  EXPECT_DOUBLE_EQ(lcb.c, mean.c);
  // And at slot 0 the ln(t+1) factor is zero: even a sampled arm gets its
  // plain mean back.
  TirEstimator fresh;
  fresh.update(1.1, 2, 0);
  EXPECT_DOUBLE_EQ(fresh.lower_confidence(0).eta,
                   fresh.mean_estimate().eta);
}

TEST(TirEstimator, WithinThresholdUpdatesEta) {
  // Observations along TIR = b^0.25, below the init ceiling (1+eps1)*1.316:
  // use b = 3 so b^0.25 = 1.316 < 1.369.
  TirEstimator estimator;
  for (int t = 0; t < 300; ++t) {
    estimator.update(std::pow(3.0, 0.25), 3, t);
  }
  EXPECT_NEAR(estimator.mean_estimate().eta, 0.25, 0.01);
  EXPECT_EQ(estimator.beyond_count(), 0);
}

TEST(TirEstimator, BeyondThresholdMovesBetaAndC) {
  TirEstimator estimator;
  // Observed TIR 2.0 at batch 12 is well beyond (1 + eps1) * 1.316, so the
  // first update snaps C_bar to 2.0 and beta_bar to 12 (running means with
  // n2 = 0). Once C_bar has caught up, identical observations fall within
  // the threshold and refresh eta via the secant ln(2)/ln(12) (Eq. 21).
  for (int t = 0; t < 100; ++t) estimator.update(2.0, 12, t);
  const auto mean = estimator.mean_estimate();
  EXPECT_NEAR(mean.c, 2.0, 1e-9);
  EXPECT_EQ(mean.beta, 12);
  EXPECT_EQ(estimator.beyond_count(), 1);
  EXPECT_EQ(estimator.within_count(), 99);
  EXPECT_NEAR(mean.eta, std::log(2.0) / std::log(12.0), 1e-6);
}

TEST(TirEstimator, BatchOfOneCarriesNoSlopeInformation) {
  TirEstimator estimator;
  const double eta_before = estimator.mean_estimate().eta;
  estimator.update(1.0, 1, 0);
  EXPECT_DOUBLE_EQ(estimator.mean_estimate().eta, eta_before);
  EXPECT_EQ(estimator.within_count(), 1);  // still counted (Eq. 20)
}

TEST(TirEstimator, Eq22VariantUsesN2Counts) {
  TirEstimatorConfig faithful;
  faithful.paper_eq22_uses_n2 = true;
  TirEstimator a(faithful);
  TirEstimator b;  // n1 variant (default)
  // One beyond-threshold event (so n2 == 1 on both), then a stream of
  // within-threshold eta observations (n1 grows).
  a.update(2.0, 12, 0);
  b.update(2.0, 12, 0);
  for (int t = 1; t < 50; ++t) {
    a.update(1.25, 4, t);
    b.update(1.25, 4, t);
  }
  // Same means; the faithful (printed-Eq.22) variant pads eta with the
  // stale n2 = 1 count, so its LCB stays wider than the n1 variant's.
  EXPECT_DOUBLE_EQ(a.mean_estimate().eta, b.mean_estimate().eta);
  EXPECT_LT(a.lower_confidence(50).eta, b.lower_confidence(50).eta);
}

TEST(TirEstimator, RejectsBadInput) {
  TirEstimator estimator;
  EXPECT_THROW(estimator.update(1.0, 0, 0), std::logic_error);
  EXPECT_THROW(estimator.update(-1.0, 2, 0), std::logic_error);
  TirEstimatorConfig bad;
  bad.epsilon1 = 0.0;
  EXPECT_THROW(TirEstimator{bad}, std::logic_error);
}

TEST(TirEstimator, ConvergesOnGroundTruthCurve) {
  // End-to-end: noisy observations from a true piecewise curve; the mean
  // estimates must approach the effective curve at the operating batches.
  device::TirParams truth;
  truth.eta = 0.28;
  truth.beta = 8;
  truth.c = std::pow(8.0, 0.28);
  TirEstimator estimator;
  util::Xoshiro256StarStar rng(77);
  for (int t = 0; t < 500; ++t) {
    const int b = static_cast<int>(rng.uniform_int(2, 8));
    const double observed = truth.tir(b) * rng.lognormal(0.0, 0.02);
    estimator.update(observed, b, t);
  }
  EXPECT_NEAR(estimator.mean_estimate().eta, truth.eta, 0.05);
}

// ------------------------------------------------------ problem builder ----

class ProblemFixture : public ::testing::Test {
 protected:
  ProblemFixture()
      : cluster_(device::ClusterSpec::paper_small()) {
    demand_ = util::Grid2<std::int64_t>(cluster_.num_apps(),
                                        cluster_.num_devices(), 6);
    lookup_ = [this](int k, int i, int j) { return cluster_.oracle_tir(k, i, j); };
  }

  device::ClusterSpec cluster_;
  util::Grid2<std::int64_t> demand_;
  TirLookup lookup_;
};

TEST_F(ProblemFixture, ShapeAndIndexMaps) {
  const auto built =
      build_slot_problem(cluster_, demand_, nullptr, lookup_, {});
  EXPECT_GT(built.model.num_variables(), 0);
  EXPECT_GT(built.model.num_constraints(), 0);
  for (int i = 0; i < cluster_.num_apps(); ++i) {
    for (int j = 0; j < cluster_.zoo().num_variants(i); ++j) {
      for (int k = 0; k < cluster_.num_devices(); ++k) {
        EXPECT_GE(built.x(i, j, k), 0);
        EXPECT_GE(built.z(i, j, k), 0);
      }
    }
    for (int k = 0; k < cluster_.num_devices(); ++k) {
      EXPECT_GE(built.e(i, k), 0);
      EXPECT_GE(built.m(i, k), 0);
      EXPECT_GE(built.d(i, k), 0);
    }
  }
}

TEST_F(ProblemFixture, LpRelaxationServesLightLoadWithoutDrops) {
  const auto built =
      build_slot_problem(cluster_, demand_, nullptr, lookup_, {});
  const auto lp = solver::solve_lp(built.model);
  ASSERT_EQ(lp.status, solver::SolveStatus::Optimal);
  double drops = 0.0;
  for (int i = 0; i < cluster_.num_apps(); ++i) {
    for (int k = 0; k < cluster_.num_devices(); ++k) {
      drops += lp.values[static_cast<std::size_t>(built.d(i, k))];
    }
  }
  EXPECT_NEAR(drops, 0.0, 1e-6);
}

TEST_F(ProblemFixture, BatchAndServeCapsRespectBelievedBeta) {
  ProblemOptions options;
  options.max_batch = 16;
  options.launch_multiplier = 3;
  const auto built =
      build_slot_problem(cluster_, demand_, nullptr, lookup_, options);
  for (int i = 0; i < cluster_.num_apps(); ++i) {
    for (int j = 0; j < cluster_.zoo().num_variants(i); ++j) {
      for (int k = 0; k < cluster_.num_devices(); ++k) {
        const int mem_cap = static_cast<int>(std::floor(
            0.5 * cluster_.memory_mb(k) /
            cluster_.zoo().variant(i, j).intermediate_mb));
        const int kernel_cap = std::min(
            {16, cluster_.oracle_tir(k, i, j).beta, std::max(1, mem_cap)});
        EXPECT_EQ(built.terms(i, j, k).kernel_cap, kernel_cap);
        // Served requests per slot: up to launch_multiplier launches of the
        // per-launch cap.
        const auto& var = built.model.variable(built.z(i, j, k));
        EXPECT_LE(var.upper, 3.0 * kernel_cap + 1e-9);
      }
    }
  }
}

TEST_F(ProblemFixture, StrictSingleLaunchModeMatchesPaperEq5) {
  ProblemOptions options;
  options.launch_multiplier = 1;
  const auto built =
      build_slot_problem(cluster_, demand_, nullptr, lookup_, options);
  for (int i = 0; i < cluster_.num_apps(); ++i) {
    for (int j = 0; j < cluster_.zoo().num_variants(i); ++j) {
      for (int k = 0; k < cluster_.num_devices(); ++k) {
        const auto& var = built.model.variable(built.z(i, j, k));
        EXPECT_LE(var.upper,
                  std::min(16, cluster_.oracle_tir(k, i, j).beta) + 1e-9);
      }
    }
  }
}

TEST_F(ProblemFixture, NoRedistributionPinsFlows) {
  ProblemOptions options;
  options.allow_redistribution = false;
  const auto built =
      build_slot_problem(cluster_, demand_, nullptr, lookup_, options);
  for (int i = 0; i < cluster_.num_apps(); ++i) {
    for (int k = 0; k < cluster_.num_devices(); ++k) {
      EXPECT_DOUBLE_EQ(built.model.variable(built.e(i, k)).upper, 0.0);
      EXPECT_DOUBLE_EQ(built.model.variable(built.m(i, k)).upper, 0.0);
    }
  }
}

TEST_F(ProblemFixture, ExtractRestoresConservation) {
  const auto built =
      build_slot_problem(cluster_, demand_, nullptr, lookup_, {});
  const auto solution = solver::solve_milp(built.model, {});
  ASSERT_TRUE(solution.usable());
  const auto decision = extract_decision(built, solution, cluster_, demand_);
  for (int i = 0; i < cluster_.num_apps(); ++i) {
    for (int k = 0; k < cluster_.num_devices(); ++k) {
      std::int64_t served = 0;
      for (int j = 0; j < cluster_.zoo().num_variants(i); ++j) {
        served += decision.served(i, j, k);
      }
      const auto available = demand_(i, k) - decision.exports(i, k) +
                             decision.imports(i, k);
      EXPECT_EQ(served + decision.drops(i, k), available)
          << "i=" << i << " k=" << k;
    }
  }
}

TEST_F(ProblemFixture, HeuristicProducesFeasibleCandidate) {
  const auto built =
      build_slot_problem(cluster_, demand_, nullptr, lookup_, {});
  const auto lp = solver::solve_lp(built.model);
  ASSERT_TRUE(lp.usable());
  const auto candidate = heuristic_incumbent(built, lp.values, cluster_,
                                             demand_, nullptr, lookup_, {});
  ASSERT_FALSE(candidate.empty());
  EXPECT_LE(built.model.max_violation(candidate), 1e-6);
  EXPECT_LE(built.model.max_integrality_violation(candidate), 1e-6);
  // Light load: no drops needed.
  double drops = 0.0;
  for (int i = 0; i < cluster_.num_apps(); ++i) {
    for (int k = 0; k < cluster_.num_devices(); ++k) {
      drops += candidate[static_cast<std::size_t>(built.d(i, k))];
    }
  }
  EXPECT_NEAR(drops, 0.0, 1e-9);
}

TEST_F(ProblemFixture, HeuristicObjectiveNearLpBound) {
  const auto built =
      build_slot_problem(cluster_, demand_, nullptr, lookup_, {});
  const auto lp = solver::solve_lp(built.model);
  const auto candidate = heuristic_incumbent(built, lp.values, cluster_,
                                             demand_, nullptr, lookup_, {});
  ASSERT_FALSE(candidate.empty());
  const double obj = built.model.objective_value(candidate);
  EXPECT_GE(obj, lp.objective - 1e-6);          // bound holds
  EXPECT_LE(obj, lp.objective * 1.6 + 1.0);     // and is not far off
}

TEST_F(ProblemFixture, HeuristicHonoursLivenessAndLadderCap) {
  // Edge 1 down and every app capped at variant 0: from the zero point (the
  // fallback) and from the LP point (B&B's incumbents) the candidate must
  // satisfy the model and serve nothing on the down edge or above the cap.
  ProblemOptions options;
  options.edge_up.assign(static_cast<std::size_t>(cluster_.num_devices()), 1);
  options.edge_up[1] = 0;
  options.variant_cap.assign(static_cast<std::size_t>(cluster_.num_apps()), 0);
  const auto built =
      build_slot_problem(cluster_, demand_, nullptr, lookup_, options);
  const auto lp = solver::solve_lp(built.model);
  ASSERT_TRUE(lp.usable());
  const std::vector<double> zero(
      static_cast<std::size_t>(built.model.num_variables()), 0.0);
  for (const auto& point : {zero, lp.values}) {
    const auto candidate = heuristic_incumbent(built, point, cluster_, demand_,
                                               nullptr, lookup_, options);
    ASSERT_FALSE(candidate.empty());
    EXPECT_LE(built.model.max_violation(candidate), 1e-6);
    double served = 0.0;
    for (int i = 0; i < cluster_.num_apps(); ++i) {
      for (int j = 0; j < cluster_.zoo().num_variants(i); ++j) {
        for (int k = 0; k < cluster_.num_devices(); ++k) {
          const double z = candidate[static_cast<std::size_t>(built.z(i, j, k))];
          served += z;
          if (k == 1 || j > 0) {
            EXPECT_EQ(z, 0.0) << "i=" << i << " j=" << j << " k=" << k;
          }
        }
      }
    }
    EXPECT_GT(served, 0.0);  // the live edges still serve
  }
}

// -------------------------------------------------------- birp scheduler ----

TEST(BirpScheduler, ProducesValidDecisions) {
  const auto cluster = device::ClusterSpec::paper_small();
  workload::GeneratorConfig wl;
  wl.slots = 5;
  wl.mean_per_edge = workload::suggested_mean_per_edge(cluster, 0.4);
  const auto trace = workload::generate(cluster, wl);
  BirpScheduler scheduler(cluster);
  sim::Simulator simulator(cluster, trace);
  for (int t = 0; t < 5; ++t) {
    const auto result = simulator.step(scheduler);
    EXPECT_TRUE(result.repairs.clean())
        << "slot " << t << ": BIRP emitted an infeasible decision";
  }
  EXPECT_EQ(scheduler.fallback_count(), 0);
}

TEST(BirpScheduler, OfflineUsesOracleBeliefs) {
  const auto cluster = device::ClusterSpec::paper_small();
  const auto off = BirpScheduler::offline(cluster);
  EXPECT_EQ(off.name(), "BIRP-OFF");
  const auto believed = off.believed_tir(0, 0, 0);
  const auto& oracle = cluster.oracle_tir(0, 0, 0);
  EXPECT_DOUBLE_EQ(believed.eta, oracle.eta);
  EXPECT_EQ(believed.beta, oracle.beta);
}

TEST(BirpScheduler, OnlineBeliefsStartAtConservativeInit) {
  const auto cluster = device::ClusterSpec::paper_small();
  BirpScheduler scheduler(cluster);
  const auto believed = scheduler.believed_tir(0, 0, 0);
  EXPECT_LE(believed.eta, 0.1);
  EXPECT_LE(believed.beta, 16);
}

TEST(BirpScheduler, ObservationsMoveBeliefsTowardTruth) {
  const auto cluster = device::ClusterSpec::paper_small();
  workload::GeneratorConfig wl;
  wl.slots = 40;
  wl.mean_per_edge = workload::suggested_mean_per_edge(cluster, 0.5);
  const auto trace = workload::generate(cluster, wl);
  BirpScheduler scheduler(cluster);
  sim::Simulator simulator(cluster, trace);
  simulator.run(scheduler);

  // After 40 slots of feedback the believed eta should have moved off the
  // 0.1 initialization toward the (higher) effective truth for at least
  // some frequently-used (device, variant) pairs.
  bool any_learned = false;
  for (int k = 0; k < cluster.num_devices(); ++k) {
    for (int j = 0; j < cluster.zoo().num_variants(0); ++j) {
      if (scheduler.believed_tir(k, 0, j).eta > 0.12) any_learned = true;
    }
  }
  EXPECT_TRUE(any_learned);
}

TEST(GoldenDecisions, OnlinePaperLargeDigestIsPinned) {
  // Online BIRP on paper_large for 20 slots under overload, with execution
  // feedback: slot 0 plans on the Eq. 23 initial beliefs, the overload
  // forces drops at the drop penalty, and the memory-reservation cap trims
  // the kernel of models with large activations. The digest covers every
  // executed decision and the final beliefs of one (edge, app) ladder.
  const auto cluster = device::ClusterSpec::paper_large();
  workload::GeneratorConfig wl;
  wl.slots = 20;
  wl.mean_per_edge = workload::suggested_mean_per_edge(cluster, 1.3);
  const auto trace = workload::generate(cluster, wl);
  BirpScheduler scheduler(cluster);
  sim::Simulator simulator(cluster, trace);
  testutil::Fnv1a digest;
  std::int64_t dropped = 0;
  for (int t = 0; t < trace.slots(); ++t) {
    const auto result = simulator.step(scheduler);
    dropped += result.dropped;
    testutil::hash_decision(digest, result.decision);
  }
  for (int j = 0; j < cluster.zoo().num_variants(0); ++j) {
    const auto believed = scheduler.believed_tir(0, 0, j);
    digest.value(believed.eta);
    digest.value(believed.beta);
  }
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(scheduler.fallback_count(), 0);
  EXPECT_EQ(digest.get(), 0x83d1b68368d62c9aULL) << std::hex << digest.get();
}

TEST(BirpScheduler, NameOverride) {
  const auto cluster = device::ClusterSpec::paper_small();
  BirpConfig config;
  config.name_override = "CUSTOM";
  BirpScheduler scheduler(cluster, config);
  EXPECT_EQ(scheduler.name(), "CUSTOM");
}

}  // namespace
}  // namespace birp::core
