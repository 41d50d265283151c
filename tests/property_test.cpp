// Property-based sweeps (TEST_P over seeds) for cross-module invariants:
// whatever garbage a scheduler emits, the repaired plan is physically
// feasible; whatever the LP returns, the incumbent heuristic's candidate
// satisfies the model; solver results are invariant under formulation
// permutations.
#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "birp/core/birp_scheduler.hpp"
#include "birp/core/problem.hpp"
#include "birp/device/cluster.hpp"
#include "birp/serve/adaptive.hpp"
#include "birp/serve/batcher.hpp"
#include "birp/serve/engine.hpp"
#include "birp/sim/simulator.hpp"
#include "birp/sim/validate.hpp"
#include "birp/solver/branch_and_bound.hpp"
#include "birp/util/rng.hpp"
#include "birp/workload/generator.hpp"
#include "birp/workload/trace.hpp"

namespace birp {
namespace {

// ------------------------------------------------- validator invariants ----

class ValidatorFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ValidatorFuzz, RepairedDecisionIsAlwaysPhysicallyFeasible) {
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()) * 131);
  const auto cluster = device::ClusterSpec::paper_large();
  const int I = cluster.num_apps();
  const int K = cluster.num_devices();

  util::Grid2<std::int64_t> demand(I, K, 0);
  for (int i = 0; i < I; ++i) {
    for (int k = 0; k < K; ++k) demand(i, k) = rng.uniform_int(0, 60);
  }

  // Adversarial decision: random serving, kernels, flows, drops — including
  // nonsense (negative counts, self flows, phantom variants).
  sim::SlotDecision decision(I, cluster.zoo().max_variants() + 1, K);
  for (int i = 0; i < I; ++i) {
    for (int j = 0; j < decision.max_variants(); ++j) {
      for (int k = 0; k < K; ++k) {
        if (!rng.bernoulli(0.3)) continue;
        decision.served(i, j, k) = rng.uniform_int(-5, 80);
        decision.kernel(i, j, k) = static_cast<int>(rng.uniform_int(-2, 64));
      }
    }
    for (int k = 0; k < K; ++k) {
      decision.drops(i, k) = rng.uniform_int(-3, 10);
    }
  }
  for (int f = 0; f < 12; ++f) {
    decision.flows.push_back({static_cast<int>(rng.uniform_int(0, I - 1)),
                              static_cast<int>(rng.uniform_int(0, K - 1)),
                              static_cast<int>(rng.uniform_int(0, K - 1)),
                              rng.uniform_int(-10, 200)});
  }

  sim::validate_and_repair(cluster, demand, nullptr, decision);

  // Invariant 1: exact request conservation per (app, edge).
  for (int i = 0; i < I; ++i) {
    for (int k = 0; k < K; ++k) {
      std::int64_t served = 0;
      for (int j = 0; j < cluster.zoo().num_variants(i); ++j) {
        served += decision.served(i, j, k);
        EXPECT_GE(decision.served(i, j, k), 0);
      }
      const auto available =
          demand(i, k) - decision.exports(i, k) + decision.imports(i, k);
      EXPECT_EQ(served + decision.drops(i, k), available)
          << "seed " << GetParam() << " i=" << i << " k=" << k;
      EXPECT_GE(decision.drops(i, k), 0);
    }
  }
  // Invariant 2: per-edge physical budgets.
  for (int k = 0; k < K; ++k) {
    EXPECT_LE(sim::decision_memory_mb(cluster, decision, k),
              cluster.memory_mb(k) + 1e-6);
    EXPECT_LE(sim::decision_network_mb(cluster, decision, nullptr, k),
              cluster.network_mb(k) + 1e-6);
  }
  // Invariant 3: kernels sane; phantom variants silenced.
  for (int i = 0; i < I; ++i) {
    for (int j = 0; j < decision.max_variants(); ++j) {
      for (int k = 0; k < K; ++k) {
        if (j >= cluster.zoo().num_variants(i)) {
          EXPECT_EQ(decision.served(i, j, k), 0);
        }
        if (decision.served(i, j, k) > 0) {
          EXPECT_GE(decision.kernel(i, j, k), 1);
          EXPECT_LE(decision.kernel(i, j, k), sim::kMaxKernelBatch);
        }
      }
    }
  }
  // Invariant 4: exports never exceed local demand; no self flows.
  for (const auto& flow : decision.flows) {
    EXPECT_NE(flow.from, flow.to);
    EXPECT_GT(flow.count, 0);
  }
  for (int i = 0; i < I; ++i) {
    for (int k = 0; k < K; ++k) {
      EXPECT_LE(decision.exports(i, k), demand(i, k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidatorFuzz, ::testing::Range(1, 16));

// ------------------------------------------- heuristic model-feasibility ----

class HeuristicSweep : public ::testing::TestWithParam<int> {};

TEST_P(HeuristicSweep, CandidateSatisfiesModelAtEveryDemandLevel) {
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()) * 733);
  const auto cluster = device::ClusterSpec::paper_large();
  const int I = cluster.num_apps();
  const int K = cluster.num_devices();

  util::Grid2<std::int64_t> demand(I, K, 0);
  // Demand level scales with the seed: light through heavy overload.
  const auto level = 5 + 12 * (GetParam() % 8);
  for (int i = 0; i < I; ++i) {
    for (int k = 0; k < K; ++k) {
      demand(i, k) = rng.uniform_int(0, level);
    }
  }
  const core::TirLookup lookup = [&](int k, int i, int j) {
    return cluster.oracle_tir(k, i, j);
  };
  const auto built =
      core::build_slot_problem(cluster, demand, nullptr, lookup, {});
  const auto lp = solver::solve_lp(built.model);
  ASSERT_TRUE(lp.usable()) << "seed " << GetParam();

  const auto candidate = core::heuristic_incumbent(
      built, lp.values, cluster, demand, nullptr, lookup, {});
  ASSERT_FALSE(candidate.empty()) << "seed " << GetParam();
  EXPECT_LE(built.model.max_violation(candidate), 1e-6)
      << "seed " << GetParam();
  EXPECT_LE(built.model.max_integrality_violation(candidate), 1e-6);
  // Objective sanity: bounded below by the relaxation.
  EXPECT_GE(built.model.objective_value(candidate), lp.objective - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeuristicSweep, ::testing::Range(1, 17));

// ------------------------------------------------ solver permutation law ----

class SolverPermutation : public ::testing::TestWithParam<int> {};

TEST_P(SolverPermutation, ObjectiveInvariantUnderVariableReordering) {
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()) * 977);
  constexpr int kVars = 8;
  constexpr int kRows = 5;

  std::vector<double> obj(kVars);
  std::vector<double> upper(kVars);
  std::vector<std::vector<double>> rows(kRows, std::vector<double>(kVars));
  std::vector<double> rhs(kRows);
  for (int v = 0; v < kVars; ++v) {
    obj[static_cast<std::size_t>(v)] = rng.uniform(-3.0, 3.0);
    upper[static_cast<std::size_t>(v)] = rng.uniform(1.0, 5.0);
  }
  for (int r = 0; r < kRows; ++r) {
    double sum = 0.0;
    for (int v = 0; v < kVars; ++v) {
      rows[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)] =
          rng.uniform(0.0, 2.0);
      sum += rows[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)];
    }
    rhs[static_cast<std::size_t>(r)] = rng.uniform(0.3, 0.8) * sum;
  }

  const auto build = [&](const std::vector<int>& order) {
    solver::Model model;
    std::vector<int> var_of(kVars);
    for (int p = 0; p < kVars; ++p) {
      const int v = order[static_cast<std::size_t>(p)];
      var_of[static_cast<std::size_t>(v)] =
          model.add_integer(0.0, upper[static_cast<std::size_t>(v)]);
      model.set_objective(var_of[static_cast<std::size_t>(v)],
                          obj[static_cast<std::size_t>(v)]);
    }
    for (int r = 0; r < kRows; ++r) {
      std::vector<solver::Term> terms;
      for (int v = 0; v < kVars; ++v) {
        terms.push_back({var_of[static_cast<std::size_t>(v)],
                         rows[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)]});
      }
      model.add_constraint(terms, solver::Relation::LessEqual,
                           rhs[static_cast<std::size_t>(r)]);
    }
    return solver::solve_milp(model);
  };

  std::vector<int> identity(kVars);
  std::vector<int> shuffled(kVars);
  for (int v = 0; v < kVars; ++v) identity[static_cast<std::size_t>(v)] = v;
  shuffled = identity;
  rng.shuffle(shuffled);

  const auto a = build(identity);
  const auto b = build(shuffled);
  ASSERT_EQ(a.status, solver::SolveStatus::Optimal);
  ASSERT_EQ(b.status, solver::SolveStatus::Optimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-6) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverPermutation, ::testing::Range(1, 13));

// ------------------------------------------- end-to-end loss accounting ----

class AccountingSweep : public ::testing::TestWithParam<int> {};

TEST_P(AccountingSweep, MetricsBalanceAgainstTrace) {
  // For any intensity: requests in == completions + drops, and the loss is
  // bounded by [best, worst] model loss per request plus drop penalties.
  const auto cluster = device::ClusterSpec::paper_small();
  workload::GeneratorConfig config;
  config.slots = 8;
  config.seed = static_cast<std::uint64_t>(GetParam()) * 31;
  config.mean_per_edge =
      workload::suggested_mean_per_edge(cluster, 0.2 + 0.15 * (GetParam() % 5));
  const auto trace = workload::generate(cluster, config);

  core::BirpScheduler scheduler(cluster);
  sim::Simulator simulator(cluster, trace);
  const auto metrics = simulator.run(scheduler);

  EXPECT_EQ(metrics.total_requests(), trace.total());
  EXPECT_EQ(metrics.completion().count(),
            static_cast<std::size_t>(trace.total() - metrics.dropped()));

  const double best = cluster.zoo().best_loss(0);
  const double worst = cluster.zoo().worst_loss(0);
  const auto served = trace.total() - metrics.dropped();
  EXPECT_GE(metrics.total_loss(),
            best * static_cast<double>(served) +
                worst * static_cast<double>(metrics.dropped()) - 1e-6);
  EXPECT_LE(metrics.total_loss(),
            worst * static_cast<double>(trace.total()) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccountingSweep, ::testing::Range(1, 11));

// ------------------------------------------ adaptive batcher invariants ----

device::ClusterSpec serve_cluster(double tau = 6.0) {
  return device::ClusterSpec(device::one_of_each(), model::Zoo::small_scale(),
                             tau, 0x7e57);
}

/// Random FIFO prefix: availability-sorted (the queue's order), each
/// member's arrival at or before its availability (transfer delay).
std::vector<serve::ServeItem> random_candidates(util::Xoshiro256StarStar& rng,
                                                int count) {
  std::vector<serve::ServeItem> items;
  items.reserve(static_cast<std::size_t>(count));
  double at = rng.uniform(0.0, 1.0);
  for (int r = 0; r < count; ++r) {
    serve::ServeItem item;
    item.app = 0;
    item.seq = r;
    item.available_s = at;
    item.arrival_s = std::max(0.0, at - rng.uniform(0.0, 0.5));
    items.push_back(item);
    at += rng.uniform(0.0, 0.8);
  }
  return items;
}

class AdaptiveBatcherFuzz : public ::testing::TestWithParam<int> {};

TEST_P(AdaptiveBatcherFuzz, DisabledPlanDelegatesToSealBatchExactly) {
  // Adaptation off: whatever the inputs, plan() must return seal_batch's
  // seal field for field — the byte-identity the default engine relies on.
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()) * 389);
  const auto cluster = serve_cluster();
  serve::AdaptiveBatcher batcher(cluster, serve::AdaptiveBatcherConfig{});
  ASSERT_FALSE(batcher.enabled());
  for (int trial = 0; trial < 200; ++trial) {
    const auto app = static_cast<int>(rng.uniform_int(0, cluster.num_apps() - 1));
    const auto variant = static_cast<int>(
        rng.uniform_int(0, cluster.zoo().num_variants(app) - 1));
    const auto edge =
        static_cast<int>(rng.uniform_int(0, cluster.num_devices() - 1));
    const auto count = static_cast<int>(rng.uniform_int(1, 12));
    const auto need = count + static_cast<int>(rng.uniform_int(0, 6));
    const auto prior = static_cast<int>(rng.uniform_int(1, need));
    auto candidates = random_candidates(rng, count);
    for (auto& item : candidates) item.app = app;
    const double cursor = rng.uniform(0.0, 4.0);
    const double max_wait = rng.bernoulli(0.3) ? -1.0 : rng.uniform(0.0, 1.5);
    const bool more = rng.bernoulli(0.5);

    std::vector<double> avails;
    for (const auto& item : candidates) avails.push_back(item.available_s);
    const auto expected =
        serve::seal_batch(avails, need, cursor, max_wait, more);
    const auto plan = batcher.plan(edge, app, variant, candidates, prior, need,
                                   cursor, max_wait, more);
    EXPECT_EQ(plan.seal.count, expected.count) << "seed " << GetParam();
    EXPECT_DOUBLE_EQ(plan.seal.formation_end_s, expected.formation_end_s);
    EXPECT_DOUBLE_EQ(plan.seal.start_s, expected.start_s);
    EXPECT_EQ(plan.seal.timed_out, expected.timed_out);
    // Disabled plans never claim an adaptive seal reason.
    EXPECT_NE(plan.reason, serve::SealReason::kDeadline);
    EXPECT_NE(plan.reason, serve::SealReason::kUtility);
  }
}

TEST_P(AdaptiveBatcherFuzz, EffectiveTargetStaysWithinPriorAndCap) {
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()) * 521);
  const auto cluster = serve_cluster();
  serve::AdaptiveBatcherConfig config;
  config.enabled = true;
  config.max_batch = static_cast<int>(rng.uniform_int(1, 64));
  serve::AdaptiveBatcher batcher(cluster, config);
  const int cap = batcher.config().max_batch;
  EXPECT_LE(cap, sim::kMaxKernelBatch);  // ctor clamps to the kernel cap
  for (int trial = 0; trial < 300; ++trial) {
    const auto prior = static_cast<int>(rng.uniform_int(-2, 48));
    const auto backlog = rng.uniform_int(0, 200);
    const int target = batcher.effective_target(prior, backlog);
    EXPECT_GE(target, 1);
    EXPECT_LE(target, cap);
    // The target never shrinks below the (clamped) MILP prior...
    EXPECT_GE(target, std::clamp(std::max(1, prior), 1, cap));
    // ...and only grows past it when the backlog threshold is met.
    const double threshold = serve::kGrowthBacklogFactor *
                             static_cast<double>(std::max(1, prior));
    if (static_cast<double>(backlog) < threshold) {
      EXPECT_EQ(target, std::clamp(std::max(1, prior), 1, cap));
    }
  }
}

TEST_P(AdaptiveBatcherFuzz, SealMeetsOldestDeadlineWheneverAnySealCould) {
  // The deadline invariant: if the planned launch's predicted completion
  // breaches the oldest member's deadline, then NO smaller immediate seal
  // would have met it — a viable smaller seal is never passed over.
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()) * 769);
  const auto cluster = serve_cluster();
  serve::AdaptiveBatcherConfig config;
  config.enabled = true;
  config.slack = rng.uniform(0.3, 1.5);
  serve::AdaptiveBatcher batcher(cluster, config);
  for (int trial = 0; trial < 200; ++trial) {
    const auto app = static_cast<int>(rng.uniform_int(0, cluster.num_apps() - 1));
    const auto variant = static_cast<int>(
        rng.uniform_int(0, cluster.zoo().num_variants(app) - 1));
    const auto edge =
        static_cast<int>(rng.uniform_int(0, cluster.num_devices() - 1));
    const auto count = static_cast<int>(rng.uniform_int(1, 12));
    const auto need = count + static_cast<int>(rng.uniform_int(0, 6));
    const auto prior = static_cast<int>(rng.uniform_int(1, need));
    auto candidates = random_candidates(rng, count);
    for (auto& item : candidates) item.app = app;
    const double cursor = rng.uniform(0.0, 4.0);
    const double max_wait = rng.bernoulli(0.3) ? -1.0 : rng.uniform(0.0, 1.5);
    const bool more = rng.bernoulli(0.5);

    const auto plan = batcher.plan(edge, app, variant, candidates, prior, need,
                                   cursor, max_wait, more);
    ASSERT_GE(plan.seal.count, 1);
    ASSERT_LE(plan.seal.count, need);
    ASSERT_LE(plan.seal.count, count);

    const double slo =
        cluster.zoo().app(app).slo_fraction * cluster.tau_s();
    const double oldest_deadline =
        candidates.front().arrival_s + config.slack * slo;
    const auto completion_of = [&](int m) {
      return std::max(cursor,
                      candidates[static_cast<std::size_t>(m - 1)].available_s) +
             batcher.predicted_latency_s(edge, app, variant, m);
    };
    if (!plan.seal.timed_out) {
      // Immediate seal: the predicted completion matches the model and the
      // seal's bookkeeping is consistent with the member list.
      EXPECT_NEAR(plan.predicted_completion_s, completion_of(plan.seal.count),
                  1e-12)
          << "seed " << GetParam() << " trial " << trial;
      EXPECT_DOUBLE_EQ(
          plan.seal.formation_end_s,
          candidates[static_cast<std::size_t>(plan.seal.count - 1)].available_s);
      EXPECT_DOUBLE_EQ(plan.seal.start_s,
                       std::max(cursor, plan.seal.formation_end_s));
    }
    // The invariant itself, stated for both the immediate-seal and the
    // still-waiting (timed-out) plans: a breached prediction implies every
    // immediate seal of the held members would also have breached.
    if (plan.predicted_completion_s > oldest_deadline) {
      for (int m = 1; m <= plan.seal.count; ++m) {
        EXPECT_GT(completion_of(m), oldest_deadline)
            << "seed " << GetParam() << " trial " << trial << " m=" << m
            << ": a feasible smaller seal was passed over";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveBatcherFuzz, ::testing::Range(1, 13));

// ----------------------------------------- adaptive engine-level sweeps ----

class AdaptiveServeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(AdaptiveServeFuzz, EngineInvariantsHoldOnRandomTraces) {
  // Random traces through the full engine with adaptation on: every arrival
  // resolves exactly once, FIFO order within (app, edge) is preserved, and
  // no launch ever exceeds the configured cap.
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()) * 613);
  const auto cluster = serve_cluster();
  workload::Trace trace(4, cluster.num_apps(), cluster.num_devices());
  for (int t = 0; t < trace.slots(); ++t) {
    for (int i = 0; i < cluster.num_apps(); ++i) {
      for (int k = 0; k < cluster.num_devices(); ++k) {
        trace.set(t, i, k, rng.uniform_int(0, 24));
      }
    }
  }
  serve::ServeConfig config;
  config.noise_sigma = 0.0;
  config.seed = static_cast<std::uint64_t>(GetParam()) * 7 + 1;
  config.keep_records = true;
  config.adaptive.enabled = true;
  config.adaptive.max_batch = 24;
  core::BirpScheduler scheduler(cluster);
  serve::ServeEngine engine(cluster, trace, config);
  metrics::RunMetrics metrics;
  std::int64_t launches = 0;
  for (int t = 0; t < trace.slots(); ++t) {
    const auto result = engine.step(scheduler, &metrics);
    EXPECT_EQ(result.served + result.planned_drops + result.queue_drops +
                  result.deadline_sheds,
              trace.slot_total(t))
        << "seed " << GetParam() << " slot " << t;
    for (const auto n : result.seals) launches += n;
    std::map<std::pair<int, int>, double> last_avail;
    for (const auto& record : result.records) {
      if (record.outcome != serve::Outcome::kServed) continue;
      EXPECT_GE(record.batch, 1);
      EXPECT_LE(record.batch, config.adaptive.max_batch);
      EXPECT_LE(record.batch, sim::kMaxKernelBatch);
      // FIFO within (app, edge): batches take queue prefixes, so served
      // records appear in non-decreasing availability order.
      auto [it, fresh] = last_avail.try_emplace(
          {record.item.app, record.served_on}, record.item.available_s);
      if (!fresh) {
        EXPECT_GE(record.item.available_s, it->second)
            << "seed " << GetParam() << " slot " << t
            << ": FIFO order violated within (app, edge)";
        it->second = record.item.available_s;
      }
    }
  }
  EXPECT_EQ(metrics.total_requests(), trace.total());
  EXPECT_EQ(metrics.total_batches(), launches);
}

TEST_P(AdaptiveServeFuzz, DisabledEngineKeepsFillToTargetBehavior) {
  // Adaptation off on random traces: only the legacy seal reasons appear
  // and no launch exceeds its decided kernel — the fill-to-target contract.
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()) * 877);
  const auto cluster = serve_cluster();
  workload::Trace trace(3, cluster.num_apps(), cluster.num_devices());
  for (int t = 0; t < trace.slots(); ++t) {
    for (int i = 0; i < cluster.num_apps(); ++i) {
      for (int k = 0; k < cluster.num_devices(); ++k) {
        trace.set(t, i, k, rng.uniform_int(0, 20));
      }
    }
  }
  serve::ServeConfig config;
  config.noise_sigma = 0.0;
  config.seed = static_cast<std::uint64_t>(GetParam()) * 11 + 3;
  config.keep_records = true;
  core::BirpScheduler scheduler(cluster);
  serve::ServeEngine engine(cluster, trace, config);
  for (int t = 0; t < trace.slots(); ++t) {
    const auto result = engine.step(scheduler);
    EXPECT_EQ(
        result.seals[static_cast<std::size_t>(serve::SealReason::kDeadline)],
        0);
    EXPECT_EQ(
        result.seals[static_cast<std::size_t>(serve::SealReason::kGrowth)], 0);
    EXPECT_EQ(
        result.seals[static_cast<std::size_t>(serve::SealReason::kUtility)],
        0);
    for (const auto& record : result.records) {
      if (record.outcome != serve::Outcome::kServed) continue;
      EXPECT_LE(record.batch,
                result.decision.kernel(record.item.app, record.variant,
                                       record.served_on))
          << "seed " << GetParam() << " slot " << t
          << ": fill-to-target exceeded the decided kernel";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveServeFuzz, ::testing::Range(1, 9));

}  // namespace
}  // namespace birp
