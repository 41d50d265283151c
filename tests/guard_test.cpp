// Tests for the overload-protection layer (birp/guard): circuit-breaker
// state machine, deadline-aware admission, the degradation ladder and its
// scheduler hints, failover backoff jitter, config validation, and the
// B&B iteration-limit fallback surfaced through RunMetrics.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "decision_digest.hpp"
#include "fnv1a.hpp"
#include "run_digest.hpp"
#include "birp/core/birp_scheduler.hpp"
#include "birp/device/cluster.hpp"
#include "birp/fault/failover.hpp"
#include "birp/fault/fault_plan.hpp"
#include "birp/guard/breaker.hpp"
#include "birp/guard/config.hpp"
#include "birp/guard/controller.hpp"
#include "birp/metrics/report_csv.hpp"
#include "birp/serve/engine.hpp"
#include "birp/sim/simulator.hpp"
#include "birp/sim/validate.hpp"
#include "birp/workload/generator.hpp"
#include "birp/workload/trace.hpp"

namespace birp::guard {
namespace {

device::ClusterSpec small_cluster(double tau = 6.0) {
  return device::ClusterSpec(device::one_of_each(), model::Zoo::small_scale(),
                             tau, 0x7e57);
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

BreakerConfig tight_breaker() {
  BreakerConfig config;
  config.enabled = true;
  config.window_slots = 4;
  config.min_samples = 8;
  config.trip_threshold = 0.5;
  config.open_slots = 2;
  return config;
}

// ----------------------------------------------- breaker state machine ----

TEST(Breaker, ClosedTripsToOpenAtThreshold) {
  CircuitBreaker breaker(tight_breaker());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_FALSE(breaker.avoid());

  breaker.record(10, 5);  // rate exactly at the 0.5 threshold
  const auto transition = breaker.advance();
  EXPECT_TRUE(transition.tripped);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_TRUE(breaker.avoid());
}

TEST(Breaker, ClosedBelowMinSamplesNeverTrips) {
  CircuitBreaker breaker(tight_breaker());
  breaker.record(7, 7);  // 100% failing but below min_samples = 8
  EXPECT_FALSE(breaker.advance().tripped);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  // The window accumulates across slots: one more failure crosses the bar.
  breaker.record(1, 1);
  EXPECT_TRUE(breaker.advance().tripped);
}

TEST(Breaker, WindowSlidesOldFailuresOut) {
  CircuitBreaker breaker(tight_breaker());
  breaker.record(8, 8);
  // Window of 4: after four healthy slots the failing slot has slid out, so
  // the breaker never trips even though min_samples stays satisfied. The
  // first advance still sees the fresh failures, so it trips immediately —
  // use a healthier mix instead: 8 failed of 24 = 0.33 < threshold.
  breaker.record(16, 0);
  EXPECT_FALSE(breaker.advance().tripped);
  for (int s = 0; s < 4; ++s) {
    breaker.record(4, 0);
    EXPECT_FALSE(breaker.advance().tripped);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.window_failed(), 0);  // failures aged out
}

TEST(Breaker, OpenProbesAfterQuarantine) {
  CircuitBreaker breaker(tight_breaker());
  breaker.record(8, 8);
  ASSERT_TRUE(breaker.advance().tripped);

  // Outcomes observed while open are quarantined (cleared each slot).
  breaker.record(50, 50);
  auto transition = breaker.advance();  // open slot 1 of 2
  EXPECT_FALSE(transition.probed);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);

  transition = breaker.advance();  // open slot 2 of 2 -> half-open
  EXPECT_TRUE(transition.probed);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.avoid());  // half-open lets probe traffic through
  EXPECT_EQ(breaker.window_total(), 0);  // quarantined outcomes discarded
}

TEST(Breaker, HalfOpenRecoversOnHealthyProbe) {
  CircuitBreaker breaker(tight_breaker());
  breaker.record(8, 8);
  ASSERT_TRUE(breaker.advance().tripped);
  ASSERT_FALSE(breaker.advance().probed);
  ASSERT_TRUE(breaker.advance().probed);

  breaker.record(6, 1);  // healthy probe traffic
  const auto transition = breaker.advance();
  EXPECT_TRUE(transition.recovered);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(Breaker, HalfOpenReopensOnFailingProbe) {
  CircuitBreaker breaker(tight_breaker());
  breaker.record(8, 8);
  ASSERT_TRUE(breaker.advance().tripped);
  ASSERT_TRUE((breaker.advance(), breaker.advance()).probed);

  breaker.record(4, 3);  // probe traffic still failing
  const auto transition = breaker.advance();
  EXPECT_TRUE(transition.reopened);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_TRUE(breaker.avoid());

  // The reopened breaker quarantines for open_slots again before reprobing.
  EXPECT_FALSE(breaker.advance().probed);
  EXPECT_TRUE(breaker.advance().probed);
}

TEST(Breaker, HalfOpenWithoutTrafficKeepsProbing) {
  CircuitBreaker breaker(tight_breaker());
  breaker.record(8, 8);
  ASSERT_TRUE(breaker.advance().tripped);
  breaker.advance();
  ASSERT_TRUE(breaker.advance().probed);

  for (int s = 0; s < 5; ++s) {
    const auto transition = breaker.advance();  // no outcomes recorded
    EXPECT_FALSE(transition.recovered);
    EXPECT_FALSE(transition.reopened);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
}

// ------------------------------------------------ admission controller ----

TEST(Admission, OracleFormulaAdmitsAndSheds) {
  const auto cluster = small_cluster();
  GuardConfig config;
  config.admission.enabled = true;
  config.admission.slack = 1.0;
  GuardController guard(cluster, config);

  const double tau = cluster.tau_s();
  const double slo =
      cluster.zoo().app(0).slo_fraction * tau;  // per-request budget
  const double gamma = cluster.gamma_s(0, 0, 0);
  ASSERT_LT(gamma, slo);  // a lone request at an idle edge must be viable

  // Idle edge, request available immediately: always admitted.
  EXPECT_TRUE(guard.admit(0, 0, 0, 1, 0.0, 0.0, 0.0, 0));

  // A transfer that already consumed the whole budget: shed on arrival.
  EXPECT_FALSE(guard.admit(0, 0, 0, 1, 0.0, slo, 0.0, 0));

  // Deep same-app backlog: predicted batches-ahead wait exceeds the budget.
  const std::int64_t doomed_depth =
      static_cast<std::int64_t>(slo / gamma) + 2;
  EXPECT_FALSE(guard.admit(0, 0, 0, 1, 0.0, 0.0, 0.0, doomed_depth));

  // The exact boundary: predicted sojourn == slack * slo stays admitted.
  EXPECT_TRUE(guard.admit(0, 0, 0, 1, 0.0, slo - gamma, 0.0, 0));

  // An accelerator backlog past the budget dooms the request even when it
  // is available immediately and no one is buffered ahead of it.
  EXPECT_FALSE(guard.admit(0, 0, 0, 1, 0.0, 0.0, slo, 0));
  EXPECT_TRUE(guard.admit(0, 0, 0, 1, 0.0, 0.0, slo - gamma, 0));
}

TEST(Admission, SlackScalesTheBudget) {
  const auto cluster = small_cluster();
  GuardConfig tight;
  tight.admission.enabled = true;
  tight.admission.slack = 0.1;
  GuardConfig loose;
  loose.admission.enabled = true;
  loose.admission.slack = 10.0;
  GuardController strict(cluster, tight);
  GuardController permissive(cluster, loose);

  const double slo = cluster.zoo().app(0).slo_fraction * cluster.tau_s();
  EXPECT_FALSE(strict.admit(0, 0, 0, 1, 0.0, 0.5 * slo, 0.0, 0));
  EXPECT_TRUE(permissive.admit(0, 0, 0, 1, 0.0, 0.5 * slo, 0.0, 0));
}

TEST(Admission, DisabledAdmitsEverything) {
  const auto cluster = small_cluster();
  GuardConfig config;
  config.breaker.enabled = true;  // controller engaged, admission off
  GuardController guard(cluster, config);
  EXPECT_TRUE(guard.admit(0, 0, 0, 1, 0.0, 1e9, 1e9, 1'000'000));
}

// ------------------------------------------------- degradation ladder ----

TEST(Ladder, StressStepsDownAndCalmRestores) {
  const auto cluster = small_cluster();
  GuardConfig config;
  config.degradation.enabled = true;
  config.degradation.stress_shed_fraction = 0.25;
  config.degradation.recovery_slots = 2;
  GuardController guard(cluster, config);

  const int apps = cluster.num_apps();
  const int J = cluster.zoo().num_variants(0);
  ASSERT_GE(J, 2);  // the ladder needs at least two rungs to be visible
  util::Grid2<GuardController::CellStats> cells(apps, cluster.num_devices());
  std::vector<std::int64_t> demand(static_cast<std::size_t>(apps), 100);
  std::vector<std::int64_t> calm_shed(static_cast<std::size_t>(apps), 0);
  std::vector<std::int64_t> stressed_shed = calm_shed;
  stressed_shed[0] = 30;  // 30% of app 0's demand shed: above the threshold

  auto summary = guard.end_slot(cells, demand, stressed_shed);
  EXPECT_EQ(guard.degradation_level(0), 1);
  EXPECT_EQ(summary.degraded_apps, 1);
  EXPECT_EQ(summary.max_level, 1);
  EXPECT_EQ(guard.begin_slot(1).variant_cap[0], J - 2);

  // Sustained stress keeps stepping down but never removes variant 0.
  for (int s = 0; s < J + 3; ++s) guard.end_slot(cells, demand, stressed_shed);
  EXPECT_EQ(guard.degradation_level(0), J - 1);
  EXPECT_EQ(guard.begin_slot(2).variant_cap[0], 0);

  // One calm slot is not enough; recovery_slots calm slots restore one rung.
  guard.end_slot(cells, demand, calm_shed);
  EXPECT_EQ(guard.degradation_level(0), J - 1);
  guard.end_slot(cells, demand, calm_shed);
  EXPECT_EQ(guard.degradation_level(0), J - 2);

  // Full recovery clears the cap entirely.
  for (int s = 0; s < 2 * J; ++s) guard.end_slot(cells, demand, calm_shed);
  EXPECT_EQ(guard.degradation_level(0), 0);
  EXPECT_EQ(guard.begin_slot(3).variant_cap[0], -1);
  EXPECT_TRUE(guard.begin_slot(3).empty());
}

TEST(Ladder, OpenBreakerCountsAsStress) {
  const auto cluster = small_cluster();
  GuardConfig config;
  config.breaker = tight_breaker();
  config.degradation.enabled = true;
  GuardController guard(cluster, config);

  const int apps = cluster.num_apps();
  util::Grid2<GuardController::CellStats> cells(apps, cluster.num_devices());
  cells(0, 1) = {20, 20};  // app 0 failing hard at edge 1
  std::vector<std::int64_t> demand(static_cast<std::size_t>(apps), 100);
  std::vector<std::int64_t> shed(static_cast<std::size_t>(apps), 0);

  guard.end_slot(cells, demand, shed);
  EXPECT_EQ(guard.breaker_state(0, 1), BreakerState::kOpen);
  EXPECT_EQ(guard.degradation_level(0), 1);  // breaker stress, no sheds

  const auto& hints = guard.begin_slot(1);
  EXPECT_EQ(hints.avoid_import(0, 1), 1);
  EXPECT_EQ(hints.avoid_import(0, 0), 0);
  EXPECT_FALSE(hints.empty());
}

// --------------------------------------- hints constrain the scheduler ----

TEST(Hints, BirpSchedulerRespectsAvoidAndVariantCap) {
  const auto cluster = small_cluster();
  core::BirpScheduler scheduler(cluster);

  sim::SchedulerHints hints;
  hints.avoid_import =
      util::Grid2<std::uint8_t>(cluster.num_apps(), cluster.num_devices(), 0);
  for (int i = 0; i < cluster.num_apps(); ++i) hints.avoid_import(i, 1) = 1;
  hints.variant_cap.assign(static_cast<std::size_t>(cluster.num_apps()), 0);

  sim::SlotState state;
  state.slot = 0;
  state.demand = util::Grid2<std::int64_t>(cluster.num_apps(),
                                           cluster.num_devices(), 8);
  state.hints = &hints;
  const auto decision = scheduler.decide(state);

  for (int i = 0; i < cluster.num_apps(); ++i) {
    // No redistribution into the avoided edge...
    EXPECT_EQ(decision.imports(i, 1), 0);
    // ...and nothing served above the capped variant anywhere.
    for (int j = 1; j < cluster.zoo().max_variants(); ++j) {
      for (int k = 0; k < cluster.num_devices(); ++k) {
        EXPECT_EQ(decision.served(i, j, k), 0)
            << "i=" << i << " j=" << j << " k=" << k;
      }
    }
  }
}

// ------------------------------------------------------- backoff jitter ----

TEST(Backoff, ExponentialScheduleWithoutJitter) {
  fault::FailoverConfig config;
  config.enabled = true;
  config.backoff_base_slots = 3;
  fault::FailoverPolicy policy(config, 1, 2);
  EXPECT_EQ(policy.delay_slots(1), 3);
  EXPECT_EQ(policy.delay_slots(2), 6);
  EXPECT_EQ(policy.delay_slots(3), 12);
  EXPECT_EQ(policy.delay_slots(4), 16);  // capped
  EXPECT_EQ(policy.delay_slots(5), 16);
}

TEST(Backoff, DefaultScheduleDoublesUpToSixteenSlots) {
  // Default growth and ceiling: a base of 2 doubles per attempt and holds
  // at 16 slots.
  fault::FailoverConfig config;
  config.enabled = true;
  config.backoff_base_slots = 2;
  fault::FailoverPolicy policy(config, 1, 2);
  std::vector<int> delays;
  for (int attempt = 1; attempt <= 5; ++attempt) {
    delays.push_back(policy.delay_slots(attempt));
  }
  EXPECT_EQ(delays, (std::vector<int>{2, 4, 8, 16, 16}));
}

TEST(Backoff, BaseAboveTheCeilingIsRejected) {
  fault::FailoverConfig config;
  config.enabled = true;
  config.backoff_base_slots = 16;
  EXPECT_NO_THROW(fault::FailoverPolicy(config, 1, 2));
  config.backoff_base_slots = 17;
  EXPECT_THROW(fault::FailoverPolicy(config, 1, 2), std::logic_error);
}

TEST(Backoff, LegacyZeroBaseIsAlwaysNextSlot) {
  fault::FailoverConfig config;
  config.enabled = true;
  config.backoff_jitter = 0.9;  // irrelevant: base 0 never draws
  fault::FailoverPolicy policy(config, 1, 2);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(policy.delay_slots(attempt), 1);
  }
}

TEST(Backoff, JitterIsSeededAndDeterministic) {
  fault::FailoverConfig config;
  config.enabled = true;
  config.backoff_base_slots = 4;
  config.backoff_jitter = 0.5;

  const auto draw_schedule = [](fault::FailoverPolicy& policy) {
    std::vector<int> delays;
    for (int n = 0; n < 16; ++n) delays.push_back(policy.delay_slots(1 + n % 3));
    return delays;
  };
  fault::FailoverPolicy a(config, 2, 3);
  fault::FailoverPolicy b(config, 2, 3);
  const auto first = draw_schedule(a);
  EXPECT_EQ(first, draw_schedule(b));  // same seed -> same schedule

  for (const int d : first) {
    EXPECT_GE(d, 1);
    EXPECT_LE(d, fault::kBackoffMaxSlots);
  }

  auto reseeded = config;
  reseeded.backoff_seed ^= 0xbeef;
  fault::FailoverPolicy c(config, 2, 3);
  fault::FailoverPolicy d(reseeded, 2, 3);
  EXPECT_NE(draw_schedule(c), draw_schedule(d));
}

TEST(Backoff, CohortsWaitOutTheirDelay) {
  fault::FailoverConfig config;
  config.enabled = true;
  config.retry_budget = 2;
  config.backoff_base_slots = 2;
  config.backoff_jitter = 0.0;
  fault::FailoverPolicy policy(config, 1, 2);

  policy.begin_slot(0, {1, 1});
  EXPECT_EQ(policy.on_orphans(0, 1, 6).retried, 6);

  // Delay 2: nothing re-enters at slot 1, everything at slot 2.
  const auto& early = policy.begin_slot(1, {1, 1});
  EXPECT_EQ(early(0, 0) + early(0, 1), 0);
  const auto& due = policy.begin_slot(2, {1, 1});
  EXPECT_EQ(due(0, 0) + due(0, 1), 6);
  EXPECT_EQ(policy.drain_pending(), 0);
}

TEST(Backoff, AvoidMaskRoutesAroundTrippedEdges) {
  fault::FailoverConfig config;
  config.enabled = true;
  config.retry_budget = 2;  // the re-admitted cohort survives one more orphaning
  fault::FailoverPolicy policy(config, 1, 3);
  policy.begin_slot(0, {1, 1, 1});
  EXPECT_EQ(policy.on_orphans(0, 2, 9).retried, 9);

  util::Grid2<std::uint8_t> avoid(1, 3, 0);
  avoid(0, 1) = 1;
  const auto& readmit = policy.begin_slot(1, {1, 1, 1}, &avoid);
  EXPECT_EQ(readmit(0, 1), 0);  // tripped edge skipped
  EXPECT_EQ(readmit(0, 0) + readmit(0, 2), 9);

  // Availability beats avoidance: all edges tripped -> all edges used.
  // (`readmit` aliases the policy's internal grid, so copy the count out
  // before the next begin_slot overwrites it.)
  const std::int64_t reorphaned = readmit(0, 0);
  EXPECT_EQ(policy.on_orphans(0, 0, reorphaned).retried, reorphaned);
  util::Grid2<std::uint8_t> all(1, 3, 1);
  const auto& forced = policy.begin_slot(2, {1, 1, 1}, &all);
  EXPECT_EQ(forced(0, 0) + forced(0, 1) + forced(0, 2), reorphaned);
}

// ----------------------------------------------------- config checking ----

TEST(GuardValidation, RejectsOutOfRangeValues) {
  GuardConfig slack;
  slack.admission.slack = 0.0;
  EXPECT_THROW(validate(slack), std::logic_error);

  GuardConfig window;
  window.breaker.window_slots = 0;
  EXPECT_THROW(validate(window), std::logic_error);

  GuardConfig samples;
  samples.breaker.min_samples = 0;
  EXPECT_THROW(validate(samples), std::logic_error);

  GuardConfig threshold;
  threshold.breaker.trip_threshold = 1.5;
  EXPECT_THROW(validate(threshold), std::logic_error);

  GuardConfig open;
  open.breaker.open_slots = 0;
  EXPECT_THROW(validate(open), std::logic_error);

  GuardConfig stress;
  stress.degradation.stress_shed_fraction = -0.5;
  EXPECT_THROW(validate(stress), std::logic_error);

  GuardConfig recovery;
  recovery.degradation.recovery_slots = 0;
  EXPECT_THROW(validate(recovery), std::logic_error);

  EXPECT_NO_THROW(validate(GuardConfig{}));
}

TEST(GuardValidation, ServeEngineRejectsBadConfigs) {
  const auto cluster = small_cluster();
  const auto trace = uniform_trace(cluster, 2, 4);

  serve::ServeConfig negative_queue;
  negative_queue.queue_capacity = -1;
  EXPECT_THROW(serve::ServeEngine(cluster, trace, negative_queue),
               std::logic_error);

  serve::ServeConfig negative_threads;
  negative_threads.threads = -2;
  EXPECT_THROW(serve::ServeEngine(cluster, trace, negative_threads),
               std::logic_error);

  serve::ServeConfig bad_guard;
  bad_guard.guard.breaker.trip_threshold = 2.0;
  EXPECT_THROW(serve::ServeEngine(cluster, trace, bad_guard),
               std::logic_error);

  // Bad guard values are rejected even with every feature disabled: configs
  // are validated before they can silently activate later.
  serve::ServeConfig disabled_but_bad;
  disabled_but_bad.guard.admission.slack = -1.0;
  EXPECT_THROW(serve::ServeEngine(cluster, trace, disabled_but_bad),
               std::logic_error);

  serve::ServeConfig fine;
  fine.guard.admission.enabled = true;
  EXPECT_NO_THROW(serve::ServeEngine(cluster, trace, fine));
}

// ------------------------------------------------- engine integration ----

TEST(ServeGuard, NeutralGuardIsBitIdenticalToPlain) {
  // Admission enabled with an effectively infinite budget: the guard runs
  // (controller engaged, gates evaluated) but never changes an outcome.
  const auto cluster = small_cluster();
  const auto trace = uniform_trace(cluster, 5, 8);
  serve::ServeConfig plain;
  serve::ServeConfig neutral;
  neutral.guard.admission.enabled = true;
  neutral.guard.admission.slack = 1e9;

  LocalGreedyScheduler s1(cluster);
  LocalGreedyScheduler s2(cluster);
  serve::ServeEngine e1(cluster, trace, plain);
  serve::ServeEngine e2(cluster, trace, neutral);
  const auto a = e1.run(s1);
  const auto b = e2.run(s2);
  EXPECT_DOUBLE_EQ(a.total_loss(), b.total_loss());
  EXPECT_EQ(a.slo_failures(), b.slo_failures());
  EXPECT_DOUBLE_EQ(a.latency_quantile(0.5), b.latency_quantile(0.5));
  EXPECT_EQ(b.deadline_shed(), 0);
  EXPECT_EQ(b.breaker_trips(), 0);
  EXPECT_EQ(b.degraded_slots(), 0);
}

TEST(ServeGuard, AggressiveAdmissionShedsAndConservesRequests) {
  const auto cluster = small_cluster();
  const auto trace = uniform_trace(cluster, 6, 24);  // heavy overload
  serve::ServeConfig config;
  config.noise_sigma = 0.0;
  config.guard.admission.enabled = true;
  // tau = 6 s vs variant-0 batch latencies of tens of milliseconds: only a
  // sub-1% slack makes the predicted batch wait blow the budget.
  config.guard.admission.slack = 0.005;

  LocalGreedyScheduler scheduler(cluster);
  serve::ServeEngine engine(cluster, trace, config);
  const auto metrics = engine.run(scheduler);
  EXPECT_GT(metrics.deadline_shed(), 0);
  // Every request still resolves exactly once.
  EXPECT_EQ(metrics.total_requests(), trace.total());
  // Sheds are drops and SLO failures, never silent losses.
  EXPECT_GE(metrics.dropped(), metrics.deadline_shed());
  EXPECT_GE(metrics.slo_failures(), metrics.deadline_shed());
}

TEST(ServeGuard, FullLadderIsDeterministicAcrossThreadCounts) {
  const auto cluster = small_cluster();
  const auto trace = uniform_trace(cluster, 8, 20);
  serve::ServeConfig config;
  config.queue_capacity = 24;
  config.guard.admission.enabled = true;
  config.guard.admission.slack = 0.8;
  config.guard.breaker = tight_breaker();
  config.guard.degradation.enabled = true;
  config.failover.enabled = true;
  config.failover.backoff_base_slots = 2;
  config.failover.backoff_jitter = 0.5;

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
  EXPECT_EQ(a.deadline_shed(), b.deadline_shed());
  EXPECT_EQ(a.breaker_trips(), b.breaker_trips());
  EXPECT_EQ(a.degraded_slots(), b.degraded_slots());
  EXPECT_EQ(a.retries(), b.retries());
  EXPECT_DOUBLE_EQ(a.latency_quantile(0.95), b.latency_quantile(0.95));
  EXPECT_EQ(a.total_requests(), trace.total());
}

/// The full guard ladder on a flapping, straggling cluster with jittered
/// backoff failover: breakers trip, their avoid mask steers re-admissions,
/// and the jitter stream orders the retries.
struct GuardedBackoffRun {
  device::ClusterSpec cluster = small_cluster();
  workload::Trace trace = uniform_trace(cluster, 16, 20);
  serve::ServeConfig config = [] {
    serve::ServeConfig config;
    config.queue_capacity = 24;
    config.guard.admission.enabled = true;
    config.guard.admission.slack = 0.8;
    config.guard.breaker = tight_breaker();
    config.guard.degradation.enabled = true;
    config.fault_plan = fault::FaultPlan::flapping_edge(2, 1, 16, 2, 2);
    config.fault_plan.add_straggler(1, 0, 16, 40.0);
    config.failover.enabled = true;
    config.failover.backoff_base_slots = 2;
    config.failover.backoff_jitter = 0.5;
    return config;
  }();
};

TEST(GoldenRuns, ServeEngineGuardedBackoffFailoverDigestIsPinned) {
  // Every step result, then run() on a fresh engine.
  const GuardedBackoffRun run;
  LocalGreedyScheduler scheduler(run.cluster);
  serve::ServeEngine engine(run.cluster, run.trace, run.config);
  metrics::RunMetrics metrics(run.trace.slots());
  testutil::Fnv1a digest;
  int avoided_readmit_slots = 0;
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
    // Every request the slot offered resolves in it exactly once, so what
    // exceeds the trace is re-admitted orphans.
    const std::int64_t offered = result.served + result.planned_drops +
                                 result.queue_drops + result.deadline_sheds +
                                 result.orphaned + result.retried;
    const auto& avoid = engine.guard()->hints().avoid_import.raw();
    if (offered > run.trace.slot_total(t) &&
        std::any_of(avoid.begin(), avoid.end(),
                    [](std::uint8_t v) { return v != 0; })) {
      ++avoided_readmit_slots;
    }
  }
  testutil::hash_metrics(digest, metrics);

  LocalGreedyScheduler fresh(run.cluster);
  const auto whole =
      serve::ServeEngine(run.cluster, run.trace, run.config).run(fresh);
  testutil::hash_metrics(digest, whole);
  digest.value(whole.breaker_trips());
  digest.value(whole.degraded_slots());
  EXPECT_GT(avoided_readmit_slots, 0);
  EXPECT_GT(whole.breaker_trips(), 0);
  EXPECT_GT(whole.retries(), 0);
  EXPECT_GT(whole.deadline_shed(), 0);
  EXPECT_EQ(whole.total_requests(), run.trace.total());
  EXPECT_EQ(digest.get(), 0x59bcef1326d78c59ULL) << std::hex << digest.get();
}

/// bench_overload's flash-crowd scenario (calm 0.7x, a 4x surge in the
/// middle third) on the paper's small cluster, under a router that keeps
/// part of each cell home, spills the next part to the neighbor edge and
/// leaves the rest for validate_and_repair to shed. Edge 2 flaps, edge 0
/// runs at half bandwidth and edge 4 straggles, so imports, orphans,
/// backoff re-admissions, planned, queue and deadline drops all occur.
class SpillGreedyScheduler : public sim::Scheduler {
 public:
  explicit SpillGreedyScheduler(const device::ClusterSpec& cluster)
      : cluster_(cluster) {}
  [[nodiscard]] std::string name() const override { return "spill-greedy"; }
  [[nodiscard]] sim::SlotDecision decide(const sim::SlotState& state) override {
    constexpr std::int64_t kKeep = 90;
    constexpr std::int64_t kSpill = 40;
    const int I = cluster_.num_apps();
    const int K = cluster_.num_devices();
    sim::SlotDecision decision(I, cluster_.zoo().max_variants(), K);
    util::Grid2<std::int64_t> serve(I, K, 0);
    for (int i = 0; i < I; ++i) {
      for (int k = 0; k < K; ++k) {
        const auto demand = state.demand(i, k);
        const auto keep = std::min(demand, kKeep);
        serve(i, k) += keep;
        const int to = (k + 1) % K;
        const auto spill = std::min(demand - keep, kSpill);
        if (spill > 0 && !state.import_avoided(i, to)) {
          decision.flows.push_back(sim::Flow{i, k, to, spill});
          serve(i, to) += spill;
        }
      }
    }
    for (int i = 0; i < I; ++i) {
      for (int k = 0; k < K; ++k) {
        if (serve(i, k) <= 0) continue;
        const int kernel =
            static_cast<int>(std::min<std::int64_t>(serve(i, k), 16));
        int variant = 0;
        for (int j = cluster_.zoo().num_variants(i) - 1; j > 0; --j) {
          sim::SlotDecision trial(I, cluster_.zoo().max_variants(), K);
          trial.served(i, j, k) = serve(i, k);
          trial.kernel(i, j, k) = kernel;
          if (state.variant_allowed(i, j) &&
              sim::decision_memory_mb(cluster_, trial, k) <=
                  cluster_.memory_mb(k)) {
            variant = j;
            break;
          }
        }
        decision.served(i, variant, k) = serve(i, k);
        decision.kernel(i, variant, k) = kernel;
      }
    }
    return decision;
  }

 private:
  const device::ClusterSpec& cluster_;
};

struct FlashCrowdRun {
  device::ClusterSpec cluster = device::ClusterSpec::paper_small();
  workload::Trace trace = [this] {
    workload::GeneratorConfig gc;
    gc.slots = 30;
    gc.seed = 0xf1a5;
    gc.mean_per_edge = 100.0;  // about one edge's serving capacity
    const auto base = workload::generate(cluster, gc);
    workload::Trace scaled(base.slots(), base.apps(), base.devices());
    for (int t = 0; t < base.slots(); ++t) {
      const double f = t >= 10 && t < 16 ? 4.0 : 0.7;
      for (int i = 0; i < base.apps(); ++i) {
        for (int k = 0; k < base.devices(); ++k) {
          scaled.set(t, i, k,
                     std::llround(static_cast<double>(base.at(t, i, k)) * f));
        }
      }
    }
    return scaled;
  }();
  serve::ServeConfig config = [] {
    serve::ServeConfig config;
    config.queue_capacity = 32;
    config.keep_records = true;
    config.adaptive.enabled = true;
    config.guard.admission.enabled = true;
    config.guard.admission.slack = 1.0;
    config.guard.breaker = tight_breaker();
    config.guard.degradation.enabled = true;
    config.fault_plan = fault::FaultPlan::flapping_edge(2, 4, 30, 2, 3);
    config.fault_plan.add_bandwidth(0, 0, 30, 0.5);
    config.fault_plan.add_straggler(4, 8, 20, 3.0);
    config.failover.enabled = true;
    config.failover.backoff_base_slots = 1;
    config.failover.backoff_jitter = 0.25;
    return config;
  }();
};

/// Every step result with its request records, then every RunMetrics
/// counter and quantile, of one flash-crowd run at `threads`.
std::uint64_t flash_crowd_digest(int threads) {
  const FlashCrowdRun run;
  auto config = run.config;
  config.threads = threads;
  SpillGreedyScheduler scheduler(run.cluster);
  serve::ServeEngine engine(run.cluster, run.trace, config);
  metrics::RunMetrics metrics(run.trace.slots());
  testutil::Fnv1a digest;
  std::int64_t retried = 0;
  std::int64_t imported = 0;
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
    digest.value(result.records.size());
    for (const auto& record : result.records) {
      digest.value(record.item.app);
      digest.value(record.item.origin);
      digest.value(record.item.seq);
      digest.value(record.item.arrival_s);
      digest.value(record.item.available_s);
      digest.value(static_cast<int>(record.outcome));
      digest.value(record.served_on);
      digest.value(record.variant);
      digest.value(record.batch);
      digest.value(record.formation_end_s);
      digest.value(record.start_s);
      digest.value(record.completion_s);
      digest.value(static_cast<unsigned char>(record.met_slo));
      if (record.served_on >= 0 && record.served_on != record.item.origin) {
        ++imported;
      }
    }
    retried += result.retried;
  }
  engine.finish(scheduler, metrics);
  testutil::hash_metrics(digest, metrics);
  for (const auto* ecdf : {&metrics.queue_wait(), &metrics.admit_to_launch()}) {
    digest.value(ecdf->count());
    for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
      digest.value(ecdf->quantile(q));
    }
  }
  for (int r = 0; r < serve::kNumSealReasons; ++r) {
    digest.value(metrics.batch_seals(r));
  }
  digest.value(metrics.queue_depth().count());
  digest.value(metrics.queue_depth().mean());
  digest.value(metrics.queue_depth().max());
  digest.value(metrics.breaker_trips());
  digest.value(metrics.breaker_reopens());
  digest.value(metrics.breaker_probes());
  digest.value(metrics.breaker_recoveries());
  digest.value(metrics.degraded_slots());
  digest.value(metrics.max_degradation_level());
  EXPECT_GT(retried, 0);
  EXPECT_GT(imported, 0);
  EXPECT_GT(metrics.orphan_dropped(), 0);
  EXPECT_GT(metrics.queue_dropped(), 0);
  EXPECT_GT(metrics.deadline_shed(), 0);
  EXPECT_GT(metrics.dropped() - metrics.queue_dropped() -
                metrics.orphan_dropped() - metrics.deadline_shed(),
            0);  // planned drops
  EXPECT_EQ(metrics.total_requests(), run.trace.total());
  return digest.get();
}

TEST(GoldenRuns, ServeEngineOverloadFlashCrowdDigestIsPinned) {
  const std::uint64_t t1 = flash_crowd_digest(1);
  EXPECT_EQ(flash_crowd_digest(0), t1);
  EXPECT_EQ(flash_crowd_digest(8), t1);
  EXPECT_EQ(t1, 0x3998a96896b0d9a5ULL) << std::hex << t1;
}

TEST(ServeGuard, StepLoopThenFinishMatchesRun) {
  // A hand-written step loop settles the horizon through finish() exactly
  // as run() does, including orphan cohorts still waiting out their backoff.
  const GuardedBackoffRun run;
  LocalGreedyScheduler scheduler(run.cluster);
  serve::ServeEngine engine(run.cluster, run.trace, run.config);
  metrics::RunMetrics stepped(run.trace.slots());
  while (engine.current_slot() < run.trace.slots()) {
    engine.step(scheduler, &stepped);
  }
  EXPECT_LT(stepped.total_requests(), run.trace.total());  // still pending
  engine.finish(scheduler, stepped);
  EXPECT_EQ(stepped.total_requests(), run.trace.total());

  LocalGreedyScheduler fresh(run.cluster);
  const auto whole =
      serve::ServeEngine(run.cluster, run.trace, run.config).run(fresh);
  testutil::Fnv1a stepped_digest;
  testutil::Fnv1a run_digest;
  testutil::hash_metrics(stepped_digest, stepped);
  testutil::hash_metrics(run_digest, whole);
  EXPECT_EQ(stepped_digest.get(), run_digest.get());
}

// ------------------------------------- B&B iteration-limit fallback ----

TEST(SolverFallback, IterationLimitEngagesGreedyWithValidDecision) {
  const auto cluster = small_cluster();
  core::BirpConfig config;
  config.solver.max_nodes = 0;  // the B&B main loop never runs
  core::BirpScheduler scheduler(cluster, config);

  sim::SlotState state;
  state.slot = 0;
  state.demand = util::Grid2<std::int64_t>(cluster.num_apps(),
                                           cluster.num_devices(), 10);
  const auto decision = scheduler.decide(state);
  EXPECT_EQ(scheduler.fallback_count(), 1);

  // The fallback plan must still conserve requests per (app, edge).
  for (int i = 0; i < cluster.num_apps(); ++i) {
    for (int k = 0; k < cluster.num_devices(); ++k) {
      std::int64_t served = 0;
      for (int j = 0; j < cluster.zoo().num_variants(i); ++j) {
        served += decision.served(i, j, k);
        EXPECT_GE(decision.served(i, j, k), 0);
      }
      const auto available = state.demand(i, k) - decision.exports(i, k) +
                             decision.imports(i, k);
      EXPECT_EQ(served + decision.drops(i, k), available);
      EXPECT_GE(decision.drops(i, k), 0);
    }
  }
}

TEST(SolverFallback, HonoursLivenessAndLadderCap) {
  const auto cluster = small_cluster();
  core::BirpConfig config;
  config.solver.max_nodes = 0;
  core::BirpScheduler scheduler(cluster, config);

  constexpr int kDown = 1;
  sim::SchedulerHints hints;
  hints.variant_cap.assign(static_cast<std::size_t>(cluster.num_apps()), 0);
  sim::SlotState state;
  state.slot = 0;
  state.demand = util::Grid2<std::int64_t>(cluster.num_apps(),
                                           cluster.num_devices(), 10);
  state.edge_up.assign(static_cast<std::size_t>(cluster.num_devices()), 1);
  state.edge_up[kDown] = 0;
  state.hints = &hints;
  const auto decision = scheduler.decide(state);
  ASSERT_EQ(scheduler.fallback_count(), 1);

  for (int i = 0; i < cluster.num_apps(); ++i) {
    for (int k = 0; k < cluster.num_devices(); ++k) {
      std::int64_t served = 0;
      for (int j = 0; j < cluster.zoo().num_variants(i); ++j) {
        served += decision.served(i, j, k);
        if (k == kDown || j > 0) {
          EXPECT_EQ(decision.served(i, j, k), 0)
              << "app " << i << " variant " << j << " edge " << k;
        }
      }
      const auto available = state.demand(i, k) - decision.exports(i, k) +
                             decision.imports(i, k);
      EXPECT_EQ(served + decision.drops(i, k), available);
    }
    EXPECT_EQ(decision.drops(i, kDown), state.demand(i, kDown));
  }
}

TEST(SolverFallback, SurfacesThroughRunMetricsAndCsv) {
  const auto cluster = small_cluster();
  const auto trace = uniform_trace(cluster, 4, 6);
  core::BirpConfig config;
  config.solver.max_nodes = 0;
  core::BirpScheduler scheduler(cluster, config);
  sim::Simulator simulator(cluster, trace);
  const auto metrics = simulator.run(scheduler);
  EXPECT_EQ(metrics.solver_fallbacks(), 4);  // every slot fell back

  std::ostringstream csv;
  metrics::write_summary_csv(csv, {{"BIRP", &metrics}});
  EXPECT_NE(csv.str().find("solver_fallbacks"), std::string::npos);
  EXPECT_NE(csv.str().find(",4"), std::string::npos);

  // A healthy node budget never falls back on this workload.
  core::BirpScheduler healthy(cluster);
  sim::Simulator again(cluster, trace);
  const auto clean = again.run(healthy);
  EXPECT_EQ(clean.solver_fallbacks(), 0);
}

}  // namespace
}  // namespace birp::guard
