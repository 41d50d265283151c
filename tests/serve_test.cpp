// Tests for the request-level serving runtime: batch-seal rule, admission
// queue, and the ServeEngine end to end.
#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "fnv1a.hpp"
#include "birp/device/cluster.hpp"
#include "birp/metrics/report_csv.hpp"
#include "birp/sched/greedy_local.hpp"
#include "birp/serve/adaptive.hpp"
#include "birp/serve/batcher.hpp"
#include "birp/serve/engine.hpp"
#include "birp/serve/queue.hpp"
#include "birp/serve/request.hpp"
#include "birp/util/alloc_count.hpp"
#include "birp/sim/scheduler.hpp"
#include "birp/sim/simulator.hpp"
#include "birp/workload/arrivals.hpp"
#include "birp/workload/generator.hpp"
#include "birp/workload/trace.hpp"

namespace birp::serve {
namespace {

device::ClusterSpec small_cluster(double tau = 6.0) {
  return device::ClusterSpec(device::one_of_each(), model::Zoo::small_scale(),
                             tau, 0x7e57);
}

/// Serves all local demand with variant 0 (batch == demand, capped at 16).
/// A positive `kernel` fixes every launch's kernel instead, so a burst of at
/// least 1.5x it engages the adaptive batcher's growth mode. Stateless, so
/// the slot simulator and the serve engine reach identical decisions when
/// fed identical demand.
class LocalGreedyScheduler : public sim::Scheduler {
 public:
  explicit LocalGreedyScheduler(const device::ClusterSpec& cluster,
                                int kernel = 0)
      : cluster_(cluster), kernel_(kernel) {}
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
            kernel_ > 0 ? kernel_
                        : static_cast<int>(std::max<std::int64_t>(take, 1));
        decision.drops(i, k) = demand - take;
      }
    }
    return decision;
  }

 private:
  const device::ClusterSpec& cluster_;
  int kernel_;
};

/// Replays a fixed decision every slot.
class FixedScheduler : public sim::Scheduler {
 public:
  explicit FixedScheduler(sim::SlotDecision decision)
      : decision_(std::move(decision)) {}
  [[nodiscard]] std::string name() const override { return "fixed"; }
  [[nodiscard]] sim::SlotDecision decide(const sim::SlotState&) override {
    return decision_;
  }

 private:
  sim::SlotDecision decision_;
};

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

ServeItem item_at(int app, double avail, std::int64_t seq = 0) {
  ServeItem item;
  item.app = app;
  item.seq = seq;
  item.arrival_s = avail;
  item.available_s = avail;
  return item;
}

// ------------------------------------------------------------ seal_batch ----

TEST(SealBatch, FullBatchLaunchesAtLastMember) {
  const std::vector<double> avails{0.1, 0.2, 0.3};
  const auto seal = seal_batch(avails, 3, 0.0, 1.0, true);
  EXPECT_EQ(seal.count, 3);
  EXPECT_FALSE(seal.timed_out);
  EXPECT_DOUBLE_EQ(seal.formation_end_s, 0.3);
  EXPECT_DOUBLE_EQ(seal.start_s, 0.3);
}

TEST(SealBatch, BusyAcceleratorExtendsTheWindow) {
  // The accelerator frees at t=6; a request ready at t=5 still joins even
  // though the timeout alone would have sealed the batch at t=0.1.
  const std::vector<double> avails{0.0, 5.0};
  const auto seal = seal_batch(avails, 2, 6.0, 0.1, true);
  EXPECT_EQ(seal.count, 2);
  EXPECT_DOUBLE_EQ(seal.start_s, 6.0);
}

TEST(SealBatch, TimeoutSealsPartialBatch) {
  const std::vector<double> avails{0.25};
  const auto seal = seal_batch(avails, 4, 0.0, 0.5, true);
  EXPECT_EQ(seal.count, 1);
  EXPECT_TRUE(seal.timed_out);
  EXPECT_DOUBLE_EQ(seal.start_s, 0.75);         // deadline = 0.25 + 0.5
  EXPECT_DOUBLE_EQ(seal.formation_end_s, 0.75);
}

TEST(SealBatch, ExhaustedStreamLaunchesImmediately) {
  const std::vector<double> avails{0.25};
  const auto seal = seal_batch(avails, 4, 0.0, 0.5, false);
  EXPECT_EQ(seal.count, 1);
  EXPECT_FALSE(seal.timed_out);
  EXPECT_DOUBLE_EQ(seal.start_s, 0.25);
}

TEST(SealBatch, NegativeWaitMeansWaitForFullBatch) {
  const std::vector<double> avails{0.0, 9.0};
  const auto seal = seal_batch(avails, 2, 0.0, -1.0, true);
  EXPECT_EQ(seal.count, 2);
  EXPECT_DOUBLE_EQ(seal.start_s, 9.0);
}

TEST(SealBatch, ConsidersAtMostNeedMembers) {
  const std::vector<double> avails{0.1, 0.2, 0.3, 0.4};
  const auto seal = seal_batch(avails, 2, 0.0, 1.0, true);
  EXPECT_EQ(seal.count, 2);
  EXPECT_DOUBLE_EQ(seal.formation_end_s, 0.2);
}

TEST(SealBatch, EmptyCandidateListRejected) {
  // Sealing from a drained queue is a caller bug; the contract check must
  // trip instead of fabricating a zero-member launch.
  const std::vector<double> empty;
  EXPECT_THROW(static_cast<void>(seal_batch(empty, 1, 0.0, 1.0, true)),
               std::logic_error);
}

// -------------------------------------------------------- AdmissionQueue ----

TEST(AdmissionQueue, UnboundedAdmitsEverything) {
  std::vector<ServeItem> stream{item_at(0, 0.0, 0), item_at(1, 0.1, 0),
                                item_at(0, 0.2, 1)};
  AdmissionQueue queue(2, stream, 0, QueuePolicy::kRejectNewest);
  queue.fill(0, 2);
  EXPECT_EQ(queue.waiting(0).size(), 2u);
  EXPECT_EQ(queue.waiting(1).size(), 1u);  // admitted chronologically en route
  EXPECT_TRUE(queue.dropped().empty());
  EXPECT_EQ(queue.upstream(0), 0);
}

TEST(AdmissionQueue, RejectNewestBouncesArrivalWhenFull) {
  std::vector<ServeItem> stream{item_at(0, 0.0, 0), item_at(0, 0.1, 1),
                                item_at(0, 0.2, 2)};
  AdmissionQueue queue(1, stream, 2, QueuePolicy::kRejectNewest);
  queue.fill(0, 3);
  EXPECT_EQ(queue.waiting(0).size(), 2u);
  ASSERT_EQ(queue.dropped().size(), 1u);
  EXPECT_EQ(queue.dropped().front().seq, 2);  // the arriving request bounced
}

TEST(AdmissionQueue, EvictOldestKeepsTheArrival) {
  std::vector<ServeItem> stream{item_at(0, 0.0, 0), item_at(0, 0.1, 1),
                                item_at(0, 0.2, 2)};
  AdmissionQueue queue(1, stream, 2, QueuePolicy::kEvictOldest);
  queue.fill(0, 3);
  ASSERT_EQ(queue.waiting(0).size(), 2u);
  EXPECT_EQ(queue.waiting(0).front().seq, 1);  // seq 0 was evicted
  ASSERT_EQ(queue.dropped().size(), 1u);
  EXPECT_EQ(queue.dropped().front().seq, 0);
}

TEST(AdmissionQueue, DispatchFreesCapacityAtLaunchStart) {
  std::vector<ServeItem> stream{item_at(0, 0.0, 0), item_at(0, 1.0, 1)};
  AdmissionQueue queue(1, stream, 1, QueuePolicy::kRejectNewest);
  queue.fill(0, 1);
  const auto batch = queue.take(0, 1);
  ASSERT_EQ(batch.size(), 1u);
  queue.on_dispatch(0.5, batch.size());  // leaves the buffer at t=0.5
  queue.fill(0, 1);                      // arrival at t=1.0 sees a free slot
  EXPECT_EQ(queue.waiting(0).size(), 1u);
  EXPECT_TRUE(queue.dropped().empty());
}

TEST(AdmissionQueue, SealedButNotYetLaunchedStillHoldsCapacity) {
  // The launch starts at t=0.5, after the second arrival at t=0.2: at that
  // arrival's admission instant the buffer is still occupied.
  std::vector<ServeItem> stream{item_at(0, 0.0, 0), item_at(0, 0.2, 1)};
  AdmissionQueue queue(1, stream, 1, QueuePolicy::kRejectNewest);
  queue.fill(0, 1);
  const auto batch = queue.take(0, 1);
  queue.on_dispatch(0.5, batch.size());
  queue.fill(0, 1);
  EXPECT_TRUE(queue.waiting(0).empty());
  ASSERT_EQ(queue.dropped().size(), 1u);
  EXPECT_EQ(queue.dropped().front().seq, 1);
}

TEST(AdmissionQueue, FillUntilRespectsThreshold) {
  std::vector<ServeItem> stream{item_at(0, 0.0, 0), item_at(0, 0.5, 1),
                                item_at(0, 0.9, 2)};
  AdmissionQueue queue(1, stream, 0, QueuePolicy::kRejectNewest);
  queue.fill_until(0, 3, 0.5);
  EXPECT_EQ(queue.waiting(0).size(), 2u);  // t=0.5 is not beyond 0.5
  EXPECT_EQ(queue.upstream(0), 1);         // t=0.9 stays upstream
  const auto rest = queue.drain_unprocessed();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest.front().seq, 2);
}

TEST(AdmissionQueue, DepthStatsTrackBufferedRequests) {
  std::vector<ServeItem> stream{item_at(0, 0.0, 0), item_at(0, 0.1, 1)};
  AdmissionQueue queue(1, stream, 0, QueuePolicy::kRejectNewest);
  queue.fill(0, 2);
  EXPECT_EQ(queue.depth_stats().count(), 2u);
  EXPECT_DOUBLE_EQ(queue.depth_stats().max(), 2.0);
}

TEST(AdmissionQueue, DrainsSettleDeferredDepartures) {
  // Regression: a batch sealed with a future launch start left its count in
  // depth_ and its event in the departure heap; the drains never applied
  // them, so a drained queue still reported nonzero depth.
  std::vector<ServeItem> stream{item_at(0, 0.0, 0), item_at(0, 0.1, 1),
                                item_at(0, 5.0, 2)};
  AdmissionQueue queue(1, stream, 2, QueuePolicy::kRejectNewest);
  queue.fill(0, 2);
  const auto batch = queue.take(0, 2);
  queue.on_dispatch(10.0, batch.size());  // launch far beyond every arrival
  EXPECT_EQ(queue.depth(), 2);            // sealed, not yet launched
  EXPECT_TRUE(queue.drain_waiting().empty());
  EXPECT_EQ(queue.depth(), 0);  // departures settled, not stale
  const auto rest = queue.drain_unprocessed();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest.front().seq, 2);
  EXPECT_EQ(queue.depth(), 0);
}

TEST(AdmissionQueue, DrainWaitingReturnsBufferedAndZeroesDepth) {
  // Mixed state at drain time: one taken-and-dispatched, one still waiting.
  std::vector<ServeItem> stream{item_at(0, 0.0, 0), item_at(0, 0.1, 1)};
  AdmissionQueue queue(1, stream, 0, QueuePolicy::kRejectNewest);
  queue.fill(0, 2);
  const auto batch = queue.take(0, 1);
  queue.on_dispatch(3.0, batch.size());
  EXPECT_EQ(queue.depth(), 2);  // 1 waiting + 1 undeparted
  const auto rest = queue.drain_waiting();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest.front().seq, 1);
  EXPECT_EQ(queue.depth(), 0);
}

TEST(AdmissionQueue, EveryDecisionPathSamplesDepthOnce) {
  // admit, bounce, and evict-then-admit each record exactly one depth
  // sample, so sample count == processed arrivals on every policy.
  {
    std::vector<ServeItem> stream{item_at(0, 0.0, 0), item_at(0, 0.1, 1),
                                  item_at(0, 0.2, 2)};
    AdmissionQueue queue(1, stream, 2, QueuePolicy::kRejectNewest);
    queue.fill(0, 3);
    EXPECT_EQ(queue.depth_stats().count(), 3u);        // 2 admits + 1 bounce
    EXPECT_DOUBLE_EQ(queue.depth_stats().max(), 2.0);  // never over capacity
  }
  {
    std::vector<ServeItem> stream{item_at(0, 0.0, 0), item_at(0, 0.1, 1),
                                  item_at(0, 0.2, 2)};
    AdmissionQueue queue(1, stream, 2, QueuePolicy::kEvictOldest);
    queue.fill(0, 3);
    EXPECT_EQ(queue.depth_stats().count(), 3u);  // 2 admits + 1 evict+admit
    EXPECT_DOUBLE_EQ(queue.depth_stats().max(), 2.0);
  }
  {
    // Evict policy with nothing evictable (all buffered already sealed):
    // the arrival bounces and still contributes exactly one sample.
    std::vector<ServeItem> stream{item_at(0, 0.0, 0), item_at(0, 0.2, 1)};
    AdmissionQueue queue(1, stream, 1, QueuePolicy::kEvictOldest);
    queue.fill(0, 1);
    const auto batch = queue.take(0, 1);
    queue.on_dispatch(0.5, batch.size());
    queue.fill(0, 1);
    ASSERT_EQ(queue.dropped().size(), 1u);
    EXPECT_EQ(queue.dropped().front().seq, 1);
    EXPECT_EQ(queue.depth_stats().count(), 2u);
  }
}

TEST(AdmissionQueue, LaunchAtTheArrivalInstantFreesCapacityFirst) {
  // A departure applies to every arrival at or after its start time, so an
  // arrival at exactly the launch start sees the freed slot.
  std::vector<ServeItem> stream{item_at(0, 0.0, 0), item_at(0, 0.5, 1)};
  AdmissionQueue queue(1, stream, 1, QueuePolicy::kRejectNewest);
  queue.fill(0, 1);
  queue.on_dispatch(0.5, queue.take(0, 1).size());
  queue.fill(0, 1);
  EXPECT_EQ(queue.waiting(0).size(), 1u);
  EXPECT_TRUE(queue.dropped().empty());
}

TEST(AdmissionQueue, EvictOldestBreaksTiesTowardTheLowestApp) {
  // Both waiting heads arrived at t=0.0; the lower app index is evicted.
  std::vector<ServeItem> stream{item_at(0, 0.0, 0), item_at(1, 0.0, 1),
                                item_at(2, 0.1, 2)};
  AdmissionQueue queue(3, stream, 2, QueuePolicy::kEvictOldest);
  queue.fill(2, 1);
  ASSERT_EQ(queue.dropped().size(), 1u);
  EXPECT_EQ(queue.dropped().front().app, 0);
  EXPECT_EQ(queue.waiting(1).size(), 1u);
  EXPECT_EQ(queue.waiting(2).size(), 1u);
}

TEST(AdmissionQueue, DecreasingDispatchStartThrows) {
  // Launch starts on one edge never go backwards; the departure list relies
  // on it, so a caller that breaks the order must fail loudly.
  std::vector<ServeItem> stream{item_at(0, 0.0, 0), item_at(0, 0.1, 1)};
  AdmissionQueue queue(1, stream, 0, QueuePolicy::kRejectNewest);
  queue.fill(0, 2);
  queue.on_dispatch(0.5, queue.take(0, 1).size());
  queue.on_dispatch(0.5, queue.take(0, 1).size());  // equal start is fine
  EXPECT_THROW(queue.on_dispatch(0.4, 1), std::logic_error);
}

// ----------------------------------------------------------- ServeEngine ----

class ServeEngineFixture : public ::testing::Test {
 protected:
  ServeEngineFixture() : cluster_(small_cluster()) {}
  device::ClusterSpec cluster_;
};

TEST_F(ServeEngineFixture, EveryArrivalResolvesExactlyOnce) {
  const auto trace = uniform_trace(cluster_, 2, 12);
  ServeConfig config;
  config.noise_sigma = 0.0;
  config.keep_records = true;
  ServeEngine engine(cluster_, trace, config);
  LocalGreedyScheduler scheduler(cluster_);
  metrics::RunMetrics metrics;
  for (int t = 0; t < trace.slots(); ++t) {
    const auto result = engine.step(scheduler, &metrics);
    EXPECT_EQ(result.served + result.planned_drops + result.queue_drops,
              trace.slot_total(t));
    EXPECT_EQ(static_cast<std::int64_t>(result.records.size()),
              trace.slot_total(t));
  }
  EXPECT_EQ(metrics.total_requests(), trace.total());
}

TEST_F(ServeEngineFixture, BitIdenticalAcrossThreadCounts) {
  const auto trace = uniform_trace(cluster_, 4, 12);
  ServeConfig one;
  one.threads = 1;
  ServeConfig many;
  many.threads = 8;
  LocalGreedyScheduler s1(cluster_);
  LocalGreedyScheduler s2(cluster_);
  const auto m1 = ServeEngine(cluster_, trace, one).run(s1);
  const auto m2 = ServeEngine(cluster_, trace, many).run(s2);
  EXPECT_EQ(m1.total_requests(), m2.total_requests());
  EXPECT_EQ(m1.slo_failures(), m2.slo_failures());
  EXPECT_EQ(m1.dropped(), m2.dropped());
  EXPECT_EQ(m1.queue_dropped(), m2.queue_dropped());
  EXPECT_DOUBLE_EQ(m1.total_loss(), m2.total_loss());
  EXPECT_DOUBLE_EQ(m1.total_energy_j(), m2.total_energy_j());
  for (const double q : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(m1.latency_quantile(q), m2.latency_quantile(q));
    EXPECT_DOUBLE_EQ(m1.queue_wait().quantile(q), m2.queue_wait().quantile(q));
    EXPECT_DOUBLE_EQ(m1.admit_to_launch().quantile(q),
                     m2.admit_to_launch().quantile(q));
  }
  EXPECT_EQ(m1.queue_depth().count(), m2.queue_depth().count());
  EXPECT_DOUBLE_EQ(m1.queue_depth().mean(), m2.queue_depth().mean());
  EXPECT_DOUBLE_EQ(m1.queue_depth().max(), m2.queue_depth().max());
}

TEST_F(ServeEngineFixture, CountsMatchSlotSimulatorWithoutNoise) {
  // Same scheduler, same demand, zero noise, ample queue: the request-level
  // engine must agree with the slot simulator on what got served/dropped.
  const auto trace = uniform_trace(cluster_, 3, 20);  // greedy drops 4/cell
  sim::SimulatorConfig sim_config;
  sim_config.noise_sigma = 0.0;
  LocalGreedyScheduler sim_sched(cluster_);
  const auto sim_metrics =
      sim::Simulator(cluster_, trace, sim_config).run(sim_sched);

  ServeConfig serve_config;
  serve_config.noise_sigma = 0.0;
  LocalGreedyScheduler serve_sched(cluster_);
  const auto serve_metrics =
      ServeEngine(cluster_, trace, serve_config).run(serve_sched);

  EXPECT_EQ(serve_metrics.total_requests(), sim_metrics.total_requests());
  EXPECT_EQ(serve_metrics.dropped(), sim_metrics.dropped());
  EXPECT_EQ(serve_metrics.total_requests() - serve_metrics.dropped(),
            sim_metrics.total_requests() - sim_metrics.dropped());
  EXPECT_EQ(serve_metrics.queue_dropped(), 0);
}

TEST_F(ServeEngineFixture, BackpressureDropsAccountedExactlyOnce) {
  const auto trace = uniform_trace(cluster_, 2, 20);
  ServeConfig config;
  config.noise_sigma = 0.0;
  config.queue_capacity = 2;  // far below the 16-deep batches greedy wants
  config.keep_records = true;
  ServeEngine engine(cluster_, trace, config);
  LocalGreedyScheduler scheduler(cluster_);
  metrics::RunMetrics metrics;
  std::int64_t served = 0;
  std::int64_t queue_drops = 0;
  std::int64_t planned = 0;
  std::int64_t late_served = 0;
  while (engine.current_slot() < trace.slots()) {
    const auto result = engine.step(scheduler, &metrics);
    served += result.served;
    queue_drops += result.queue_drops;
    planned += result.planned_drops;
    for (const auto& record : result.records) {
      if (record.outcome == Outcome::kServed && !record.met_slo) ++late_served;
    }
  }
  ASSERT_GT(queue_drops, 0);
  // Each arrival lands in exactly one bucket.
  EXPECT_EQ(served + queue_drops + planned, trace.total());
  EXPECT_EQ(metrics.total_requests(), trace.total());
  // A queue drop is a drop and an SLO failure — never double-counted.
  EXPECT_EQ(metrics.queue_dropped(), queue_drops);
  EXPECT_EQ(metrics.dropped(), queue_drops + planned);
  EXPECT_EQ(metrics.slo_failures(), late_served + queue_drops + planned);
  // Every served request, and only those, leaves one sample of each kind.
  EXPECT_EQ(metrics.completion().count(), static_cast<std::size_t>(served));
  EXPECT_EQ(metrics.queue_wait().count(), static_cast<std::size_t>(served));
  EXPECT_EQ(metrics.admit_to_launch().count(),
            static_cast<std::size_t>(served));
}

TEST_F(ServeEngineFixture, EvictOldestIsAccountedLikeRejectNewest) {
  const auto trace = uniform_trace(cluster_, 1, 20);
  ServeConfig config;
  config.noise_sigma = 0.0;
  config.queue_capacity = 2;
  config.queue_policy = QueuePolicy::kEvictOldest;
  ServeEngine engine(cluster_, trace, config);
  LocalGreedyScheduler scheduler(cluster_);
  metrics::RunMetrics metrics;
  const auto result = engine.step(scheduler, &metrics);
  EXPECT_EQ(result.served + result.planned_drops + result.queue_drops,
            trace.slot_total(0));
  EXPECT_EQ(metrics.dropped(), result.planned_drops + result.queue_drops);
}

TEST_F(ServeEngineFixture, NoiseFreeObservationsMatchGroundTruthTir) {
  const auto trace = uniform_trace(cluster_, 1, 6);
  ServeConfig config;
  config.noise_sigma = 0.0;
  config.max_batch_wait_fraction = -1.0;  // full batches only
  ServeEngine engine(cluster_, trace, config);
  LocalGreedyScheduler scheduler(cluster_);
  const auto result = engine.step(scheduler);
  ASSERT_FALSE(result.feedback.observations.empty());
  for (const auto& obs : result.feedback.observations) {
    const auto& truth = cluster_.truth().tir(obs.device, obs.app, obs.variant);
    EXPECT_NEAR(obs.observed_tir, truth.tir(obs.batch), 1e-9);
  }
}

TEST_F(ServeEngineFixture, RedistributedRequestsWaitForTransfer) {
  // All of edge 0's demand is served at edge 1; requests cannot start
  // before the wireless stream delivers them.
  workload::Trace trace(1, cluster_.num_apps(), cluster_.num_devices());
  trace.set(0, 0, 0, 8);
  sim::SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                             cluster_.num_devices());
  decision.served(0, 0, 1) = 8;
  decision.kernel(0, 0, 1) = 8;
  decision.flows.push_back({0, 0, 1, 8});
  FixedScheduler scheduler(decision);
  ServeConfig config;
  config.noise_sigma = 0.0;
  config.max_batch_wait_fraction = -1.0;
  config.keep_records = true;
  ServeEngine engine(cluster_, trace, config);
  const auto result = engine.step(scheduler);
  ASSERT_EQ(result.served, 8);
  for (const auto& record : result.records) {
    if (record.outcome != Outcome::kServed) continue;
    EXPECT_EQ(record.served_on, 1);
    EXPECT_GE(record.item.available_s, record.item.arrival_s);
    EXPECT_GE(record.start_s + 1e-12, record.item.available_s);
  }
}

TEST_F(ServeEngineFixture, PartialBatchTimeoutBoundsFormationWait) {
  const auto trace = uniform_trace(cluster_, 1, 10);
  ServeConfig config;
  config.noise_sigma = 0.0;
  config.max_batch_wait_fraction = 0.02;
  config.keep_records = true;
  ServeEngine engine(cluster_, trace, config);
  LocalGreedyScheduler scheduler(cluster_);
  const auto result = engine.step(scheduler);
  const double max_wait_s = 0.02 * cluster_.tau_s();
  for (const auto& record : result.records) {
    if (record.outcome != Outcome::kServed) continue;
    // No request waits in formation much longer than the timeout: the batch
    // seals at the latest max_wait after its oldest member became ready.
    EXPECT_LE(record.queue_wait_s(), max_wait_s + 1e-9);
  }
}

TEST_F(ServeEngineFixture, SeedChangesArrivalPattern) {
  const auto trace = uniform_trace(cluster_, 2, 10);
  ServeConfig a;
  a.noise_sigma = 0.0;
  a.seed = 1;
  ServeConfig b;
  b.noise_sigma = 0.0;
  b.seed = 2;
  LocalGreedyScheduler s1(cluster_);
  LocalGreedyScheduler s2(cluster_);
  const auto m1 = ServeEngine(cluster_, trace, a).run(s1);
  const auto m2 = ServeEngine(cluster_, trace, b).run(s2);
  EXPECT_NE(m1.latency_quantile(0.5), m2.latency_quantile(0.5));
}

TEST_F(ServeEngineFixture, RunHonorsMaxSlots) {
  const auto trace = uniform_trace(cluster_, 6, 3);
  ServeEngine engine(cluster_, trace);
  LocalGreedyScheduler scheduler(cluster_);
  const auto metrics = engine.run(scheduler, 2);
  EXPECT_EQ(metrics.slot_loss().size(), 2u);
  EXPECT_EQ(engine.current_slot(), 2);
}

TEST_F(ServeEngineFixture, StepBeyondHorizonThrows) {
  const auto trace = uniform_trace(cluster_, 1, 1);
  ServeEngine engine(cluster_, trace);
  LocalGreedyScheduler scheduler(cluster_);
  engine.step(scheduler);
  EXPECT_THROW(engine.step(scheduler), std::logic_error);
}

TEST_F(ServeEngineFixture, MismatchedTraceRejected) {
  workload::Trace trace(1, cluster_.num_apps() + 1, cluster_.num_devices());
  EXPECT_THROW(ServeEngine(cluster_, trace), std::logic_error);
}

TEST_F(ServeEngineFixture, LatencyPercentilesAndDepthStatsPopulated) {
  const auto trace = uniform_trace(cluster_, 3, 8);
  ServeEngine engine(cluster_, trace);
  LocalGreedyScheduler scheduler(cluster_);
  const auto metrics = engine.run(scheduler);
  EXPECT_GT(metrics.latency_quantile(0.5), 0.0);
  EXPECT_LE(metrics.latency_quantile(0.5), metrics.latency_quantile(0.95));
  EXPECT_LE(metrics.latency_quantile(0.95), metrics.latency_quantile(0.99));
  EXPECT_GT(metrics.queue_depth().count(), 0u);
  EXPECT_GT(metrics.admit_to_launch().count(), 0u);
}

// ------------------------------------------------------- AdaptiveBatcher ----

class AdaptiveBatcherFixture : public ::testing::Test {
 protected:
  // A long tau gives every app an SLO budget far above one serial launch,
  // so deadlines in these tests are controlled by the candidates we build,
  // not by the cluster's timing accidents.
  AdaptiveBatcherFixture() : cluster_(small_cluster(/*tau=*/60.0)) {}

  [[nodiscard]] AdaptiveBatcher enabled_batcher(
      AdaptiveBatcherConfig config = {}) const {
    config.enabled = true;
    return AdaptiveBatcher(cluster_, config);
  }

  device::ClusterSpec cluster_;
};

TEST_F(AdaptiveBatcherFixture, ConfigValidationRejectsGarbage) {
  AdaptiveBatcherConfig bad_slack;
  bad_slack.slack = 0.0;
  EXPECT_THROW(validate(bad_slack), std::logic_error);
  AdaptiveBatcherConfig bad_cap;
  bad_cap.max_batch = 0;
  EXPECT_THROW(validate(bad_cap), std::logic_error);
  // The ctor clamps oversized caps to the validator's kernel limit.
  AdaptiveBatcherConfig oversized;
  oversized.max_batch = 10 * sim::kMaxKernelBatch;
  const AdaptiveBatcher batcher(cluster_, oversized);
  EXPECT_EQ(batcher.config().max_batch, sim::kMaxKernelBatch);
}

TEST_F(AdaptiveBatcherFixture, GrowthEngagesOnlyAboveBacklogThreshold) {
  ASSERT_EQ(kGrowthBacklogFactor, 1.5);
  AdaptiveBatcherConfig config;
  config.max_batch = 16;
  const auto batcher = enabled_batcher(config);
  EXPECT_EQ(batcher.effective_target(4, 5), 4);    // below 1.5 * 4
  EXPECT_EQ(batcher.effective_target(4, 6), 6);    // at threshold: grow
  EXPECT_EQ(batcher.effective_target(4, 24), 16);  // capped at max_batch
  EXPECT_EQ(batcher.effective_target(0, 24), 16);  // prior clamped to 1 first
  // Disabled: the prior passes through untouched.
  const AdaptiveBatcher fixed(cluster_, AdaptiveBatcherConfig{});
  EXPECT_EQ(fixed.effective_target(4, 24), 4);
  EXPECT_EQ(fixed.effective_target(0, 24), 1);
}

TEST_F(AdaptiveBatcherFixture, UtilitySealsSmallerWhenTailBlowsOldestDeadline) {
  // Three members ready immediately, a fourth only after the oldest
  // member's deadline: sealing all four is doomed, sealing three wins the
  // goodput utility. Calibrated against the cluster's own gamma table.
  const auto batcher = enabled_batcher();
  const double slo = cluster_.zoo().app(0).slo_fraction * cluster_.tau_s();
  const double gamma = cluster_.gamma_s(0, 0, 0);
  ASSERT_LT(batcher.predicted_latency_s(0, 0, 0, 3), slo);
  std::vector<ServeItem> candidates{item_at(0, 0.0, 0), item_at(0, 0.0, 1),
                                    item_at(0, 0.0, 2),
                                    item_at(0, slo + 1.0, 3)};
  const auto plan = batcher.plan(0, 0, 0, candidates, /*prior=*/4, /*need=*/4,
                                 /*cursor_s=*/0.0, /*max_wait_s=*/-1.0,
                                 /*more_may_arrive=*/false);
  EXPECT_EQ(plan.reason, SealReason::kUtility);
  EXPECT_EQ(plan.seal.count, 3);
  EXPECT_FALSE(plan.seal.timed_out);
  EXPECT_DOUBLE_EQ(plan.seal.start_s, 0.0);
  EXPECT_DOUBLE_EQ(plan.predicted_completion_s,
                   batcher.predicted_latency_s(0, 0, 0, 3));
  EXPECT_LE(plan.predicted_completion_s, slo);
  // Sanity: the doomed full batch really was doomed.
  EXPECT_GT(slo + 1.0 + gamma, slo);
}

TEST_F(AdaptiveBatcherFixture, DeadlinePressureSealsInsteadOfWaiting) {
  // One member held for a timeout that lands past its deadline: the
  // fill-to-target rule would wait; the adaptive rule launches it now.
  const auto batcher = enabled_batcher();
  const double slo = cluster_.zoo().app(0).slo_fraction * cluster_.tau_s();
  ASSERT_LT(batcher.predicted_latency_s(0, 0, 0, 1), slo);
  std::vector<ServeItem> candidates{item_at(0, 0.0, 0)};
  const auto plan = batcher.plan(0, 0, 0, candidates, /*prior=*/4, /*need=*/4,
                                 /*cursor_s=*/0.0, /*max_wait_s=*/slo,
                                 /*more_may_arrive=*/true);
  EXPECT_EQ(plan.reason, SealReason::kDeadline);
  EXPECT_EQ(plan.seal.count, 1);
  EXPECT_FALSE(plan.seal.timed_out);
  EXPECT_DOUBLE_EQ(plan.seal.start_s, 0.0);
  // The same hold with slack to spare keeps the timeout seal untouched.
  const auto patient = batcher.plan(0, 0, 0, candidates, 4, 4, 0.0,
                                    /*max_wait_s=*/0.1, true);
  EXPECT_EQ(patient.reason, SealReason::kTimeout);
  EXPECT_TRUE(patient.seal.timed_out);
  EXPECT_DOUBLE_EQ(patient.seal.start_s, 0.1);
}

// ------------------------------------------- ServeEngine adaptive paths ----

TEST_F(ServeEngineFixture, BacklogGrowsBatchesBeyondTheKernelPrior) {
  // 24 requests against a kernel prior of 4: fill-to-target would run six
  // launches of 4; growth runs 16 + 8 and reports both to the tuner.
  workload::Trace trace(1, cluster_.num_apps(), cluster_.num_devices());
  trace.set(0, 0, 0, 24);
  sim::SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                             cluster_.num_devices());
  decision.served(0, 0, 0) = 24;
  decision.kernel(0, 0, 0) = 4;
  FixedScheduler scheduler(decision);
  ServeConfig config;
  config.noise_sigma = 0.0;
  config.max_batch_wait_fraction = -1.0;  // isolate growth from early seals
  config.keep_records = true;
  config.adaptive.enabled = true;
  config.adaptive.max_batch = 16;
  // A huge slack keeps deadlines from binding, isolating the growth rule
  // from the utility/early-seal rules.
  config.adaptive.slack = 100.0;
  ServeEngine engine(cluster_, trace, config);
  const auto result = engine.step(scheduler);
  ASSERT_EQ(result.served, 24);
  EXPECT_EQ(result.seals[static_cast<std::size_t>(SealReason::kGrowth)], 2);
  EXPECT_EQ(result.seals[static_cast<std::size_t>(SealReason::kFull)], 0);
  std::vector<int> batches;
  for (const auto& record : result.records) {
    if (record.outcome == Outcome::kServed) batches.push_back(record.batch);
  }
  EXPECT_EQ(*std::max_element(batches.begin(), batches.end()), 16);
  for (const int b : batches) EXPECT_LE(b, config.adaptive.max_batch);
  // Every launch reports, at its realized size — the tuner sees the grown
  // batches, not the decided kernel.
  ASSERT_EQ(result.feedback.observations.size(), 2u);
  EXPECT_EQ(result.feedback.observations[0].batch, 16);
  EXPECT_EQ(result.feedback.observations[1].batch, 8);
}

TEST_F(ServeEngineFixture, AdaptiveReplayIsDeterministic) {
  // A seeded burst trace replayed twice (and across thread counts) with
  // adaptation on must reproduce identical seal decisions, per-request
  // records, metrics, and the exported CSV, byte for byte. Kernels of 2
  // under bursts of 16 served requests make the batcher grow.
  workload::Trace trace(6, cluster_.num_apps(), cluster_.num_devices());
  for (int t = 0; t < trace.slots(); ++t) {
    for (int i = 0; i < cluster_.num_apps(); ++i) {
      for (int k = 0; k < cluster_.num_devices(); ++k) {
        trace.set(t, i, k, t % 3 == 0 ? 28 : 3);  // burst every third slot
      }
    }
  }
  const auto run = [&](int threads) {
    ServeConfig config;
    config.threads = threads;
    config.keep_records = true;
    config.adaptive.enabled = true;
    LocalGreedyScheduler scheduler(cluster_, /*kernel=*/2);
    ServeEngine engine(cluster_, trace, config);
    metrics::RunMetrics metrics;
    std::vector<SlotServeResult> results;
    while (engine.current_slot() < trace.slots()) {
      results.push_back(engine.step(scheduler, &metrics));
    }
    return std::make_pair(std::move(results), std::move(metrics));
  };
  const auto [r1, m1] = run(1);
  const auto [r2, m2] = run(8);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t t = 0; t < r1.size(); ++t) {
    EXPECT_EQ(r1[t].seals, r2[t].seals) << "slot " << t;
    ASSERT_EQ(r1[t].records.size(), r2[t].records.size()) << "slot " << t;
    for (std::size_t r = 0; r < r1[t].records.size(); ++r) {
      const auto& a = r1[t].records[r];
      const auto& b = r2[t].records[r];
      EXPECT_EQ(a.item.app, b.item.app);
      EXPECT_EQ(a.item.origin, b.item.origin);
      EXPECT_EQ(a.item.seq, b.item.seq);
      EXPECT_DOUBLE_EQ(a.item.arrival_s, b.item.arrival_s);
      EXPECT_DOUBLE_EQ(a.item.available_s, b.item.available_s);
      EXPECT_EQ(a.outcome, b.outcome);
      EXPECT_EQ(a.served_on, b.served_on);
      EXPECT_EQ(a.variant, b.variant);
      EXPECT_EQ(a.batch, b.batch);
      EXPECT_DOUBLE_EQ(a.formation_end_s, b.formation_end_s);
      EXPECT_DOUBLE_EQ(a.start_s, b.start_s);
      EXPECT_DOUBLE_EQ(a.completion_s, b.completion_s);
      EXPECT_EQ(a.met_slo, b.met_slo);
    }
  }
  EXPECT_EQ(m1.total_requests(), m2.total_requests());
  EXPECT_EQ(m1.slo_failures(), m2.slo_failures());
  EXPECT_EQ(m1.total_batches(), m2.total_batches());
  for (int reason = 0; reason < kNumSealReasons; ++reason) {
    EXPECT_EQ(m1.batch_seals(reason), m2.batch_seals(reason));
  }
  EXPECT_GT(m1.batch_seals(static_cast<int>(SealReason::kGrowth)), 0);
  EXPECT_DOUBLE_EQ(m1.total_loss(), m2.total_loss());
  const double horizon_s = cluster_.tau_s() * trace.slots();
  EXPECT_DOUBLE_EQ(m1.goodput_under_slo(horizon_s),
                   m2.goodput_under_slo(horizon_s));
  std::ostringstream csv1;
  std::ostringstream csv2;
  metrics::write_latency_csv(csv1, {{"adaptive", &m1}});
  metrics::write_latency_csv(csv2, {{"adaptive", &m2}});
  EXPECT_EQ(csv1.str(), csv2.str());
}

TEST_F(ServeEngineFixture, FullyShedQueueNeverSealsAnEmptyBatch) {
  // Regression: with deadline-aware admission shedding every arrival and a
  // zero-length batch wait, the launch loop's slot boundary lands exactly
  // on a drained queue — sealing there would hand seal_batch an empty
  // candidate list and trip its contract check.
  const auto trace = uniform_trace(cluster_, 1, 8);
  ServeConfig config;
  config.noise_sigma = 0.0;
  config.max_batch_wait_fraction = 0.0;
  config.keep_records = true;
  config.guard.admission.enabled = true;
  config.guard.admission.slack = 1e-9;  // predicted sojourn always breaches
  ServeEngine engine(cluster_, trace, config);
  LocalGreedyScheduler scheduler(cluster_);
  metrics::RunMetrics metrics;
  SlotServeResult result;
  ASSERT_NO_THROW(result = engine.step(scheduler, &metrics));
  EXPECT_EQ(result.served, 0);
  EXPECT_GT(result.deadline_sheds, 0);
  // Every arrival still resolves exactly once — as a shed or planned drop.
  EXPECT_EQ(result.deadline_sheds + result.planned_drops,
            trace.slot_total(0));
  EXPECT_EQ(metrics.deadline_shed(), result.deadline_sheds);
  std::int64_t sealed = 0;
  for (const auto n : result.seals) sealed += n;
  EXPECT_EQ(sealed, 0);
}

// ------------------------------------------------- queue script oracle ----
// Seeded op scripts (fill, fill_until, take + dispatch, clock advance) drive
// the queue through every capacity x policy x gate combination. Each case
// folds every observable of its scripts into one FNV-1a digest: the items
// each take returns, depth/upstream/exhausted after every op, the final
// waiting lists, dropped and deadline_shed, the depth stats, and both
// drains. The constants were recorded from the earlier mutex/deque/heap
// queue and its ring/slab/timer-wheel successor (which agreed decision for
// decision on every case), so any changed admit, shed, drop or defer
// decision fails here. The same scripts check per-op invariants.

using testutil::Fnv1a;

void hash_item(Fnv1a& digest, const ServeItem& item) {
  digest.value(item.app);
  digest.value(item.origin);
  digest.value(item.seq);
  digest.value(item.arrival_s);
  digest.value(item.available_s);
}

/// Every item in order, then the count.
template <typename Items>
void hash_items(Fnv1a& digest, const Items& items) {
  std::size_t n = 0;
  for (const auto& item : items) {
    hash_item(digest, item);
    ++n;
  }
  digest.value(n);
}

/// Seeded arrival stream, sorted by (available_s, app, origin, seq) as the
/// queue contract requires; seq is the stream index.
std::vector<ServeItem> seeded_stream(int apps, int count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> when(0.0, 10.0);
  std::vector<ServeItem> stream;
  stream.reserve(static_cast<std::size_t>(count));
  for (int n = 0; n < count; ++n) {
    ServeItem item;
    item.app = static_cast<int>(rng() % static_cast<std::uint64_t>(apps));
    item.origin = static_cast<int>(rng() % 3);
    item.arrival_s = when(rng);
    item.available_s = item.arrival_s;
    stream.push_back(item);
  }
  std::sort(stream.begin(), stream.end(),
            [](const ServeItem& a, const ServeItem& b) {
              if (a.available_s != b.available_s)
                return a.available_s < b.available_s;
              if (a.app != b.app) return a.app < b.app;
              return a.origin < b.origin;
            });
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i].seq = static_cast<std::int64_t>(i);
  }
  return stream;
}

/// Pure gate: shed when too much is buffered ahead or on a seq stripe.
bool stripe_gate(const void*, const ServeItem& item,
                 std::int64_t buffered_ahead) {
  return buffered_ahead <= 6 && item.seq % 5 != 4;
}

struct QueueScriptCase {
  std::int64_t capacity;
  QueuePolicy policy;
  bool gated;
  std::uint64_t digest;  ///< over the scripts of every kScriptSeeds entry

  friend void PrintTo(const QueueScriptCase& c, std::ostream* os) {
    *os << "capacity " << c.capacity
        << (c.policy == QueuePolicy::kEvictOldest ? ", evict" : ", reject")
        << (c.gated ? ", gated" : ", ungated");
  }
};

constexpr int kScriptApps = 3;
constexpr std::uint64_t kScriptSeeds[] = {0x1aced1, 0x2b,    0x93fe21,
                                          0x41,     0xdecaf, 0x77,
                                          0xbead5,  0x6a7e5, 0x100f};

/// What the script has taken out of the queue, per app, in take order.
using TakenLog = std::vector<std::vector<ServeItem>>;

/// Runs one seeded script against a fresh queue, folding every observable
/// into `digest` and calling `after_op(queue, stream, taken)` after each op.
template <typename AfterOp>
void run_queue_script(const QueueScriptCase& c, std::uint64_t seed,
                      Fnv1a& digest, AfterOp&& after_op) {
  const auto stream = seeded_stream(kScriptApps, 240, seed);
  AdmissionQueue queue(kScriptApps, stream, c.capacity, c.policy,
                       c.gated ? AdmissionGate(nullptr, &stripe_gate)
                               : AdmissionGate());
  TakenLog taken(kScriptApps);
  std::mt19937_64 rng(seed ^ 0x5c21f7);
  double now_s = 0.0;
  for (int op = 0; op < 400; ++op) {
    const int app = static_cast<int>(rng() % kScriptApps);
    switch (rng() % 4) {
      case 0:
        queue.fill(app, static_cast<std::size_t>(rng() % 9));
        break;
      case 1: {
        const auto want = static_cast<std::size_t>(rng() % 9);
        const double threshold =
            now_s + static_cast<double>(rng() % 100) * 0.05;
        queue.fill_until(app, want, threshold);
        break;
      }
      case 2: {
        const std::size_t count =
            std::min<std::size_t>(rng() % 7, queue.waiting(app).size());
        const auto batch = queue.take(app, count);
        hash_items(digest, batch);
        auto& log = taken[static_cast<std::size_t>(app)];
        log.insert(log.end(), batch.begin(), batch.end());
        now_s += 0.1;
        queue.on_dispatch(now_s, batch.size());
        break;
      }
      default:
        now_s += static_cast<double>(rng() % 20) * 0.02;
        break;
    }
    digest.value(queue.depth());
    for (int a = 0; a < kScriptApps; ++a) {
      digest.value(queue.upstream(a));
      digest.value(static_cast<unsigned char>(queue.exhausted(a)));
    }
    after_op(queue, stream, taken);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (int a = 0; a < kScriptApps; ++a) hash_items(digest, queue.waiting(a));
  hash_items(digest, queue.dropped());
  hash_items(digest, queue.deadline_shed());
  const auto& stats = queue.depth_stats();
  digest.value(stats.count());
  digest.value(stats.mean());
  digest.value(stats.max());
  hash_items(digest, queue.drain_waiting());
  hash_items(digest, queue.drain_unprocessed());
  digest.value(queue.depth());
}

/// Per-op invariants: conservation per app, the capacity bound, per-app
/// FIFO order by seq, and (evict-oldest) that every dropped request was no
/// younger than anything still waiting.
void expect_script_invariants(const QueueScriptCase& c,
                              const AdmissionQueue& queue,
                              const std::vector<ServeItem>& stream,
                              const TakenLog& taken) {
  std::vector<std::int64_t> staged(kScriptApps, 0);
  std::vector<std::int64_t> left(kScriptApps, 0);  // dropped + shed
  for (const auto& item : stream) ++staged[static_cast<std::size_t>(item.app)];
  for (const auto& item : queue.dropped()) {
    ++left[static_cast<std::size_t>(item.app)];
  }
  for (const auto& item : queue.deadline_shed()) {
    ++left[static_cast<std::size_t>(item.app)];
  }
  double oldest_waiting = std::numeric_limits<double>::infinity();
  for (int a = 0; a < kScriptApps; ++a) {
    const auto& log = taken[static_cast<std::size_t>(a)];
    std::int64_t last_seq = -1;
    for (const auto& item : log) {
      ASSERT_GT(item.seq, last_seq) << "app " << a << " taken out of order";
      last_seq = item.seq;
    }
    std::int64_t waiting = 0;
    for (const auto& item : queue.waiting(a)) {
      ASSERT_EQ(item.app, a);
      ASSERT_GT(item.seq, last_seq) << "app " << a << " FIFO out of order";
      last_seq = item.seq;
      oldest_waiting = std::min(oldest_waiting, item.available_s);
      ++waiting;
    }
    ASSERT_EQ(static_cast<std::size_t>(waiting), queue.waiting(a).size());
    ASSERT_EQ(staged[static_cast<std::size_t>(a)],
              waiting + static_cast<std::int64_t>(log.size()) +
                  left[static_cast<std::size_t>(a)] + queue.upstream(a))
        << "app " << a << " lost or duplicated a request";
  }
  if (c.capacity > 0) {
    ASSERT_LE(queue.depth(), c.capacity);
  }
  if (c.policy == QueuePolicy::kEvictOldest) {
    for (const auto& item : queue.dropped()) {
      ASSERT_LE(item.available_s, oldest_waiting)
          << "dropped seq " << item.seq << " while an older request waits";
    }
  }
}

class QueueScript : public ::testing::TestWithParam<QueueScriptCase> {};

TEST_P(QueueScript, DigestIsPinned) {
  const auto& c = GetParam();
  Fnv1a digest;
  for (const auto seed : kScriptSeeds) {
    run_queue_script(c, seed, digest, [](const auto&...) {});
  }
  EXPECT_EQ(digest.get(), c.digest) << std::hex << "0x" << digest.get();
}

TEST_P(QueueScript, InvariantsHoldAfterEveryOp) {
  const auto& c = GetParam();
  Fnv1a digest;
  for (const auto seed : kScriptSeeds) {
    run_queue_script(c, seed, digest,
                     [&](const AdmissionQueue& queue,
                         const std::vector<ServeItem>& stream,
                         const TakenLog& taken) {
                       expect_script_invariants(c, queue, stream, taken);
                     });
    ASSERT_FALSE(HasFatalFailure()) << "seed 0x" << std::hex << seed;
  }
}

constexpr QueueScriptCase kQueueScriptCases[] = {
    {0, QueuePolicy::kRejectNewest, false, 0xb7b040d5fd47c5cf},
    {0, QueuePolicy::kRejectNewest, true, 0x8c7338bb5b4b4b60},
    {0, QueuePolicy::kEvictOldest, false, 0xb7b040d5fd47c5cf},
    {0, QueuePolicy::kEvictOldest, true, 0x8c7338bb5b4b4b60},
    {5, QueuePolicy::kRejectNewest, false, 0xcb70e8b99aead561},
    {5, QueuePolicy::kRejectNewest, true, 0x7f41f63ad3be7635},
    {5, QueuePolicy::kEvictOldest, false, 0xb3e83643926e7835},
    {5, QueuePolicy::kEvictOldest, true, 0xf73dc3dc80b510ef},
    {8, QueuePolicy::kRejectNewest, false, 0xb8d65c665ecfa6a4},
    {8, QueuePolicy::kRejectNewest, true, 0xcdb4c85a34441c96},
    {8, QueuePolicy::kEvictOldest, false, 0x80c5096f27d1ab44},
    {8, QueuePolicy::kEvictOldest, true, 0x2a6cf24cb838ce5a},
    {12, QueuePolicy::kRejectNewest, false, 0x94c3b52d5917f6c9},
    {12, QueuePolicy::kRejectNewest, true, 0x2b4605e9e376b179},
    {12, QueuePolicy::kEvictOldest, false, 0xbc70ff6e3e66b343},
    {12, QueuePolicy::kEvictOldest, true, 0x00ebcd67f40b86e2},
};

INSTANTIATE_TEST_SUITE_P(
    Cases, QueueScript, ::testing::ValuesIn(kQueueScriptCases),
    [](const ::testing::TestParamInfo<QueueScriptCase>& info) {
      const auto& c = info.param;
      return "cap" + std::to_string(c.capacity) +
             (c.policy == QueuePolicy::kEvictOldest ? "_evict" : "_reject") +
             (c.gated ? "_gated" : "_ungated");
    });

// The earlier mutex/deque/heap queue's digests on the seed subsets its own
// byte-identity suite drove it through (the ring queue matched each one).

std::uint64_t script_digest(std::int64_t capacity, QueuePolicy policy,
                            bool gated,
                            std::initializer_list<std::uint64_t> seeds) {
  const QueueScriptCase c{capacity, policy, gated, 0};
  Fnv1a digest;
  for (const auto seed : seeds) {
    run_queue_script(c, seed, digest, [](const auto&...) {});
  }
  return digest.get();
}

TEST(LegacyByteIdentity, UnboundedQueueMatchesOnRandomScripts) {
  EXPECT_EQ(script_digest(0, QueuePolicy::kRejectNewest, false,
                          {0x1aced1, 0x2b, 0x93fe21}),
            0x89f3909b4f81adfdULL);
}

TEST(LegacyByteIdentity, RejectNewestBackpressureMatches) {
  EXPECT_EQ(script_digest(5, QueuePolicy::kRejectNewest, false,
                          {0x41, 0xdecaf}),
            0x6a0afb497ff7c542ULL);
  EXPECT_EQ(script_digest(12, QueuePolicy::kRejectNewest, false,
                          {0x41, 0xdecaf}),
            0x40d053e9067e177dULL);
}

TEST(LegacyByteIdentity, EvictOldestBackpressureMatches) {
  EXPECT_EQ(script_digest(5, QueuePolicy::kEvictOldest, false,
                          {0x77, 0xbead5}),
            0x569b36e129f918abULL);
  EXPECT_EQ(script_digest(12, QueuePolicy::kEvictOldest, false,
                          {0x77, 0xbead5}),
            0xfeef50b579c20616ULL);
}

TEST(LegacyByteIdentity, AdmissionGateShedsIdenticalRequests) {
  EXPECT_EQ(script_digest(0, QueuePolicy::kRejectNewest, true,
                          {0x6a7e5, 0x100f}),
            0x47faf9caa5453fafULL);
  EXPECT_EQ(script_digest(8, QueuePolicy::kEvictOldest, true,
                          {0x6a7e5, 0x100f}),
            0xdfbbc21e32ee3466ULL);
}

// ------------------------------------------------------ hot-path allocs ----

TEST_F(ServeEngineFixture, SteadyStateHotPathIsAllocationFree) {
  // serve_test links the counting operator-new hook, so hot_allocs counts
  // for real here. The engine pre-carves every per-edge container against
  // the trace's worst slot at construction, so the admission -> batch ->
  // launch path must never touch the heap — from the very first slot.
  ASSERT_TRUE(util::alloc_counting_active());
  const auto trace = uniform_trace(cluster_, 8, 12);
  ServeConfig config;
  config.threads = 2;
  ServeEngine engine(cluster_, trace, config);
  LocalGreedyScheduler scheduler(cluster_);
  metrics::RunMetrics metrics;
  for (int t = 0; t < trace.slots(); ++t) {
    EXPECT_EQ(engine.step(scheduler, &metrics).hot_allocs, 0)
        << "slot " << t;
  }
}

TEST_F(ServeEngineFixture, AdaptiveSteadyStateStaysAllocationFree) {
  // Same assertion with adaptive batching on and kernels of 2 under bursts
  // of 16 served requests: the batcher's availability scratch is
  // engine-owned, so growth-mode planning is also alloc-free once warm.
  ASSERT_TRUE(util::alloc_counting_active());
  workload::Trace trace(12, cluster_.num_apps(), cluster_.num_devices());
  for (int t = 0; t < trace.slots(); ++t) {
    for (int i = 0; i < cluster_.num_apps(); ++i) {
      for (int k = 0; k < cluster_.num_devices(); ++k) {
        trace.set(t, i, k, t % 3 == 0 ? 28 : 3);
      }
    }
  }
  ServeConfig config;
  config.threads = 1;
  config.adaptive.enabled = true;
  config.adaptive.max_batch = 16;
  ServeEngine engine(cluster_, trace, config);
  LocalGreedyScheduler scheduler(cluster_, /*kernel=*/2);
  metrics::RunMetrics metrics;
  for (int t = 0; t < trace.slots(); ++t) {
    EXPECT_EQ(engine.step(scheduler, &metrics).hot_allocs, 0)
        << "slot " << t;
  }
  EXPECT_GT(metrics.batch_seals(static_cast<int>(SealReason::kGrowth)), 0);
}

TEST_F(ServeEngineFixture, OverloadedGuardedSlotsAllocateNothingOnAnyThread) {
  // serve_flood's shape on the small cluster: the greedy scheduler at twice
  // the serving envelope, adaptive batching, deadline admission and queues
  // of 32. hot_allocs covers the step thread's serve half (demand, the
  // arrival fork, routing, the edge fork) as well as every task the pool
  // runs, so the whole slot outside decide stays off the heap.
  ASSERT_TRUE(util::alloc_counting_active());
  workload::GeneratorConfig gc;
  gc.slots = 12;
  gc.mean_per_edge = workload::suggested_mean_per_edge(cluster_, 2.0);
  const auto trace = workload::generate(cluster_, gc);
  ServeConfig config;
  config.threads = 3;
  config.queue_capacity = 32;
  config.adaptive.enabled = true;
  config.guard.admission.enabled = true;
  ServeEngine engine(cluster_, trace, config);
  sched::GreedyLocalScheduler scheduler(cluster_);
  metrics::RunMetrics metrics;
  for (int t = 0; t < trace.slots(); ++t) {
    EXPECT_EQ(engine.step(scheduler, &metrics).hot_allocs, 0)
        << "slot " << t;
  }
  EXPECT_GT(metrics.queue_dropped() + metrics.deadline_shed(), 0);
}

// --------------------------------------- threaded determinism, hard mode ----

TEST_F(ServeEngineFixture, BitIdenticalAcrossThreadsWithFaultsAndGuard) {
  // The sharded engine must stay bit-identical across thread counts even
  // with every stateful subsystem engaged: fault injection (orphans,
  // bandwidth stretch, stragglers), failover re-admission, and the guard's
  // deadline-aware admission gate.
  workload::Trace trace(6, cluster_.num_apps(), cluster_.num_devices());
  for (int t = 0; t < trace.slots(); ++t) {
    for (int i = 0; i < cluster_.num_apps(); ++i) {
      for (int k = 0; k < cluster_.num_devices(); ++k) {
        trace.set(t, i, k, t % 2 == 0 ? 20 : 6);
      }
    }
  }
  fault::FaultPlan plan;
  plan.add_down(1, 1, 3);
  plan.add_bandwidth(2, 0, 5, 0.5);
  plan.add_straggler(0, 2, 6, 2.0);
  const auto run = [&](int threads) {
    ServeConfig config;
    config.threads = threads;
    config.keep_records = true;
    config.fault_plan = plan;
    config.failover.enabled = true;
    config.failover.backoff_base_slots = 1;
    config.guard.admission.enabled = true;
    config.guard.admission.slack = 0.5;
    LocalGreedyScheduler scheduler(cluster_);
    ServeEngine engine(cluster_, trace, config);
    metrics::RunMetrics metrics;
    std::vector<SlotServeResult> results;
    while (engine.current_slot() < trace.slots()) {
      results.push_back(engine.step(scheduler, &metrics));
    }
    return std::make_pair(std::move(results), std::move(metrics));
  };
  const auto [r1, m1] = run(1);
  const auto [r2, m2] = run(8);
  ASSERT_EQ(r1.size(), r2.size());
  std::int64_t orphaned = 0;
  std::int64_t sheds = 0;
  for (std::size_t t = 0; t < r1.size(); ++t) {
    EXPECT_EQ(r1[t].served, r2[t].served) << "slot " << t;
    EXPECT_EQ(r1[t].orphaned, r2[t].orphaned) << "slot " << t;
    EXPECT_EQ(r1[t].retried, r2[t].retried) << "slot " << t;
    EXPECT_EQ(r1[t].deadline_sheds, r2[t].deadline_sheds) << "slot " << t;
    orphaned += r1[t].orphaned;
    sheds += r1[t].deadline_sheds;
    ASSERT_EQ(r1[t].records.size(), r2[t].records.size()) << "slot " << t;
    for (std::size_t r = 0; r < r1[t].records.size(); ++r) {
      const auto& a = r1[t].records[r];
      const auto& b = r2[t].records[r];
      EXPECT_EQ(a.item.seq, b.item.seq);
      EXPECT_EQ(a.outcome, b.outcome);
      EXPECT_EQ(a.served_on, b.served_on);
      EXPECT_DOUBLE_EQ(a.start_s, b.start_s);
      EXPECT_DOUBLE_EQ(a.completion_s, b.completion_s);
    }
  }
  // The scenario actually exercises the fault paths it claims to.
  EXPECT_GT(orphaned + m1.retries(), 0);
  EXPECT_EQ(sheds, m1.deadline_shed());
  EXPECT_EQ(m1.total_requests(), m2.total_requests());
  EXPECT_EQ(m1.slo_failures(), m2.slo_failures());
  EXPECT_EQ(m1.orphan_dropped(), m2.orphan_dropped());
  EXPECT_EQ(m1.retries(), m2.retries());
  EXPECT_EQ(m1.deadline_shed(), m2.deadline_shed());
  EXPECT_DOUBLE_EQ(m1.total_loss(), m2.total_loss());
  std::ostringstream csv1;
  std::ostringstream csv2;
  metrics::write_latency_csv(csv1, {{"faulted", &m1}});
  metrics::write_latency_csv(csv2, {{"faulted", &m2}});
  EXPECT_EQ(csv1.str(), csv2.str());
}

TEST(ServeEngine, ReadmittedCohortLeadsItsCell) {
  // Edge 1 is down in slot 0, so its region's 12 requests are orphaned and
  // re-admitted in slot 1 across the three live edges. A re-admitted
  // request has waited since its failure: it arrives at the slot start with
  // a seq after its cell's trace arrivals and leads the cell, so the
  // scheduler's serve-local share takes it before any fresh arrival. Each
  // cell's demand (14 fresh + 4 re-admitted) exceeds the 16 served, so the
  // two planned drops per cell must be fresh arrivals.
  const auto cluster = small_cluster();
  workload::Trace trace(2, cluster.num_apps(), cluster.num_devices());
  for (int k = 0; k < cluster.num_devices(); ++k) {
    trace.set(0, 0, k, 12);
    trace.set(1, 0, k, 14);
  }
  ServeConfig config;
  config.noise_sigma = 0.0;
  config.keep_records = true;
  config.fault_plan.add_down(1, 0, 1);
  config.failover.enabled = true;
  LocalGreedyScheduler scheduler(cluster);
  ServeEngine engine(cluster, trace, config);
  (void)engine.step(scheduler);
  const auto slot1 = engine.step(scheduler);
  std::int64_t cohort = 0;
  for (int k = 0; k < cluster.num_devices(); ++k) {
    const std::int64_t fresh = trace.at(1, 0, k);
    bool fresh_seen = false;
    for (const auto& record : slot1.records) {
      if (record.item.origin != k) continue;
      const bool readmitted = record.item.seq >= fresh;
      if (!readmitted) {
        fresh_seen = fresh_seen || record.outcome == Outcome::kServed;
        continue;
      }
      ++cohort;
      EXPECT_EQ(record.item.arrival_s, 0.0);
      EXPECT_EQ(record.outcome, Outcome::kServed) << "edge " << k;
      EXPECT_EQ(record.served_on, k);
      EXPECT_FALSE(fresh_seen) << "a fresh arrival was admitted first, edge "
                               << k;
    }
  }
  EXPECT_EQ(cohort, 12);
  EXPECT_EQ(slot1.planned_drops, 2 * cluster.num_devices());
}

TEST_F(ServeEngineFixture, AdaptiveBeatsFixedOnSlotBoundaryBursts) {
  // Bursty demand against a small kernel prior: the fixed rule pays six
  // formation waits per burst, the adaptive rule drains each burst in a
  // couple of grown launches. Goodput under SLO must strictly improve.
  workload::Trace trace(6, cluster_.num_apps(), cluster_.num_devices());
  for (int t = 0; t < trace.slots(); ++t) {
    for (int i = 0; i < cluster_.num_apps(); ++i) {
      for (int k = 0; k < cluster_.num_devices(); ++k) {
        trace.set(t, i, k, t % 2 == 0 ? 48 : 2);
      }
    }
  }
  // The largest variant with a tiny kernel prior: the fixed rule pays many
  // slow, TIR-inefficient launches per burst and blows deadlines deep into
  // the queue.
  sim::SlotDecision decision(cluster_.num_apps(), cluster_.zoo().max_variants(),
                             cluster_.num_devices());
  const int variant = cluster_.zoo().num_variants(0) - 1;
  for (int i = 0; i < cluster_.num_apps(); ++i) {
    for (int k = 0; k < cluster_.num_devices(); ++k) {
      decision.served(i, variant, k) = 48;
      decision.kernel(i, variant, k) = 2;
    }
  }
  const auto run = [&](bool adaptive) {
    ServeConfig config;
    config.noise_sigma = 0.0;
    config.adaptive.enabled = adaptive;
    config.adaptive.max_batch = 16;
    FixedScheduler scheduler(decision);
    ServeEngine engine(cluster_, trace, config);
    return engine.run(scheduler);
  };
  const auto fixed = run(false);
  const auto adaptive = run(true);
  const double horizon_s = cluster_.tau_s() * trace.slots();
  EXPECT_GT(adaptive.goodput_under_slo(horizon_s),
            fixed.goodput_under_slo(horizon_s));
  EXPECT_LE(adaptive.slo_failures(), fixed.slo_failures());
}

}  // namespace
}  // namespace birp::serve
