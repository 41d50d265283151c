// Tests for run metric aggregation.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "birp/metrics/run_metrics.hpp"

namespace birp::metrics {
namespace {

TEST(RunMetrics, EmptyState) {
  RunMetrics m;
  EXPECT_EQ(m.total_requests(), 0);
  EXPECT_EQ(m.slo_failures(), 0);
  EXPECT_DOUBLE_EQ(m.failure_percent(), 0.0);
  EXPECT_DOUBLE_EQ(m.total_loss(), 0.0);
  EXPECT_TRUE(m.cumulative_loss().empty());
}

TEST(RunMetrics, RequestAccounting) {
  RunMetrics m;
  m.record_request(0.5, true);
  m.record_request(1.2, false);
  m.record_request(0.9, true);
  EXPECT_EQ(m.total_requests(), 3);
  EXPECT_EQ(m.slo_failures(), 1);
  EXPECT_NEAR(m.failure_percent(), 100.0 / 3.0, 1e-9);
  EXPECT_EQ(m.completion().count(), 3u);
}

TEST(RunMetrics, DroppedCountsAsFailureWithoutCompletionSample) {
  RunMetrics m;
  m.record_request(0.5, true);
  m.record_dropped();
  EXPECT_EQ(m.total_requests(), 2);
  EXPECT_EQ(m.slo_failures(), 1);
  EXPECT_EQ(m.dropped(), 1);
  EXPECT_EQ(m.completion().count(), 1u);  // dropped requests never complete
  EXPECT_DOUBLE_EQ(m.failure_percent(), 50.0);
}

TEST(RunMetrics, SlotLossSeriesAndCumulative) {
  RunMetrics m;
  m.record_slot_loss(1.0);
  m.record_slot_loss(2.5);
  m.record_slot_loss(0.5);
  EXPECT_DOUBLE_EQ(m.total_loss(), 4.0);
  const auto cumulative = m.cumulative_loss();
  ASSERT_EQ(cumulative.size(), 3u);
  EXPECT_DOUBLE_EQ(cumulative[0], 1.0);
  EXPECT_DOUBLE_EQ(cumulative[1], 3.5);
  EXPECT_DOUBLE_EQ(cumulative[2], 4.0);
  EXPECT_EQ(m.slot_loss().size(), 3u);
}

TEST(RunMetrics, EdgeBusyStatistics) {
  RunMetrics m;
  m.record_edge_busy(0.5);
  m.record_edge_busy(1.5);
  EXPECT_DOUBLE_EQ(m.edge_busy().mean(), 1.0);
  EXPECT_EQ(m.edge_busy().count(), 2u);
}

TEST(RunMetrics, EnergyAccumulates) {
  RunMetrics m;
  m.record_energy(10.0);
  m.record_energy(5.5);
  EXPECT_DOUBLE_EQ(m.total_energy_j(), 15.5);
  EXPECT_DOUBLE_EQ(m.energy_per_request_j(), 0.0);  // nothing served yet
  m.record_request(0.5, true);
  m.record_dropped();
  EXPECT_DOUBLE_EQ(m.energy_per_request_j(), 15.5);  // one served request
}

TEST(RunMetrics, CompletionEcdfReflectsSamples) {
  RunMetrics m;
  for (int i = 1; i <= 10; ++i) {
    m.record_request(static_cast<double>(i) / 10.0, i <= 9);
  }
  EXPECT_NEAR(m.completion().cdf(0.5), 0.5, 1e-12);
  EXPECT_NEAR(m.completion().tail_fraction(0.9), 0.1, 1e-12);
}

TEST(RunMetrics, RecordServedAppendsInOrderAndCountsMisses) {
  RunMetrics m;
  const std::vector<double> completion = {0.4, 0.2, 0.9};
  const std::vector<double> queue_wait = {0.1, 0.05, 0.3};
  const std::vector<double> admit = {0.15, 0.1, 0.5};
  m.record_served(completion, queue_wait, admit, 1);
  m.record_served(std::vector<double>{1.2}, std::vector<double>{0.6},
                  std::vector<double>{0.7}, 1);
  m.record_served({}, {}, {}, 0);
  EXPECT_EQ(m.total_requests(), 4);
  EXPECT_EQ(m.slo_failures(), 2);
  EXPECT_EQ(m.dropped(), 0);
  // Spans land in call order, so each ECDF holds exactly the union.
  EXPECT_EQ(m.completion().count(), 4u);
  EXPECT_EQ(m.queue_wait().count(), 4u);
  EXPECT_EQ(m.admit_to_launch().count(), 4u);
  EXPECT_DOUBLE_EQ(m.completion().quantile(0.0), 0.2);
  EXPECT_DOUBLE_EQ(m.completion().quantile(1.0), 1.2);
  EXPECT_DOUBLE_EQ(m.queue_wait().quantile(0.0), 0.05);
  EXPECT_DOUBLE_EQ(m.queue_wait().quantile(1.0), 0.6);
  EXPECT_DOUBLE_EQ(m.admit_to_launch().quantile(0.0), 0.1);
  EXPECT_DOUBLE_EQ(m.admit_to_launch().quantile(1.0), 0.7);
  EXPECT_NEAR(m.completion().cdf(0.4), 0.5, 1e-12);
  // The same requests one at a time through record_request: same counters
  // and the same completion quantiles.
  RunMetrics single;
  single.record_request(0.4, false);
  single.record_request(0.2, true);
  single.record_request(0.9, true);
  single.record_request(1.2, false);
  EXPECT_EQ(single.total_requests(), m.total_requests());
  EXPECT_EQ(single.slo_failures(), m.slo_failures());
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_DOUBLE_EQ(single.latency_quantile(q), m.latency_quantile(q));
  }
  // Spans of different lengths are rejected before anything is recorded.
  EXPECT_THROW(m.record_served(completion, std::vector<double>{0.1}, admit, 0),
               std::logic_error);
  EXPECT_THROW(m.record_served(completion, queue_wait, std::vector<double>{},
                               0),
               std::logic_error);
  EXPECT_EQ(m.total_requests(), 4);
  EXPECT_EQ(m.completion().count(), 4u);
}

TEST(RunMetrics, CountFormsEqualRepeatedSingleRecords) {
  RunMetrics bulk;
  RunMetrics single;
  bulk.record_dropped(3);
  bulk.record_queue_drop(2);
  bulk.record_orphan_drop(4);
  bulk.record_deadline_shed(5);
  bulk.record_orphan_drop(0);
  for (int n = 0; n < 3; ++n) single.record_dropped();
  for (int n = 0; n < 2; ++n) single.record_queue_drop();
  for (int n = 0; n < 4; ++n) single.record_orphan_drop();
  for (int n = 0; n < 5; ++n) single.record_deadline_shed();
  for (const RunMetrics* m : {&bulk, &single}) {
    EXPECT_EQ(m->total_requests(), 14);
    EXPECT_EQ(m->slo_failures(), 14);
    EXPECT_EQ(m->dropped(), 14);
    EXPECT_EQ(m->queue_dropped(), 2);
    EXPECT_EQ(m->orphan_dropped(), 4);
    EXPECT_EQ(m->deadline_shed(), 5);
    EXPECT_EQ(m->completion().count(), 0u);
  }
}

}  // namespace
}  // namespace birp::metrics
