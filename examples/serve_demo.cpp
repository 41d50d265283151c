// Minimal tour of the request-level serving runtime: build a small cluster,
// generate a bursty trace, serve it slot by slot with the BIRP scheduler,
// and inspect what individual requests experienced.
//
//   ./examples/serve_demo
#include <iostream>

#include "birp/core/birp_scheduler.hpp"
#include "birp/device/cluster.hpp"
#include "birp/serve/engine.hpp"
#include "birp/util/table.hpp"
#include "birp/workload/generator.hpp"

int main() {
  const auto cluster = birp::device::ClusterSpec::paper_small();

  birp::workload::GeneratorConfig trace_config;
  trace_config.slots = 40;
  trace_config.mean_per_edge =
      birp::workload::suggested_mean_per_edge(cluster, 0.6);
  const auto trace = birp::workload::generate(cluster, trace_config);

  birp::serve::ServeConfig config;
  config.queue_capacity = 64;          // per-edge admission buffer
  config.max_batch_wait_fraction = 0.05;  // partial batches launch after 5% tau
  config.keep_records = true;          // retain per-request lifecycles

  birp::serve::ServeEngine engine(cluster, trace, config);
  birp::core::BirpScheduler scheduler(cluster);

  // Step the first slot by hand to look at individual requests.
  birp::metrics::RunMetrics metrics;
  const auto first = engine.step(scheduler, &metrics);
  birp::util::TextTable requests(
      {"app", "origin", "served on", "batch", "arrival s", "start s",
       "sojourn s", "SLO"});
  int shown = 0;
  for (const auto& record : first.records) {
    if (record.outcome != birp::serve::Outcome::kServed) continue;
    requests.add_row({std::to_string(record.item.app),
                      std::to_string(record.item.origin),
                      std::to_string(record.served_on),
                      std::to_string(record.batch),
                      birp::util::fixed(record.item.arrival_s, 3),
                      birp::util::fixed(record.start_s, 3),
                      birp::util::fixed(record.sojourn_s(), 3),
                      record.met_slo ? "hit" : "miss"});
    if (++shown == 12) break;
  }
  requests.print(std::cout, "slot 0 — first requests served");

  // Serve the rest of the horizon, settle it, and summarize.
  while (engine.current_slot() < trace.slots()) engine.step(scheduler, &metrics);
  engine.finish(scheduler, metrics);

  birp::util::TextTable summary({"metric", "value"});
  summary.add_row({"requests", std::to_string(metrics.total_requests())});
  summary.add_row({"SLO attainment %",
                   birp::util::fixed(metrics.slo_attainment_percent(), 2)});
  summary.add_row(
      {"p50 latency (tau)", birp::util::fixed(metrics.latency_quantile(0.5), 3)});
  summary.add_row(
      {"p95 latency (tau)", birp::util::fixed(metrics.latency_quantile(0.95), 3)});
  summary.add_row(
      {"p99 latency (tau)", birp::util::fixed(metrics.latency_quantile(0.99), 3)});
  summary.add_row({"dropped", std::to_string(metrics.dropped())});
  summary.add_row({"queue drops", std::to_string(metrics.queue_dropped())});
  summary.add_row({"mean queue depth",
                   metrics.queue_depth().count() > 0
                       ? birp::util::fixed(metrics.queue_depth().mean(), 2)
                       : "-"});
  summary.print(std::cout, "full horizon with BIRP");
  return 0;
}
