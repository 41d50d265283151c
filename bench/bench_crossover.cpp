// Crossover study (extension beyond the paper's figures): sweep the
// workload intensity and chart where each algorithm's loss and SLO failure
// rate overtake the others. This locates the operating regimes behind the
// paper's claims: at light load serial execution (OAEI) is competitive —
// batching buys little when accelerators idle; past the serial-capacity
// knee BIRP's batching headroom dominates; at extreme load every scheduler
// degrades but MAX collapses first (padded launches).
//
//   ./bench_crossover [--slots N] [--seed S]
#include <iostream>
#include <numeric>

#include "common.hpp"
#include "birp/runtime/thread_pool.hpp"

namespace {

struct Point {
  double target = 0.0;
  birp::metrics::RunMetrics birp;
  birp::metrics::RunMetrics oaei;
  birp::metrics::RunMetrics max;
};

}  // namespace

int main(int argc, char** argv) {
  const birp::bench::Flags cli(argc, argv, /*default_slots=*/60,
                               /*default_target=*/0.0);
  const std::vector<double> targets{0.3, 0.45, 0.6, 0.7, 0.8, 0.95};

  const auto cluster = birp::device::ClusterSpec::paper_large();
  std::vector<Point> points(targets.size());

  std::vector<int> order(targets.size());
  std::iota(order.begin(), order.end(), 0);
  birp::runtime::ThreadPool pool;
  pool.run_claimed(order, [&](int index) {
    const auto p = static_cast<std::size_t>(index);
    auto scenario = birp::bench::make_scenario(
        birp::device::ClusterSpec::paper_large(), cli.slots, targets[p],
        cli.seed);
    points[p].target = targets[p];

    birp::core::BirpScheduler birp_sched(scenario.cluster);
    birp::sched::OaeiScheduler oaei_sched(scenario.cluster);
    birp::sched::MaxScheduler max_sched(scenario.cluster);
    {
      birp::sim::Simulator s(scenario.cluster, scenario.trace);
      points[p].birp = s.run(birp_sched);
    }
    {
      birp::sim::Simulator s(scenario.cluster, scenario.trace);
      points[p].oaei = s.run(oaei_sched);
    }
    {
      birp::sim::Simulator s(scenario.cluster, scenario.trace);
      points[p].max = s.run(max_sched);
    }
  });

  birp::util::TextTable loss({"target util", "BIRP loss/req", "OAEI loss/req",
                              "MAX loss/req", "BIRP vs OAEI"});
  birp::util::TextTable fail(
      {"target util", "BIRP p%", "OAEI p%", "MAX p%"});
  for (const auto& point : points) {
    const auto per_request = [](const birp::metrics::RunMetrics& m) {
      return m.total_loss() / static_cast<double>(m.total_requests());
    };
    const double gain = 100.0 *
                        (per_request(point.oaei) - per_request(point.birp)) /
                        per_request(point.oaei);
    loss.add_row({birp::util::fixed(point.target, 2),
                  birp::util::fixed(per_request(point.birp), 4),
                  birp::util::fixed(per_request(point.oaei), 4),
                  birp::util::fixed(per_request(point.max), 4),
                  birp::util::fixed(gain, 1) + "%"});
    fail.add_row({birp::util::fixed(point.target, 2),
                  birp::util::fixed(point.birp.failure_percent(), 2),
                  birp::util::fixed(point.oaei.failure_percent(), 2),
                  birp::util::fixed(point.max.failure_percent(), 2)});
  }
  loss.print(std::cout,
             "Crossover — per-request inference loss vs workload intensity");
  std::cout << '\n';
  fail.print(std::cout, "Crossover — SLO failure p% vs workload intensity");
  std::cout << "\nReading: the BIRP-over-OAEI loss margin opens past the "
               "serial-capacity knee; MAX's failure rate explodes with load "
               "while BIRP's stays bounded by its conservative believed "
               "budget.\n";
  return 0;
}
