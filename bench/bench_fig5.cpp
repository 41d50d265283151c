// Fig. 5: impact of the preset parameters eps1 / eps2 on the SLO failure
// rate p% at t = 100 and t = 300 over the (eps1, eps2) grid.
//
//   ./bench_fig5 [--slots N] [--target X] [--seed S]
#include <iostream>

#include "common.hpp"
#include "epsilon_sweep.hpp"

namespace {

double failure_percent_at(const birp::metrics::RunMetrics& full,
                          const birp::device::ClusterSpec& cluster,
                          const birp::workload::Trace& trace,
                          double eps1, double eps2, int t) {
  // Re-run truncated to t slots when t is shorter than the full horizon;
  // for the full horizon, reuse the existing metrics.
  if (t >= static_cast<int>(full.slot_loss().size())) {
    return full.failure_percent();
  }
  birp::core::BirpConfig config;
  config.tuner.epsilon1 = eps1;
  config.tuner.epsilon2 = eps2;
  birp::core::BirpScheduler scheduler(cluster, config);
  birp::sim::Simulator simulator(cluster, trace);
  return simulator.run(scheduler, t).failure_percent();
}

}  // namespace

int main(int argc, char** argv) {
  const birp::bench::Flags cli(argc, argv, /*default_slots=*/300,
                               /*default_target=*/0.6);
  auto scenario =
      birp::bench::make_scenario(birp::device::ClusterSpec::sweep(), cli);
  std::cout << "Fig. 5 epsilon sweep: " << scenario.trace.total()
            << " requests, " << cli.slots << " slots\n\n";

  const auto points = birp::bench::run_epsilon_grid(scenario.cluster,
                                                    scenario.trace, cli.slots);

  for (const int t : {std::min(100, cli.slots), cli.slots}) {
    std::vector<std::string> header{"eps1 \\ eps2"};
    for (const double e2 : birp::bench::kEpsilon2Grid) {
      header.push_back(birp::util::fixed(e2, 2));
    }
    birp::util::TextTable table(std::move(header));
    for (const double e1 : birp::bench::kEpsilon1Grid) {
      std::vector<std::string> row{birp::util::fixed(e1, 2)};
      for (const double e2 : birp::bench::kEpsilon2Grid) {
        for (const auto& point : points) {
          if (point.epsilon1 == e1 && point.epsilon2 == e2) {
            row.push_back(birp::util::fixed(
                failure_percent_at(point.metrics, scenario.cluster,
                                   scenario.trace, e1, e2, t),
                2));
          }
        }
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout,
                "Fig. 5 — SLO failure p%(eps1, eps2) at t = " +
                    std::to_string(t));
    std::cout << '\n';
  }

  std::cout << "Expected shape (paper section 5.3): very small eps2 limits "
               "exploration (stuck batching plans raise p% under load); "
               "large eps1 tolerates optimistic thresholds and over-batches, "
               "also raising p%. The sweet spot sits mid-grid (the paper "
               "picks eps1 = 0.04, eps2 = 0.07).\n";
  return 0;
}
