// Fig. 4: impact of the preset parameters eps1 / eps2 on Delta-Loss, the
// cumulative loss gap between online BIRP and BIRP-OFF:
//     Delta-Loss(t) = sum_{t' <= t} (loss_BIRP(t') - loss_OFF(t'))
// evaluated at t = 10 and t = 100 over the (eps1, eps2) grid.
//
//   ./bench_fig4 [--slots N] [--target X] [--seed S]
#include <iostream>

#include "common.hpp"
#include "epsilon_sweep.hpp"

int main(int argc, char** argv) {
  const birp::bench::Flags cli(argc, argv, /*default_slots=*/100,
                               /*default_target=*/0.5);
  auto scenario =
      birp::bench::make_scenario(birp::device::ClusterSpec::sweep(), cli);
  std::cout << "Fig. 4 epsilon sweep: " << scenario.trace.total()
            << " requests, " << cli.slots << " slots, "
            << birp::bench::kEpsilon1Grid.size() *
                   birp::bench::kEpsilon2Grid.size()
            << " grid points\n\n";

  const auto reference = birp::bench::run_offline_reference(
      scenario.cluster, scenario.trace, cli.slots);
  const auto points = birp::bench::run_epsilon_grid(scenario.cluster,
                                                    scenario.trace, cli.slots);

  const auto reference_cumulative = reference.cumulative_loss();
  const auto delta_at = [&](const birp::metrics::RunMetrics& m, int t) {
    const auto cumulative = m.cumulative_loss();
    const auto idx = static_cast<std::size_t>(
        std::min<int>(t, static_cast<int>(cumulative.size())) - 1);
    return cumulative[idx] - reference_cumulative[idx];
  };

  for (const int t : {10, std::min(100, cli.slots)}) {
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
            row.push_back(birp::util::fixed(delta_at(point.metrics, t), 1));
          }
        }
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout, "Fig. 4 — Delta-Loss(eps1, eps2) at t = " +
                               std::to_string(t));
    std::cout << '\n';
  }

  std::cout << "Expected shape (paper section 5.3): large eps2 inflates the "
               "exploration padding and Delta-Loss early on; small eps1 is "
               "accurate early but lags as the workload drifts, so its rows "
               "rise between the two snapshots.\n";
  return 0;
}
