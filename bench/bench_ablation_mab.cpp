// Ablation A2 + A3: what do the MAB tuner and redistribution each buy?
//
//  * BIRP            — full system (online tuning + redistribution)
//  * BIRP-FROZEN     — conservative Eq. 23 initialization, feedback ignored
//  * BIRP-OFF        — oracle TIR curves (upper reference)
//  * NO-REDIST       — full tuning, redistribution disabled
//
//   ./bench_ablation_mab [--slots N] [--target X] [--seed S]
#include <iostream>

#include "common.hpp"
#include "birp/sched/no_redist.hpp"

int main(int argc, char** argv) {
  const birp::bench::Flags cli(argc, argv, /*default_slots=*/150,
                               /*default_target=*/0.6);
  auto scenario =
      birp::bench::make_scenario(birp::device::ClusterSpec::paper_large(), cli);
  std::cout << "MAB / redistribution ablation: " << scenario.trace.total()
            << " requests over " << cli.slots << " slots\n\n";

  birp::core::BirpScheduler birp(scenario.cluster);

  birp::core::BirpConfig frozen_config;
  frozen_config.name_override = "BIRP-FROZEN";
  birp::core::BirpScheduler frozen(scenario.cluster, frozen_config);

  auto off = birp::core::BirpScheduler::offline(scenario.cluster);
  auto noredist = birp::sched::make_no_redist(scenario.cluster);

  const auto m_birp = birp::bench::run_algorithm(scenario, birp);
  // Frozen variant: run with observation reporting disabled so the tuner
  // never sees feedback and stays at the Eq. 23 initialization.
  birp::sim::SimulatorConfig frozen_sim;
  frozen_sim.report_observations = false;
  birp::metrics::RunMetrics m_frozen = [&] {
    birp::sim::Simulator simulator(scenario.cluster, scenario.trace,
                                   frozen_sim);
    return simulator.run(frozen);
  }();
  const auto m_off = birp::bench::run_algorithm(scenario, off);
  const auto m_noredist = birp::bench::run_algorithm(scenario, noredist);

  const std::vector<std::pair<std::string, const birp::metrics::RunMetrics*>>
      runs{{"BIRP", &m_birp},
           {"BIRP-FROZEN", &m_frozen},
           {"BIRP-OFF", &m_off},
           {"NO-REDIST", &m_noredist}};
  birp::bench::print_summary(std::cout, "A2/A3 — component ablation", runs);

  std::cout << "\nReading:\n"
            << "  tuning value  = FROZEN loss - BIRP loss = "
            << birp::util::fixed(m_frozen.total_loss() - m_birp.total_loss(), 1)
            << " (what online hyperparameter learning buys; Eq. 15-22)\n"
            << "  oracle gap    = BIRP loss - OFF loss = "
            << birp::util::fixed(m_birp.total_loss() - m_off.total_loss(), 1)
            << " (residual exploration cost; paper Fig. 6c shows it "
               "shrinking)\n"
            << "  redistribution value = NO-REDIST loss - BIRP loss = "
            << birp::util::fixed(m_noredist.total_loss() - m_birp.total_loss(),
                                 1)
            << " and failure delta = "
            << birp::util::fixed(
                   m_noredist.failure_percent() - m_birp.failure_percent(), 2)
            << "pp (what moving requests between edges buys)\n";
  return 0;
}
