// Fig. 6: small-scale evaluation — one application, three model variants,
// TIR profiled offline for BIRP-OFF. Reproduces:
//   (a) the completion-time CDF of BIRP / BIRP-OFF / OAEI / MAX,
//   (b) per-slot inference loss,
//   (c) cumulative inference loss,
// plus the text claims (BIRP/OFF failure ~2% vs OAEI ~10x that; OAEI's CDF
// dense below 0.3 then sparse; MAX's CDF right-skewed).
//
//   ./bench_fig6 [--slots N] [--target X] [--seed S]
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  const birp::bench::Flags cli(argc, argv, /*default_slots=*/300,
                               /*default_target=*/0.7);
  auto scenario =
      birp::bench::make_scenario(birp::device::ClusterSpec::paper_small(), cli);
  std::cout << "Fig. 6 small-scale run: 1 application x 3 models, "
            << scenario.trace.total() << " requests over " << cli.slots
            << " slots\n\n";

  birp::core::BirpScheduler birp(scenario.cluster);
  auto birp_off = birp::core::BirpScheduler::offline(scenario.cluster);
  birp::sched::OaeiScheduler oaei(scenario.cluster);
  birp::sched::MaxScheduler max(scenario.cluster);

  const auto m_birp = birp::bench::run_algorithm(scenario, birp);
  const auto m_off = birp::bench::run_algorithm(scenario, birp_off);
  const auto m_oaei = birp::bench::run_algorithm(scenario, oaei);
  const auto m_max = birp::bench::run_algorithm(scenario, max);

  const std::vector<std::pair<std::string, const birp::metrics::RunMetrics*>>
      runs{{"BIRP", &m_birp},
           {"BIRP-OFF", &m_off},
           {"OAEI", &m_oaei},
           {"MAX", &m_max}};

  birp::bench::print_cdf(std::cout,
                         "Fig. 6a — completion-time CDF (units of tau)", runs);
  std::cout << '\n';
  birp::bench::print_loss_series(std::cout, "Fig. 6b/6c", runs);
  std::cout << '\n';
  birp::bench::print_summary(std::cout, "Fig. 6 summary", runs);

  std::cout << "\nHeadline checks (paper section 5.4, small scale):\n"
            << "  BIRP failure p% / OAEI failure p% = "
            << birp::util::fixed(
                   m_birp.failure_percent() /
                       std::max(1e-9, m_oaei.failure_percent()),
                   3)
            << "  (paper: ~0.19, i.e. 1.9% vs 10.0%)\n"
            << "  BIRP-OFF vs BIRP cumulative loss gap = "
            << birp::util::fixed(m_birp.total_loss() - m_off.total_loss(), 1)
            << "  (paper: small and shrinking over time)\n"
            << "  OAEI CDF at 0.3 tau = "
            << birp::util::fixed(m_oaei.completion().cdf(0.3), 3)
            << " vs MAX " << birp::util::fixed(m_max.completion().cdf(0.3), 3)
            << "  (paper: OAEI dense early, MAX the opposite)\n";
  return 0;
}
