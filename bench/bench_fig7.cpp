// Fig. 7: large-scale evaluation — five applications x five models each
// across the six-edge heterogeneous testbed. Reproduces:
//   (a) the completion-time CDF of BIRP / OAEI / MAX,
//   (b) per-slot inference loss,
//   (c) cumulative inference loss,
// and prints the two headline numbers of the paper: BIRP's cumulative-loss
// reduction vs OAEI (paper: 32.3%) and the SLO failure ratio (paper: BIRP's
// failure rate is 19.8% of OAEI's).
//
//   ./bench_fig7 [--slots N] [--target X] [--seed S]
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  const birp::bench::Flags cli(argc, argv, /*default_slots=*/300,
                               /*default_target=*/0.7);
  auto scenario =
      birp::bench::make_scenario(birp::device::ClusterSpec::paper_large(), cli);
  std::cout << "Fig. 7 large-scale run: 5 applications x 5 models, "
            << scenario.trace.total() << " requests over " << cli.slots
            << " slots\n\n";

  birp::core::BirpScheduler birp(scenario.cluster);
  birp::sched::OaeiScheduler oaei(scenario.cluster);
  birp::sched::MaxScheduler max(scenario.cluster);

  const auto m_birp = birp::bench::run_algorithm(scenario, birp);
  const auto m_oaei = birp::bench::run_algorithm(scenario, oaei);
  const auto m_max = birp::bench::run_algorithm(scenario, max);

  const std::vector<std::pair<std::string, const birp::metrics::RunMetrics*>>
      runs{{"BIRP", &m_birp}, {"OAEI", &m_oaei}, {"MAX", &m_max}};

  birp::bench::print_cdf(std::cout,
                         "Fig. 7a — completion-time CDF (units of tau)", runs,
                         2.0);
  std::cout << '\n';
  birp::bench::print_loss_series(std::cout, "Fig. 7b/7c", runs);
  std::cout << '\n';
  birp::bench::print_summary(std::cout, "Fig. 7 summary", runs);

  const double loss_reduction =
      100.0 * (m_oaei.total_loss() - m_birp.total_loss()) /
      std::max(1e-9, m_oaei.total_loss());
  const double failure_ratio = m_birp.failure_percent() /
                               std::max(1e-9, m_oaei.failure_percent());
  std::cout << "\nHeadline checks (paper section 5.4, large scale):\n"
            << "  BIRP cumulative loss reduction vs OAEI = "
            << birp::util::fixed(loss_reduction, 1)
            << "%  (paper: 32.3%)\n"
            << "  BIRP failure p% / OAEI failure p% = "
            << birp::util::fixed(failure_ratio, 3)
            << "  (paper: 0.198, i.e. 0.21% vs 4.1%)\n"
            << "  MAX p95 completion = "
            << birp::util::fixed(m_max.completion().quantile(0.95), 3)
            << " tau vs BIRP "
            << birp::util::fixed(m_birp.completion().quantile(0.95), 3)
            << " tau  (paper: MAX right-skewed past the SLO)\n";
  return 0;
}
