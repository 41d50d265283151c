// Shared helpers for the benchmark/experiment harnesses: scenario assembly,
// algorithm runs, decision comparison, CDF/series printing, and minimal CLI
// parsing.
#pragma once

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "birp/core/birp_scheduler.hpp"
#include "birp/device/cluster.hpp"
#include "birp/metrics/run_metrics.hpp"
#include "birp/sched/max_batch.hpp"
#include "birp/sched/oaei.hpp"
#include "birp/sim/simulator.hpp"
#include "birp/util/table.hpp"
#include "birp/workload/generator.hpp"

namespace birp::bench {

/// Minimal flag parsing: --slots N, --target X, --seed N.
struct Cli {
  int slots = 300;
  double target = 0.5;  ///< workload intensity as a fraction of the envelope
  std::uint64_t seed = 0x77ace;

  static Cli parse(int argc, char** argv, int default_slots = 300,
                   double default_target = 0.5) {
    Cli cli;
    cli.slots = default_slots;
    cli.target = default_target;
    for (int a = 1; a < argc; ++a) {
      if (argv[a] == nullptr) break;
      const std::string flag = argv[a];
      const auto next = [&]() -> const char* {
        return a + 1 < argc ? argv[++a] : nullptr;
      };
      if (flag == "--slots") {
        if (const char* v = next()) cli.slots = std::atoi(v);
      } else if (flag == "--target") {
        if (const char* v = next()) cli.target = std::atof(v);
      } else if (flag == "--seed") {
        if (const char* v = next()) cli.seed = std::strtoull(v, nullptr, 0);
      }
    }
    return cli;
  }
};

/// A cluster plus a generated trace, ready to run schedulers against.
struct Scenario {
  device::ClusterSpec cluster;
  workload::Trace trace;
};

inline Scenario make_scenario(device::ClusterSpec cluster, const Cli& cli) {
  workload::GeneratorConfig config;
  config.slots = cli.slots;
  config.seed = cli.seed;
  config.mean_per_edge =
      workload::suggested_mean_per_edge(cluster, cli.target);
  auto trace = workload::generate(cluster, config);
  return {std::move(cluster), std::move(trace)};
}

/// Runs one scheduler over the scenario and returns metrics.
inline metrics::RunMetrics run_algorithm(const Scenario& scenario,
                                         sim::Scheduler& scheduler,
                                         int max_slots = -1) {
  sim::Simulator simulator(scenario.cluster, scenario.trace);
  return simulator.run(scheduler, max_slots);
}

/// Bit-for-bit equality of two slot decisions: served/kernel/drops grids,
/// the padding flag, and the flow list in order. The determinism gates
/// (thread counts) compare whole decision streams with it.
inline bool decisions_equal(const sim::SlotDecision& a,
                            const sim::SlotDecision& b) {
  if (a.served.raw() != b.served.raw()) return false;
  if (a.kernel.raw() != b.kernel.raw()) return false;
  if (a.drops.raw() != b.drops.raw()) return false;
  if (a.pad_partial_launches != b.pad_partial_launches) return false;
  if (a.flows.size() != b.flows.size()) return false;
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    if (a.flows[f].app != b.flows[f].app || a.flows[f].from != b.flows[f].from ||
        a.flows[f].to != b.flows[f].to || a.flows[f].count != b.flows[f].count) {
      return false;
    }
  }
  return true;
}

/// Prints a completion-time CDF table (one column per algorithm), in units
/// of tau, matching the axes of the paper's Fig. 6a / 7a.
inline void print_cdf(
    std::ostream& out, const std::string& title,
    const std::vector<std::pair<std::string, const metrics::RunMetrics*>>&
        runs,
    double max_tau = 1.6, int points = 17) {
  std::vector<std::string> header{"tau"};
  for (const auto& [name, metrics] : runs) header.push_back(name);
  util::TextTable table(std::move(header));
  for (int p = 0; p < points; ++p) {
    const double x = max_tau * static_cast<double>(p) /
                     static_cast<double>(points - 1);
    std::vector<std::string> row{util::fixed(x, 2)};
    for (const auto& [name, metrics] : runs) {
      row.push_back(util::fixed(metrics->completion().cdf(x), 3));
    }
    table.add_row(std::move(row));
  }
  table.print(out, title);
}

/// Prints per-slot loss series sampled every `stride` slots (Fig. 6b / 7b)
/// followed by the cumulative loss at the same marks (Fig. 6c / 7c).
inline void print_loss_series(
    std::ostream& out, const std::string& title,
    const std::vector<std::pair<std::string, const metrics::RunMetrics*>>&
        runs,
    int stride = 25) {
  {
    std::vector<std::string> header{"slot"};
    for (const auto& [name, metrics] : runs) header.push_back(name);
    util::TextTable table(std::move(header));
    const auto slots = runs.front().second->slot_loss().size();
    for (std::size_t t = 0; t < slots; t += static_cast<std::size_t>(stride)) {
      std::vector<std::string> row{std::to_string(t)};
      for (const auto& [name, metrics] : runs) {
        row.push_back(util::fixed(metrics->slot_loss()[t], 1));
      }
      table.add_row(std::move(row));
    }
    table.print(out, title + " — per-slot loss");
  }
  {
    std::vector<std::string> header{"slot"};
    for (const auto& [name, metrics] : runs) header.push_back(name);
    util::TextTable table(std::move(header));
    std::vector<std::vector<double>> cumulative;
    cumulative.reserve(runs.size());
    for (const auto& [name, metrics] : runs) {
      cumulative.push_back(metrics->cumulative_loss());
    }
    const auto slots = cumulative.front().size();
    for (std::size_t t = 0; t < slots; t += static_cast<std::size_t>(stride)) {
      std::vector<std::string> row{std::to_string(t)};
      for (const auto& series : cumulative) {
        row.push_back(util::fixed(series[t], 0));
      }
      table.add_row(std::move(row));
    }
    table.print(out, title + " — cumulative loss");
  }
}

/// Prints the headline summary block (loss, p%, drops, busy).
inline void print_summary(
    std::ostream& out, const std::string& title,
    const std::vector<std::pair<std::string, const metrics::RunMetrics*>>&
        runs) {
  util::TextTable table(
      {"algorithm", "total loss", "SLO failure p%", "dropped", "mean busy",
       "median tau", "p95 tau", "J/request"});
  for (const auto& [name, metrics] : runs) {
    const bool has_samples = metrics->completion().count() > 0;
    table.add_row({name, util::fixed(metrics->total_loss(), 1),
                   util::fixed(metrics->failure_percent(), 2),
                   std::to_string(metrics->dropped()),
                   util::fixed(metrics->edge_busy().mean(), 3),
                   has_samples
                       ? util::fixed(metrics->completion().quantile(0.5), 3)
                       : "-",
                   has_samples
                       ? util::fixed(metrics->completion().quantile(0.95), 3)
                       : "-",
                   util::fixed(metrics->energy_per_request_j(), 2)});
  }
  table.print(out, title);
}

}  // namespace birp::bench
