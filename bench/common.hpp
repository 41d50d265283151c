// Shared helpers for the benchmark/experiment harnesses: scenario assembly,
// algorithm runs, the decide-only replay loop, decision-stream comparison
// and CDF/series printing. Flags and the gated benches' report live in
// report.hpp.
#pragma once

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "report.hpp"

#include "birp/core/birp_scheduler.hpp"
#include "birp/device/cluster.hpp"
#include "birp/metrics/run_metrics.hpp"
#include "birp/sched/max_batch.hpp"
#include "birp/sched/oaei.hpp"
#include "birp/sim/simulator.hpp"
#include "birp/util/stats.hpp"
#include "birp/util/table.hpp"
#include "birp/workload/generator.hpp"

namespace birp::bench {

/// A cluster plus a generated trace, ready to run schedulers against.
struct Scenario {
  device::ClusterSpec cluster;
  workload::Trace trace;
};

inline Scenario make_scenario(device::ClusterSpec cluster, int slots,
                              double target, std::uint64_t seed) {
  workload::GeneratorConfig config;
  config.slots = slots;
  config.seed = seed;
  config.mean_per_edge = workload::suggested_mean_per_edge(cluster, target);
  auto trace = workload::generate(cluster, config);
  return {std::move(cluster), std::move(trace)};
}

inline Scenario make_scenario(device::ClusterSpec cluster, const Flags& flags) {
  return make_scenario(std::move(cluster), flags.slots, flags.target,
                       flags.seed);
}

/// Runs one scheduler over the scenario and returns metrics.
inline metrics::RunMetrics run_algorithm(const Scenario& scenario,
                                         sim::Scheduler& scheduler,
                                         int max_slots = -1) {
  sim::Simulator simulator(scenario.cluster, scenario.trace);
  return simulator.run(scheduler, max_slots);
}

/// `num / den`, or 0 when `den` is not positive.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// The decisions and per-slot decide wall times of a decide-only replay.
struct Replay {
  std::vector<sim::SlotDecision> decisions;
  std::vector<double> decide_ms;
};

/// Feeds every slot of `trace` to `scheduler.decide`, each slot seeing the
/// previous slot's decision, with no simulator in the loop; times each call.
inline Replay replay_decide(sim::Scheduler& scheduler,
                            const workload::Trace& trace) {
  Replay replay;
  for (int t = 0; t < trace.slots(); ++t) {
    sim::SlotState state;
    state.slot = t;
    state.demand = util::Grid2<std::int64_t>(trace.apps(), trace.devices(), 0);
    for (int i = 0; i < trace.apps(); ++i) {
      for (int k = 0; k < trace.devices(); ++k) {
        state.demand(i, k) = trace.at(t, i, k);
      }
    }
    state.previous = t == 0 ? nullptr : &replay.decisions.back();
    const auto start = std::chrono::steady_clock::now();
    auto decision = scheduler.decide(state);
    replay.decide_ms.push_back(std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
    replay.decisions.push_back(std::move(decision));
  }
  return replay;
}

/// Adds decide_ms_total / _p50 / _p95 of per-slot decide times to an arm.
inline void add_decide_ms(Row& arm, const std::vector<double>& decide_ms) {
  double total = 0.0;
  for (const double ms : decide_ms) total += ms;
  arm.add("decide_ms_total", {total, 1})
      .add("decide_ms_p50", util::percentile(decide_ms, 0.5))
      .add("decide_ms_p95", util::percentile(decide_ms, 0.95));
}

/// Bit-for-bit equality of two decision streams: per slot the
/// served/kernel/drops grids, the padding flag, and the flow list in order.
/// The determinism gates (thread counts) compare streams with it.
inline bool streams_equal(const std::vector<sim::SlotDecision>& a,
                          const std::vector<sim::SlotDecision>& b) {
  const auto same_flow = [](const sim::Flow& x, const sim::Flow& y) {
    return x.app == y.app && x.from == y.from && x.to == y.to &&
           x.count == y.count;
  };
  return std::equal(
      a.begin(), a.end(), b.begin(), b.end(),
      [&](const sim::SlotDecision& x, const sim::SlotDecision& y) {
        return x.served.raw() == y.served.raw() &&
               x.kernel.raw() == y.kernel.raw() &&
               x.drops.raw() == y.drops.raw() &&
               x.pad_partial_launches == y.pad_partial_launches &&
               std::equal(x.flows.begin(), x.flows.end(), y.flows.begin(),
                          y.flows.end(), same_flow);
      });
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
