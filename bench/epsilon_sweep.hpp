// Shared machinery for the Fig. 4 / Fig. 5 preset-parameter sweeps:
// run online BIRP over a grid of (eps1, eps2) MAB presets on the mid-size
// sweep cluster, one full simulation per grid point, in parallel.
#pragma once

#include <numeric>
#include <vector>

#include "birp/core/birp_scheduler.hpp"
#include "birp/device/cluster.hpp"
#include "birp/metrics/run_metrics.hpp"
#include "birp/runtime/thread_pool.hpp"
#include "birp/sim/simulator.hpp"
#include "birp/workload/generator.hpp"

namespace birp::bench {

/// The grid of the paper's Fig. 4/5 axes: eps1 in 0.01..0.07 (x10^-2 axis),
/// eps2 in 0.04..0.10 (x10^-1 axis).
inline const std::vector<double> kEpsilon1Grid = {0.01, 0.02, 0.03, 0.04,
                                                  0.05, 0.06, 0.07};
inline const std::vector<double> kEpsilon2Grid = {0.04, 0.07, 0.10};

struct SweepPoint {
  double epsilon1 = 0.0;
  double epsilon2 = 0.0;
  metrics::RunMetrics metrics;
};

/// Runs online BIRP at every grid point over `slots` of `trace`; grid
/// points execute concurrently on the pool and the calling thread, each
/// writing its own point (each simulation is internally single-threaded to
/// keep total parallelism bounded).
inline std::vector<SweepPoint> run_epsilon_grid(
    const device::ClusterSpec& cluster, const workload::Trace& trace,
    int slots) {
  std::vector<SweepPoint> points;
  for (const double e1 : kEpsilon1Grid) {
    for (const double e2 : kEpsilon2Grid) {
      SweepPoint point;
      point.epsilon1 = e1;
      point.epsilon2 = e2;
      points.push_back(std::move(point));
    }
  }

  std::vector<int> order(points.size());
  std::iota(order.begin(), order.end(), 0);
  runtime::ThreadPool pool;
  pool.run_claimed(order, [&cluster, &trace, slots, &points](int p) {
    auto& point = points[static_cast<std::size_t>(p)];
    core::BirpConfig config;
    config.tuner.epsilon1 = point.epsilon1;
    config.tuner.epsilon2 = point.epsilon2;
    core::BirpScheduler scheduler(cluster, config);
    sim::Simulator simulator(cluster, trace);
    point.metrics = simulator.run(scheduler, slots);
  });
  return points;
}

/// Reference BIRP-OFF run on the same trace (the Delta-Loss baseline).
inline metrics::RunMetrics run_offline_reference(
    const device::ClusterSpec& cluster, const workload::Trace& trace,
    int slots) {
  auto scheduler = core::BirpScheduler::offline(cluster);
  sim::Simulator simulator(cluster, trace);
  return simulator.run(scheduler, slots);
}

}  // namespace birp::bench
