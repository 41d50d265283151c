// The launch model shared by sim::Simulator and serve::ServeEngine: which
// jobs an edge runs, how its execution noise is seeded, how long one batch
// launch runs, and what TIR the launch reveals to the scheduler.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "birp/device/cluster.hpp"
#include "birp/sim/scheduler.hpp"
#include "birp/util/rng.hpp"

namespace birp::sim {

/// One executable job on an edge: an (app, variant) deployment with the
/// requests the decision serves there and its kernel batch size.
struct Job {
  int app = 0;
  int variant = 0;
  std::int64_t served = 0;
  int kernel = 1;
};

/// Replaces `jobs` with edge `edge`'s jobs in `decision`, app-major then by
/// variant: every deployment that serves at least one request.
inline void collect_jobs(const device::ClusterSpec& cluster,
                         const SlotDecision& decision, int edge,
                         std::vector<Job>& jobs) {
  jobs.clear();
  for (int i = 0; i < cluster.num_apps(); ++i) {
    for (int j = 0; j < cluster.zoo().num_variants(i); ++j) {
      const auto served = decision.served(i, j, edge);
      if (served <= 0) continue;
      jobs.push_back(
          Job{i, j, served, std::max(1, decision.kernel(i, j, edge))});
    }
  }
}

/// Seed of edge `edge`'s execution-noise stream in slot `slot`. Each
/// (slot, edge) pair draws from its own stream, so an edge's launches never
/// depend on what other edges drew.
[[nodiscard]] inline std::uint64_t edge_slot_seed(std::uint64_t seed, int slot,
                                                  int edge) noexcept {
  return seed ^ (0x9e3779b97f4a7c15ULL *
                 (static_cast<std::uint64_t>(slot) * 1024 +
                  static_cast<std::uint64_t>(edge) + 1));
}

/// Wall time of one launch of `launch_size` items of (app, variant) on
/// `edge`: the ground-truth batch time times multiplicative lognormal noise
/// (unit mean; no draw when `noise_sigma` is 0) times the edge's straggler
/// slowdown.
[[nodiscard]] inline double launch_duration_s(
    const device::ClusterSpec& cluster, util::Xoshiro256StarStar& rng,
    double noise_sigma, int edge, int app, int variant, int launch_size,
    double straggler_factor) {
  const double clean_s =
      cluster.truth().batch_time_s(edge, app, variant, launch_size);
  const double noise =
      noise_sigma > 0.0
          ? rng.lognormal(-0.5 * noise_sigma * noise_sigma, noise_sigma)
          : 1.0;
  return clean_s * noise * straggler_factor;
}

/// Observed TIR per Eq. 1: the merged kernel processed `launch_size` items
/// in `duration_s` versus gamma each when serial.
[[nodiscard]] inline TirObservation observe_launch(
    const device::ClusterSpec& cluster, int edge, int app, int variant,
    int launch_size, double duration_s) {
  TirObservation obs;
  obs.device = edge;
  obs.app = app;
  obs.variant = variant;
  obs.batch = launch_size;
  obs.observed_tir = static_cast<double>(launch_size) *
                     cluster.truth().gamma_s(edge, app, variant) / duration_s;
  return obs;
}

}  // namespace birp::sim
