#include "birp/workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "birp/util/check.hpp"
#include "birp/util/rng.hpp"

namespace birp::workload {

Trace generate(const device::ClusterSpec& cluster,
               const GeneratorConfig& config) {
  util::check(config.slots > 0, "generate: slots must be positive");
  util::check(config.mean_per_edge > 0.0, "generate: mean must be positive");
  util::check(config.hot_edge_factor >= 1.0, "generate: hot factor >= 1");

  const int K = cluster.num_devices();
  const int I = cluster.num_apps();
  Trace trace(config.slots, I, K);
  util::Xoshiro256StarStar rng(config.seed);

  // Persistent per-edge heat: edges are spread geometrically between 1 and
  // hot_edge_factor, then shuffled so heat does not correlate with device
  // type. Normalized to mean 1 so mean_per_edge keeps its meaning.
  std::vector<double> heat(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) {
    const double frac = K == 1 ? 0.0 : static_cast<double>(k) / (K - 1);
    heat[static_cast<std::size_t>(k)] =
        std::pow(config.hot_edge_factor, frac);
  }
  rng.shuffle(heat);
  double heat_mean = 0.0;
  for (const double h : heat) heat_mean += h;
  heat_mean /= static_cast<double>(K);
  for (double& h : heat) h /= heat_mean;

  // Per-app popularity shares (deterministic per seed), normalized to mean 1.
  std::vector<double> share(static_cast<std::size_t>(I));
  double share_mean = 0.0;
  for (int i = 0; i < I; ++i) {
    share[static_cast<std::size_t>(i)] = rng.uniform(0.5, 1.5);
    share_mean += share[static_cast<std::size_t>(i)];
  }
  share_mean /= static_cast<double>(I);
  for (double& s : share) s /= share_mean;

  // Per-edge diurnal phase: regions peak at different times of day, which is
  // precisely what creates the redistribution opportunity.
  std::vector<double> phase(static_cast<std::size_t>(K));
  for (double& p : phase) p = rng.uniform(0.0, 1.0);

  if (config.flash_start >= 0) {
    util::check(config.flash_duration > 0,
                "generate: flash_duration must be positive");
    util::check(config.flash_scale >= 0.0,
                "generate: flash_scale must be >= 0");
  }

  for (int t = 0; t < config.slots; ++t) {
    for (int k = 0; k < K; ++k) {
      const double day_pos =
          static_cast<double>(t) / static_cast<double>(config.slots_per_day) +
          phase[static_cast<std::size_t>(k)];
      const double diurnal =
          1.0 + config.diurnal_amplitude *
                    std::sin(2.0 * std::numbers::pi * day_pos);
      const bool burst = rng.bernoulli(config.burst_probability);
      const double burst_mult = burst ? config.burst_scale : 1.0;
      for (int i = 0; i < I; ++i) {
        const double mean = config.mean_per_edge *
                            heat[static_cast<std::size_t>(k)] *
                            share[static_cast<std::size_t>(i)] * diurnal *
                            burst_mult;
        trace.set(t, i, k, rng.poisson(mean));
      }
    }
  }

  // Flash-crowd overlay: additive extra arrivals from a dedicated RNG
  // stream, so disabling it leaves every base draw (and thus the whole
  // trace) byte-identical.
  if (config.flash_start >= 0 && config.flash_scale > 0.0) {
    util::Xoshiro256StarStar crowd_rng(config.seed ^ 0xf1a5'c0d5ULL);
    std::vector<int> edges(static_cast<std::size_t>(K));
    for (int k = 0; k < K; ++k) edges[static_cast<std::size_t>(k)] = k;
    crowd_rng.shuffle(edges);
    // Seeded fraction of the edges the crowd hits.
    constexpr double kFlashEdgeFraction = 0.35;
    const int hit = std::max(
        1, static_cast<int>(kFlashEdgeFraction * static_cast<double>(K)));
    const int from = std::max(0, config.flash_start);
    const int to = std::min(config.slots,
                            config.flash_start + config.flash_duration);
    for (int t = from; t < to; ++t) {
      // Triangular envelope: ramp to flash_scale mid-crowd, back to zero.
      const double pos = (static_cast<double>(t - config.flash_start) + 0.5) /
                         static_cast<double>(config.flash_duration);
      const double envelope = 1.0 - std::abs(2.0 * pos - 1.0);
      for (int e = 0; e < hit; ++e) {
        const int k = edges[static_cast<std::size_t>(e)];
        for (int i = 0; i < I; ++i) {
          const double extra_mean = config.mean_per_edge *
                                    share[static_cast<std::size_t>(i)] *
                                    config.flash_scale * envelope;
          if (extra_mean <= 0.0) continue;
          trace.set(t, i, k,
                    trace.at(t, i, k) + crowd_rng.poisson(extra_mean));
        }
      }
    }
  }
  return trace;
}

double suggested_mean_per_edge(const device::ClusterSpec& cluster,
                               double target_utilization) {
  util::check(target_utilization > 0.0, "target utilization must be positive");
  const int K = cluster.num_devices();
  const int I = cluster.num_apps();

  // Per-edge serving envelope: compute capacity (Eq. 8) at the saturated
  // batch of a mid-sized variant. Under the time-sliced memory model
  // (weights sum + peak in-flight batch) memory gates which models can be
  // co-resident but not the per-slot request count, so compute is the
  // throughput-limiting resource the experiments load against.
  double envelope_total = 0.0;
  for (int k = 0; k < K; ++k) {
    double compute_per_request_s = 0.0;
    double structural_cap = 0.0;  // one batch <= beta per model per slot
    for (int i = 0; i < I; ++i) {
      const int variants = cluster.zoo().num_variants(i);
      const int mid = variants / 2;
      const auto& tir = cluster.oracle_tir(k, i, mid);
      compute_per_request_s += cluster.gamma_s(k, i, mid) / tir.tir(tir.beta);
      double app_cap = 0.0;
      for (int j = 0; j < variants; ++j) {
        app_cap += std::min(16, cluster.oracle_tir(k, i, j).beta);
      }
      structural_cap += app_cap;
    }
    compute_per_request_s /= static_cast<double>(I);
    const double compute_cap = cluster.tau_s() / compute_per_request_s;
    // Eq. 5 merges each app's requests into a single batch per model per
    // slot, so an edge can never serve more than sum_j beta per app even
    // with idle compute; the envelope honors whichever bound is tighter.
    envelope_total += std::min(compute_cap, structural_cap);
  }
  const double envelope_per_edge = envelope_total / static_cast<double>(K);
  return target_utilization * envelope_per_edge / static_cast<double>(I);
}

}  // namespace birp::workload
