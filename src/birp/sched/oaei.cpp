#include "birp/sched/oaei.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "birp/core/problem.hpp"
#include "birp/solver/simplex.hpp"
#include "birp/util/check.hpp"

namespace birp::sched {
namespace {

/// EWMA smoothing for the capacity-correction factor.
constexpr double kCapacitySmoothing = 0.2;
/// Seed of the randomized-rounding stream.
constexpr std::uint64_t kRoundingSeed = 0x0ae1;

/// OAEI's serial-execution terms for the shared slot model: every launch is
/// batch 1 with no TIR speedup, so compute is gamma per request scaled by
/// the learned capacity factor, with no fixed charge; a deployment may serve
/// up to its app's cluster-wide demand (no batch cap); every deployment is
/// usable (OAEI does not read the liveness mask or the ladder caps).
util::Grid3<core::DeploymentTerms> serial_terms(
    const device::ClusterSpec& cluster,
    const util::Grid2<std::int64_t>& demand,
    const std::vector<double>& capacity_factor) {
  const int I = cluster.num_apps();
  const int K = cluster.num_devices();
  util::Grid3<core::DeploymentTerms> terms(I, cluster.zoo().max_variants(), K);
  for (int i = 0; i < I; ++i) {
    double app_demand = 0.0;
    for (int k = 0; k < K; ++k) app_demand += static_cast<double>(demand(i, k));
    for (int j = 0; j < cluster.zoo().num_variants(i); ++j) {
      for (int k = 0; k < K; ++k) {
        auto& t = terms(i, j, k);
        t.usable = true;
        t.kernel_cap = 1;
        t.serve_cap = app_demand;
        t.slope_s = cluster.gamma_s(k, i, j) *
                    capacity_factor[static_cast<std::size_t>(k)];
        t.fixed_s = 0.0;
      }
    }
  }
  return terms;
}

}  // namespace

OaeiScheduler::OaeiScheduler(const device::ClusterSpec& cluster)
    : cluster_(cluster),
      rng_(kRoundingSeed),
      capacity_factor_(static_cast<std::size_t>(cluster.num_devices()), 1.0),
      predicted_busy_s_(static_cast<std::size_t>(cluster.num_devices()), 0.0) {}

double OaeiScheduler::capacity_factor(int k) const {
  util::check(k >= 0 && k < cluster_.num_devices(), "OAEI: bad device");
  return capacity_factor_[static_cast<std::size_t>(k)];
}

sim::SlotDecision OaeiScheduler::decide(const sim::SlotState& state) {
  const int I = cluster_.num_apps();
  const int K = cluster_.num_devices();

  // Only the LP relaxation is solved, so x's and z's integrality is unread.
  const core::BuiltProblem problem = core::build_from_terms(
      cluster_, state.demand, state.previous,
      serial_terms(cluster_, state.demand, capacity_factor_), {});
  const solver::Solution relaxed = solver::solve_lp(problem.model);

  sim::SlotDecision decision(I, cluster_.zoo().max_variants(), K);
  if (!relaxed.usable()) {
    // Degenerate safety net: drop everything (validator will account).
    return decision;
  }

  // --- Randomized rounding of deployments, respecting memory and network
  //     switch budgets so the fixed-x problem stays feasible. ---
  const int n_vars = problem.model.num_variables();
  std::vector<double> lower(static_cast<std::size_t>(n_vars));
  std::vector<double> upper(static_cast<std::size_t>(n_vars));
  for (int v = 0; v < n_vars; ++v) {
    lower[static_cast<std::size_t>(v)] = problem.model.variable(v).lower;
    upper[static_cast<std::size_t>(v)] = problem.model.variable(v).upper;
  }

  std::vector<double> weights_used(static_cast<std::size_t>(K), 0.0);
  std::vector<double> peak_mu(static_cast<std::size_t>(K), 0.0);
  std::vector<double> network_left(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) {
    network_left[static_cast<std::size_t>(k)] = cluster_.network_mb(k);
  }

  // Model selection with randomized rounding, the defining element of [19]:
  // each (app, edge) selects exactly ONE model version, sampled from the
  // LP's fractional deployment weights, skipping versions that do not fit
  // the remaining memory / network-switch budget. Everything else stays
  // closed; the second-stage LP then routes requests across edges given
  // the selected versions.
  for (int i = 0; i < I; ++i) {
    const int J = cluster_.zoo().num_variants(i);
    for (int k = 0; k < K; ++k) {
      for (int j = 0; j < J; ++j) {
        const int xv = problem.x(i, j, k);
        lower[static_cast<std::size_t>(xv)] = 0.0;
        upper[static_cast<std::size_t>(xv)] = 0.0;
      }

      // Sampling order: draw versions without replacement, probability
      // proportional to the LP weight, until one fits.
      std::vector<double> weight(static_cast<std::size_t>(J), 0.0);
      double total = 0.0;
      for (int j = 0; j < J; ++j) {
        weight[static_cast<std::size_t>(j)] = std::max(
            0.0,
            relaxed.values[static_cast<std::size_t>(problem.x(i, j, k))]);
        total += weight[static_cast<std::size_t>(j)];
      }
      if (total <= 1e-9) {
        if (state.demand(i, k) <= 0) continue;
        // LP routed everything away yet demand exists locally: keep the
        // smallest version available as a safety valve.
        for (int j = 0; j < J; ++j) weight[static_cast<std::size_t>(j)] = j == 0;
        total = 1.0;
      }
      std::vector<bool> used(static_cast<std::size_t>(J), false);
      for (int draw = 0; draw < J; ++draw) {
        double pick = rng_.uniform(0.0, total);
        int j = -1;
        for (int candidate = 0; candidate < J; ++candidate) {
          if (used[static_cast<std::size_t>(candidate)]) continue;
          pick -= weight[static_cast<std::size_t>(candidate)];
          if (pick <= 0.0) {
            j = candidate;
            break;
          }
        }
        if (j < 0) break;
        used[static_cast<std::size_t>(j)] = true;
        total -= weight[static_cast<std::size_t>(j)];

        const auto& t = problem.terms(i, j, k);
        const auto kk = static_cast<std::size_t>(k);
        const double new_weights =
            weights_used[kk] + cluster_.zoo().variant(i, j).weights_mb;
        const double new_peak = std::max(peak_mu[kk], t.reserve_mb);
        if (new_weights + new_peak > cluster_.memory_mb(k)) continue;
        if (t.switch_mb > network_left[kk]) continue;

        weights_used[kk] = new_weights;
        peak_mu[kk] = new_peak;
        network_left[kk] -= t.switch_mb;
        const int xv = problem.x(i, j, k);
        lower[static_cast<std::size_t>(xv)] = 1.0;
        upper[static_cast<std::size_t>(xv)] = 1.0;
        break;  // exactly one version per (app, edge)
      }
    }
  }

  // --- Second stage: request placement with deployments fixed. Always
  //     feasible (drops absorb everything). ---
  const solver::Solution fixed =
      solver::solve_lp(problem.model, lower, upper);
  if (!fixed.usable()) return decision;

  decision = core::extract_decision(problem, fixed, cluster_, state.demand);

  // Serial execution (extract sized every launch at the kernel cap of 1):
  // the predicted busy time per edge feeds the capacity learner.
  std::fill(predicted_busy_s_.begin(), predicted_busy_s_.end(), 0.0);
  for (int i = 0; i < I; ++i) {
    const int J = cluster_.zoo().num_variants(i);
    for (int j = 0; j < J; ++j) {
      for (int k = 0; k < K; ++k) {
        if (decision.served(i, j, k) > 0) {
          predicted_busy_s_[static_cast<std::size_t>(k)] +=
              cluster_.gamma_s(k, i, j) *
              static_cast<double>(decision.served(i, j, k));
        }
      }
    }
  }
  return decision;
}

void OaeiScheduler::observe(const sim::SlotFeedback& feedback) {
  for (int k = 0; k < cluster_.num_devices(); ++k) {
    const double predicted = predicted_busy_s_[static_cast<std::size_t>(k)];
    if (predicted < 0.1) continue;  // too little signal this slot
    const double observed = feedback.busy_s[static_cast<std::size_t>(k)];
    auto& factor = capacity_factor_[static_cast<std::size_t>(k)];
    // The prediction is the unscaled serial time, so the ratio alone is
    // the capacity sample (scaling it by the factor again would compound
    // any persistent bias geometrically).
    const double sample = std::clamp(observed / predicted, 0.25, 4.0);
    factor = (1.0 - kCapacitySmoothing) * factor + kCapacitySmoothing * sample;
  }
}

}  // namespace birp::sched
