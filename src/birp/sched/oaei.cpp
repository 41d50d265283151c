#include "birp/sched/oaei.hpp"

#include <algorithm>
#include <cmath>
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

/// Builds OAEI's serial-execution LP into the shared BuiltProblem shape so
/// core::extract_decision can read the solution. Differences from BIRP's
/// problem: x is relaxed to [0,1]; z carries served counts with a big-M link
/// (serial execution has no per-deployment batch cap); memory charges
/// batch-1 intermediates; compute charges gamma per request with the learned
/// capacity factor (no TIR speedup — execution is serial).
core::BuiltProblem build_oaei_problem(
    const device::ClusterSpec& cluster,
    const util::Grid2<std::int64_t>& demand,
    const sim::SlotDecision* previous,
    const std::vector<double>& capacity_factor) {
  const int I = cluster.num_apps();
  const int K = cluster.num_devices();
  const int Jmax = cluster.zoo().max_variants();

  core::BuiltProblem built{solver::Model{},
                           util::Grid3<int>(I, Jmax, K, -1),
                           util::Grid3<int>(I, Jmax, K, -1),
                           util::Grid2<int>(I, K, -1),
                           util::Grid2<int>(I, K, -1),
                           util::Grid2<int>(I, K, -1),
                           std::vector<int>(static_cast<std::size_t>(K), -1),
                           // Serial execution: every launch is batch 1.
                           util::Grid3<int>(I, Jmax, K, 1)};
  auto& model = built.model;

  // Peak working-set per edge (serial execution -> batch-1 footprints).
  for (int k = 0; k < K; ++k) {
    built.w[static_cast<std::size_t>(k)] =
        model.add_continuous(0.0, solver::kInfinity);
  }

  // Cluster-wide demand per app bounds any single deployment's share.
  std::vector<double> app_demand(static_cast<std::size_t>(I), 0.0);
  for (int i = 0; i < I; ++i) {
    for (int k = 0; k < K; ++k) {
      app_demand[static_cast<std::size_t>(i)] +=
          static_cast<double>(demand(i, k));
    }
  }

  for (int i = 0; i < I; ++i) {
    const int J = cluster.zoo().num_variants(i);
    for (int j = 0; j < J; ++j) {
      const auto& variant = cluster.zoo().variant(i, j);
      for (int k = 0; k < K; ++k) {
        built.x(i, j, k) = model.add_continuous(0.0, 1.0);
        built.z(i, j, k) = model.add_continuous(
            0.0, app_demand[static_cast<std::size_t>(i)]);
        model.set_objective(built.z(i, j, k), variant.loss);
        // n <= D_i * x : serving requires deployment.
        model.add_constraint(
            {{built.z(i, j, k), 1.0},
             {built.x(i, j, k), -app_demand[static_cast<std::size_t>(i)]}},
            solver::Relation::LessEqual, 0.0);
      }
    }
  }
  for (int i = 0; i < I; ++i) {
    // Drops are priced as in BIRP's slot problem.
    const double penalty =
        core::kDropPenaltyFactor * cluster.zoo().worst_loss(i);
    for (int k = 0; k < K; ++k) {
      built.e(i, k) =
          model.add_continuous(0.0, static_cast<double>(demand(i, k)));
      built.m(i, k) = model.add_continuous(0.0, solver::kInfinity);
      built.d(i, k) = model.add_continuous(0.0, solver::kInfinity);
      model.set_objective(built.d(i, k), penalty);
    }
  }

  for (int i = 0; i < I; ++i) {
    const int J = cluster.zoo().num_variants(i);
    for (int k = 0; k < K; ++k) {
      std::vector<solver::Term> terms;
      for (int j = 0; j < J; ++j) terms.push_back({built.z(i, j, k), 1.0});
      terms.push_back({built.d(i, k), 1.0});
      terms.push_back({built.e(i, k), 1.0});
      terms.push_back({built.m(i, k), -1.0});
      model.add_constraint(terms, solver::Relation::Equal,
                           static_cast<double>(demand(i, k)));
    }
  }
  for (int i = 0; i < I; ++i) {
    std::vector<solver::Term> terms;
    for (int k = 0; k < K; ++k) {
      terms.push_back({built.e(i, k), 1.0});
      terms.push_back({built.m(i, k), -1.0});
    }
    model.add_constraint(terms, solver::Relation::Equal, 0.0);
  }

  for (int k = 0; k < K; ++k) {
    std::vector<solver::Term> memory;
    std::vector<solver::Term> compute;
    std::vector<solver::Term> network;
    for (int i = 0; i < I; ++i) {
      const int J = cluster.zoo().num_variants(i);
      for (int j = 0; j < J; ++j) {
        const auto& variant = cluster.zoo().variant(i, j);
        memory.push_back({built.x(i, j, k), variant.weights_mb});
        // Serial launches: batch-1 activations, only the largest alive.
        model.add_constraint({{built.x(i, j, k), variant.intermediate_mb},
                              {built.w[static_cast<std::size_t>(k)], -1.0}},
                             solver::Relation::LessEqual, 0.0);
        compute.push_back({built.z(i, j, k),
                           cluster.gamma_s(k, i, j) *
                               capacity_factor[static_cast<std::size_t>(k)]});
        // t = 0: models staged before the experiment (P1 / Eq. 13).
        const bool was_deployed =
            previous == nullptr || previous->deployed(i, j, k);
        if (!was_deployed) {
          network.push_back({built.x(i, j, k), variant.compressed_mb});
        }
      }
      const double zeta = cluster.zoo().app(i).request_mb;
      network.push_back({built.e(i, k), zeta});
      network.push_back({built.m(i, k), zeta});
    }
    memory.push_back({built.w[static_cast<std::size_t>(k)], 1.0});
    model.add_constraint(memory, solver::Relation::LessEqual,
                         cluster.memory_mb(k));
    model.add_constraint(compute, solver::Relation::LessEqual,
                         cluster.tau_s());
    model.add_constraint(network, solver::Relation::LessEqual,
                         cluster.network_mb(k));
  }
  return built;
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

  core::BuiltProblem problem = build_oaei_problem(
      cluster_, state.demand, state.previous, capacity_factor_);
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
      if (state.demand(i, k) <= 0 && relaxed.values.empty()) continue;

      // Sampling order: draw versions without replacement, probability
      // proportional to the LP weight, until one fits.
      std::vector<int> order;
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

        const auto& variant = cluster_.zoo().variant(i, j);
        const auto kk = static_cast<std::size_t>(k);
        const double new_weights = weights_used[kk] + variant.weights_mb;
        const double new_peak =
            std::max(peak_mu[kk], variant.intermediate_mb);
        const bool was_deployed =
            state.previous == nullptr || state.previous->deployed(i, j, k);
        const double net_cost = was_deployed ? 0.0 : variant.compressed_mb;
        if (new_weights + new_peak > cluster_.memory_mb(k)) continue;
        if (net_cost > network_left[kk]) continue;

        weights_used[kk] = new_weights;
        peak_mu[kk] = new_peak;
        network_left[kk] -= net_cost;
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

  // Serial execution: every request is its own batch-1 launch, and the
  // predicted busy time per edge feeds the capacity learner.
  std::fill(predicted_busy_s_.begin(), predicted_busy_s_.end(), 0.0);
  for (int i = 0; i < I; ++i) {
    const int J = cluster_.zoo().num_variants(i);
    for (int j = 0; j < J; ++j) {
      for (int k = 0; k < K; ++k) {
        if (decision.served(i, j, k) > 0) {
          decision.kernel(i, j, k) = 1;
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
