#include "birp/core/birp_scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "birp/util/check.hpp"

namespace birp::core {

BirpScheduler::BirpScheduler(const device::ClusterSpec& cluster,
                             BirpConfig config)
    : cluster_(cluster), config_(config) {
  if (config_.online) {
    const std::size_t total =
        static_cast<std::size_t>(cluster.num_devices()) *
        static_cast<std::size_t>(cluster.num_apps()) *
        static_cast<std::size_t>(cluster.zoo().max_variants());
    estimators_.assign(total, TirEstimator(config_.tuner));
  }
}

BirpScheduler BirpScheduler::offline(const device::ClusterSpec& cluster,
                                     BirpConfig config) {
  config.online = false;
  return BirpScheduler(cluster, config);
}

std::size_t BirpScheduler::estimator_index(int device, int app,
                                           int variant) const {
  return (static_cast<std::size_t>(device) *
              static_cast<std::size_t>(cluster_.num_apps()) +
          static_cast<std::size_t>(app)) *
             static_cast<std::size_t>(cluster_.zoo().max_variants()) +
         static_cast<std::size_t>(variant);
}

device::TirParams BirpScheduler::believed_tir(int device, int app,
                                              int variant) const {
  if (!config_.online) return cluster_.oracle_tir(device, app, variant);
  return estimators_[estimator_index(device, app, variant)].lower_confidence(
      slot_);
}

std::vector<TirEstimator> BirpScheduler::export_device_estimators(
    int device) const {
  if (!config_.online) return {};
  util::check(device >= 0 && device < cluster_.num_devices(),
              "BirpScheduler: export device out of range");
  const std::size_t per_device =
      static_cast<std::size_t>(cluster_.num_apps()) *
      static_cast<std::size_t>(cluster_.zoo().max_variants());
  const std::size_t base = estimator_index(device, 0, 0);
  return {estimators_.begin() + static_cast<std::ptrdiff_t>(base),
          estimators_.begin() + static_cast<std::ptrdiff_t>(base + per_device)};
}

void BirpScheduler::import_device_estimators(
    int device, const std::vector<TirEstimator>& state) {
  if (!config_.online || state.empty()) return;
  util::check(device >= 0 && device < cluster_.num_devices(),
              "BirpScheduler: import device out of range");
  const std::size_t per_device =
      static_cast<std::size_t>(cluster_.num_apps()) *
      static_cast<std::size_t>(cluster_.zoo().max_variants());
  util::check(state.size() == per_device,
              "BirpScheduler: imported estimator slice has the wrong shape");
  std::copy(state.begin(), state.end(),
            estimators_.begin() +
                static_cast<std::ptrdiff_t>(estimator_index(device, 0, 0)));
}

void BirpScheduler::invalidate_warm_start() {
  prev_basis_ = solver::Basis{};
  prev_values_.clear();
}

sim::SlotDecision BirpScheduler::decide(const sim::SlotState& state) {
  slot_ = state.slot;
  // Beliefs are fixed for the slot, but build, heuristic and extract look
  // them up thousands of times (each online lookup computes three LCB
  // paddings), so tabulate them once in [device][app][variant] order.
  believed_.resize(static_cast<std::size_t>(cluster_.num_devices()) *
                   static_cast<std::size_t>(cluster_.num_apps()) *
                   static_cast<std::size_t>(cluster_.zoo().max_variants()));
  for (int k = 0; k < cluster_.num_devices(); ++k) {
    for (int i = 0; i < cluster_.num_apps(); ++i) {
      for (int j = 0; j < cluster_.zoo().num_variants(i); ++j) {
        believed_[estimator_index(k, i, j)] = believed_tir(k, i, j);
      }
    }
  }
  const TirLookup lookup = [this](int k, int i, int j) {
    return believed_[estimator_index(k, i, j)];
  };

  // Graceful degradation: when the heartbeat view reports down edges, the
  // slot problem is rebuilt with their capacity masked to zero, so the IP
  // redistributes around the failure instead of planning work it will lose.
  ProblemOptions options = config_.problem;
  if (state.any_down()) options.edge_up = state.edge_up;
  // Overload-protection hints: breaker-open (app, edge) pairs refuse
  // imports; degradation-ladder caps pin the most expensive variants off.
  if (state.hints != nullptr && !state.hints->empty()) {
    options.avoid_import = state.hints->avoid_import;
    options.variant_cap = state.hints->variant_cap;
  }

  const BuiltProblem problem = build_slot_problem(
      cluster_, state.demand, state.previous, lookup, options);

  // The BIRP-aware round-and-repair heuristic seeds branch-and-bound with
  // feasible incumbents, keeping the per-slot solve real-time.
  solver::BranchAndBoundOptions solver_options = config_.solver;
  solver_options.incumbent_heuristic =
      [&](std::span<const double> lp_values) {
        return heuristic_incumbent(problem, lp_values, cluster_, state.demand,
                                   state.previous, lookup, options);
      };
  if (solver_options.warm_start) {
    // Cross-slot warm start: seed the root relaxation with the previous
    // slot's optimal basis, and the incumbent with the previous decision
    // repaired against this slot's demand/liveness (the heuristic verifies
    // and repairs, so a stale decision degrades to "no seed", never to a
    // wrong answer).
    if (prev_basis_.matches(problem.model.num_variables(),
                            problem.model.num_constraints())) {
      solver_options.root_basis = &prev_basis_;
    }
    if (prev_values_.size() ==
        static_cast<std::size_t>(problem.model.num_variables())) {
      solver_options.seed_candidate =
          heuristic_incumbent(problem, prev_values_, cluster_, state.demand,
                              state.previous, lookup, options);
    }
  }
  const solver::Solution solution =
      solver::solve_milp(problem.model, solver_options);
  total_nodes_ += solution.nodes_explored;
  total_pivots_ += solution.simplex_iterations;
  total_factor_pivots_ += solution.factor_pivots;
  total_structural_factor_pivots_ += solution.structural_factor_pivots;
  total_btran_solves_ += solution.btran_solves;
  warm_lp_solves_ += solution.warm_lp_solves;
  cold_lp_solves_ += solution.cold_lp_solves;
  warm_give_ups_ += solution.warm_give_ups;

  if (!solution.basis.empty()) prev_basis_ = solution.basis;
  if (!solution.usable()) {
    ++fallbacks_;
    return greedy_fallback(state);
  }
  prev_values_ = solution.values;
  return extract_decision(problem, solution, cluster_, state.demand);
}

void BirpScheduler::observe(const sim::SlotFeedback& feedback) {
  if (!config_.online) return;
  for (const auto& obs : feedback.observations) {
    estimators_[estimator_index(obs.device, obs.app, obs.variant)].update(
        obs.observed_tir, obs.batch, feedback.slot);
  }
}

sim::SlotDecision BirpScheduler::greedy_fallback(
    const sim::SlotState& state) const {
  // Serve every region locally: fill variants smallest-first at the believed
  // saturated batch size while the believed compute budget lasts; the rest
  // is dropped. Deliberately simple — this is a liveness net, not a policy.
  const int I = cluster_.num_apps();
  const int K = cluster_.num_devices();
  sim::SlotDecision decision(I, cluster_.zoo().max_variants(), K);

  for (int k = 0; k < K; ++k) {
    if (!state.is_up(k)) {
      // Down edge: its region's demand has nowhere to go in fallback mode.
      for (int i = 0; i < I; ++i) decision.drops(i, k) = state.demand(i, k);
      continue;
    }
    double compute_left = cluster_.tau_s();
    double weights_used = 0.0;
    double peak_mu = 0.0;
    const double memory_mb = cluster_.memory_mb(k);
    for (int i = 0; i < I; ++i) {
      std::int64_t remaining = state.demand(i, k);
      const int J = cluster_.zoo().num_variants(i);
      for (int j = 0; j < J && remaining > 0; ++j) {
        if (!state.variant_allowed(i, j)) continue;
        const auto believed = believed_tir(k, i, j);
        const auto& variant = cluster_.zoo().variant(i, j);
        const int kernel_cap = launch_kernel_cap(
            cluster_, config_.problem.max_batch, believed.beta, k, i, j);
        const int cap =
            kernel_cap * std::max(1, config_.problem.launch_multiplier);
        const double gamma = config_.problem.gamma_lookup
                                 ? config_.problem.gamma_lookup(k, i, j)
                                 : cluster_.gamma_s(k, i, j);

        // Largest batch fitting the believed compute budget and the
        // time-sliced memory model (weights sum + peak in-flight batch).
        const double weights_after = weights_used + variant.weights_mb;
        if (weights_after + peak_mu > memory_mb) continue;
        const auto memory_allowed = static_cast<std::int64_t>(std::floor(
            (memory_mb - weights_after) / variant.intermediate_mb));
        const auto compute_allowed = static_cast<std::int64_t>(std::floor(
            (compute_left / gamma - believed.eta) / (1.0 - believed.eta)));
        const auto take =
            std::min({remaining, static_cast<std::int64_t>(cap),
                      memory_allowed, compute_allowed});
        if (take <= 0) continue;

        compute_left -=
            gamma * ((1.0 - believed.eta) * static_cast<double>(take) +
                     believed.eta);
        weights_used = weights_after;
        peak_mu = std::max(
            peak_mu, variant.intermediate_mb * static_cast<double>(take));
        decision.served(i, j, k) = take;
        decision.kernel(i, j, k) = static_cast<int>(
            std::min<std::int64_t>(take, kernel_cap));
        remaining -= take;
      }
      decision.drops(i, k) = remaining;
    }
  }
  return decision;
}

}  // namespace birp::core
