#include "birp/core/birp_scheduler.hpp"

#include <algorithm>

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

BuiltProblem BirpScheduler::build_problem(const sim::SlotState& state) {
  slot_ = state.slot;
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
  return build_slot_problem(cluster_, state.demand, state.previous,
                            believed_lookup(), options);
}

TirLookup BirpScheduler::believed_lookup() const {
  return [this](int k, int i, int j) { return believed_tir(k, i, j); };
}

sim::SlotDecision BirpScheduler::fallback_plan(
    const BuiltProblem& problem, const sim::SlotState& state) const {
  const std::vector<double> zero(
      static_cast<std::size_t>(problem.model.num_variables()), 0.0);
  return heuristic_decision(problem, zero, cluster_, state.demand,
                            state.previous);
}

sim::SlotDecision BirpScheduler::plan_without_solver(
    const sim::SlotState& state) {
  return fallback_plan(build_problem(state), state);
}

sim::SlotDecision BirpScheduler::decide(const sim::SlotState& state) {
  const BuiltProblem problem = build_problem(state);

  // The BIRP-aware round-and-repair heuristic seeds branch-and-bound with
  // feasible incumbents, keeping the per-slot solve real-time.
  solver::BranchAndBoundOptions solver_options = config_.solver;
  solver_options.incumbent_heuristic =
      [&](std::span<const double> lp_values) {
        return heuristic_incumbent(problem, lp_values, cluster_, state.demand,
                                   state.previous, {}, {});
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
                              state.previous, {}, {});
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
    return fallback_plan(problem, state);
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

}  // namespace birp::core
