// Internal glue between the public solve_lp API and the two LP engines.
//
// Each engine (RevisedSimplex in simplex.cpp, DenseTableau in
// dense_tableau.cpp) implements the same shape: a cold constructor, a warm
// constructor gated by warm_ok(), solve()/solve_warm(), and the diagnostic
// accessors. `solve_lp_with` is the one and only warm-attempt-then-cold
// accounting path, shared by both backends so the bookkeeping invariants
// cannot diverge:
//
//  - Exactly one of {warm, cold} serves each solve_lp call: the returned
//    Solution has warm_started == true iff a warm engine (resumed or
//    rebuilt from the Basis) produced it, and branch-and-bound counts
//    warm_lp_solves/cold_lp_solves off that flag, so a mismatched or
//    singular seed basis increments cold_lp_solves once and warm_lp_solves
//    never.
//  - A failed warm attempt's work (iterations, factorization pivots) is
//    charged to the Solution that finally serves the call exactly once —
//    each abandoned attempt's counters are read once, after it gives up,
//    and added to the fallback totals; nothing is read before an attempt
//    resolves, so there is no path that counts the same elimination twice.
//
// Live-state handoff (sparse engine only). An optimal RevisedSimplex solve
// can move its live state out as an LpState: the standard form's immutable
// part (CSC matrix, scales, rhs, dual anchors), the mutable point (bounds,
// column states and values, basic column per row) and the factorized basis
// with its eta updates. A branch-and-bound child differs from its parent by
// one bound, so it resumes from that state — new structural bounds, each
// nonbasic column parked at its bound, basic values recomputed through the
// inherited LU — instead of rebuilding the form and refactorizing. A
// resumed attempt that gives up falls back straight to the cold solve; the
// Basis rebuild serves only calls without a resume state (the root LP,
// children past branch-and-bound's state cap, and every DenseTableau call).
#pragma once

#include <concepts>
#ifdef BIRP_LP_TRACE
#include <cstdio>
#endif
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "birp/solver/basis_lu.hpp"
#include "birp/solver/model.hpp"
#include "birp/solver/simplex.hpp"
#include "birp/solver/solution.hpp"
#include "birp/solver/standard_form.hpp"

namespace birp::solver {

/// The live state of an optimal sparse solve (see the header comment).
/// `form` is shared, never copied: its lower/upper/state/value/basis arrays
/// are empty because those live here, per solve. A default-constructed
/// LpState (null form) holds nothing.
struct LpState {
  std::shared_ptr<const StandardForm> form;
  std::vector<double> lower;
  std::vector<double> upper;
  std::vector<VarState> state;
  std::vector<double> value;
  std::vector<int> basis;  ///< basic column per row
  BasisLu lu;              ///< factorization of `basis`, eta updates included
};

/// solve_lp with the live-state handoff: `resume`, when non-null, is the
/// parent's state to start from (sparse engine only; it must come from a
/// solve of the same model), tried instead of `warm_start`; `keep`, when
/// non-null, receives this solve's state if it ends Optimal on the sparse
/// engine (left untouched otherwise).
[[nodiscard]] Solution solve_lp_live(const Model& model,
                                     std::span<const double> lower,
                                     std::span<const double> upper,
                                     const SimplexOptions& options,
                                     const Basis* warm_start, bool emit_basis,
                                     const LpState* resume, LpState* keep);

/// Dense tableau reference backend (dense_tableau.cpp).
[[nodiscard]] Solution solve_lp_dense(const Model& model,
                                      std::span<const double> lower,
                                      std::span<const double> upper,
                                      const SimplexOptions& options,
                                      const Basis* warm_start,
                                      bool emit_basis);

/// An engine that can resume from, and hand out, an LpState.
template <class Engine>
concept LiveStateEngine = requires(Engine& engine) {
  { std::move(engine).release_state() } -> std::same_as<LpState>;
};

template <class Engine>
[[nodiscard]] Solution solve_lp_with(const Model& model,
                                     std::span<const double> lower,
                                     std::span<const double> upper,
                                     const SimplexOptions& options,
                                     const Basis* warm_start,
                                     bool emit_basis,
                                     const LpState* resume = nullptr,
                                     LpState* keep = nullptr) {
  for (std::size_t j = 0; j < lower.size(); ++j) {
    if (lower[j] > upper[j]) {
      Solution infeasible;
      infeasible.status = SolveStatus::Infeasible;
      return infeasible;
    }
  }

  // Hands an optimal engine's basis and live state to the caller.
  const auto release = [&](Engine& engine, Solution& solution) {
    if (solution.status != SolveStatus::Optimal) return;
    if (emit_basis) solution.basis = engine.extract_basis();
    if constexpr (LiveStateEngine<Engine>) {
      if (keep != nullptr) *keep = std::move(engine).release_state();
    }
  };

  // Warm attempt first: the resumed parent state, else the Basis rebuild.
  // Any rejection (shape mismatch, singular basis, dual-infeasible start,
  // stalled repair) falls through to the cold two-phase solve, carrying the
  // wasted work in the diagnostics.
  std::int64_t wasted_iterations = 0;
  std::int64_t wasted_factor_pivots = 0;
  const auto attempt = [&](Engine& engine) -> std::optional<Solution> {
    if (engine.warm_ok()) {
      if (auto solution = engine.solve_warm()) {
        solution->simplex_iterations += wasted_iterations;
        solution->factor_pivots += wasted_factor_pivots;
        release(engine, *solution);
#ifdef BIRP_LP_TRACE
        std::fprintf(stderr, "LP warm iters=%lld status=%d obj=%.17g\n",
                     (long long)solution->simplex_iterations,
                     (int)solution->status, solution->objective);
#endif
        return solution;
      }
    }
    wasted_iterations += engine.iterations();
    wasted_factor_pivots += engine.factor_pivots();
    return std::nullopt;
  };
  if constexpr (LiveStateEngine<Engine>) {
    if (resume != nullptr) {
      Engine engine(model, lower, upper, options, *resume);
      if (auto solution = attempt(engine)) return *std::move(solution);
      // A Basis rebuild would restart from the basis this attempt started
      // from and almost always stall in the same dual repair that made it
      // give up, so go straight to the cold solve.
      warm_start = nullptr;
    }
  }
  if (warm_start != nullptr && !warm_start->empty() &&
      warm_start->matches(model.num_variables(), model.num_constraints())) {
    Engine engine(model, lower, upper, options, *warm_start);
    if (auto solution = attempt(engine)) return *std::move(solution);
  }

  Engine engine(model, lower, upper, options);
  Solution solution = engine.solve();
  solution.simplex_iterations += wasted_iterations;
  solution.factor_pivots += wasted_factor_pivots;
  release(engine, solution);
#ifdef BIRP_LP_TRACE
  std::fprintf(stderr, "LP cold wasted=%lld iters=%lld status=%d obj=%.17g\n",
               (long long)wasted_iterations,
               (long long)solution.simplex_iterations, (int)solution.status,
               solution.objective);
#endif
  return solution;
}

}  // namespace birp::solver
