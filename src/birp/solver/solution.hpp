// Shared solve result types for the LP and MILP solvers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace birp::solver {

/// Simplex status of one column: in the basis, or resting at a bound.
enum class VarState : std::uint8_t { Basic, AtLower, AtUpper };

/// Compact snapshot of an optimal simplex basis, used to warm-start later
/// solves of structurally identical problems (branch-and-bound children,
/// consecutive scheduling slots). Layout-independent: slack columns are
/// identified by their constraint row, not by tableau position.
struct Basis {
  /// State of each structural (model) variable. Slack states need no
  /// storage: a slack is either in `basic` or rests at its lower bound.
  std::vector<VarState> structural;
  /// Basic column per row: j in [0, n) is structural j; n + i is the slack
  /// of constraint i; -1 marks a degenerate row whose basic column was an
  /// artificial (re-created as a fixed zero column on warm start).
  std::vector<int> basic;

  [[nodiscard]] bool empty() const noexcept { return basic.empty(); }
  /// Shape check against a model with `num_vars` variables and `num_rows`
  /// constraints; warm starts are rejected (cold fallback) otherwise.
  [[nodiscard]] bool matches(int num_vars, int num_rows) const noexcept {
    return structural.size() == static_cast<std::size_t>(num_vars) &&
           basic.size() == static_cast<std::size_t>(num_rows);
  }
};

/// Warm attempts abandoned for the cold two-phase solve, by reason. On an LP
/// Solution at most one count is 1 (one attempt per call); a MILP Solution
/// sums its node LPs' counts, and BirpScheduler sums its slots'.
struct WarmGiveUps {
  /// The seed basis was malformed or singular, or a refactorization during
  /// the dual repair found it singular.
  std::int64_t singular = 0;
  /// The dual repair hit its pivot budget (rows + 100 iterations).
  std::int64_t repair_stall = 0;
  /// Phase II from the warm (possibly repaired) basis stopped at the LP's
  /// pivot limit or on a singular refactorization.
  std::int64_t phase2_limit = 0;

  [[nodiscard]] std::int64_t total() const noexcept {
    return singular + repair_stall + phase2_limit;
  }
  WarmGiveUps& operator+=(const WarmGiveUps& other) noexcept {
    singular += other.singular;
    repair_stall += other.repair_stall;
    phase2_limit += other.phase2_limit;
    return *this;
  }
};

enum class SolveStatus {
  Optimal,         ///< proven optimal (within tolerances)
  Feasible,        ///< feasible incumbent returned, optimality not proven
  Infeasible,      ///< no feasible point exists
  Unbounded,       ///< objective unbounded below
  IterationLimit,  ///< budget exhausted without a feasible point
};

[[nodiscard]] std::string to_string(SolveStatus status);

struct Solution {
  SolveStatus status = SolveStatus::IterationLimit;
  double objective = 0.0;
  std::vector<double> values;  ///< one entry per model variable
  /// Constraint duals (shadow prices), one per model constraint, populated
  /// by solve_lp on Optimal only: duals[i] approximates d(objective)/d(rhs_i)
  /// at the optimum (for nondegenerate rows). Empty for MILP solves.
  std::vector<double> duals;

  /// Optimal basis snapshot for warm-starting a follow-up solve. Populated
  /// by solve_lp when asked (emit_basis) and the solve is Optimal; for MILP
  /// solves it holds the root relaxation's basis (the cross-slot seed).
  Basis basis;

  // Diagnostics.
  std::int64_t simplex_iterations = 0;  ///< total pivots across all LP solves
  std::int64_t nodes_explored = 0;      ///< branch-and-bound nodes (MILP only)
  double best_bound = 0.0;              ///< proven lower bound (MILP only)
  bool warm_started = false;       ///< LP: solved from a warm basis (no Phase I)
  std::int64_t factor_pivots = 0;  ///< eliminations spent refactorizing bases
  /// The factor_pivots of basic columns with more than one nonzero
  /// (structural columns); the rest are slack/artificial singletons.
  std::int64_t structural_factor_pivots = 0;
  std::int64_t btran_solves = 0;  ///< B^{-T} solves (duals and pivot rows)
  std::int64_t warm_lp_solves = 0;  ///< MILP: node LPs served by the warm path
  std::int64_t cold_lp_solves = 0;  ///< MILP: node LPs solved from scratch
  WarmGiveUps warm_give_ups;  ///< warm attempts abandoned for a cold solve

  [[nodiscard]] bool usable() const noexcept {
    return status == SolveStatus::Optimal || status == SolveStatus::Feasible;
  }
};

inline std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Optimal: return "optimal";
    case SolveStatus::Feasible: return "feasible";
    case SolveStatus::Infeasible: return "infeasible";
    case SolveStatus::Unbounded: return "unbounded";
    case SolveStatus::IterationLimit: return "iteration_limit";
  }
  return "unknown";
}

}  // namespace birp::solver
