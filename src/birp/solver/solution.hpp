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
/// consecutive scheduling slots).
struct Basis {
  /// State of each structural (model) variable. Logical states need no
  /// storage: a logical is either in `basic` or rests at zero.
  std::vector<VarState> structural;
  /// Basic column per row: j in [0, n) is structural j; n + i is the
  /// logical (slack, surplus, or fixed zero column of an = row) of
  /// constraint i.
  std::vector<int> basic;

  /// The all-logical basis of a model with `num_vars` variables and
  /// `num_rows` constraints: every structural at its lower bound, row i's
  /// logical basic in row i. Every cold solve starts here.
  [[nodiscard]] static Basis logical(int num_vars, int num_rows) {
    Basis basis;
    basis.structural.assign(static_cast<std::size_t>(num_vars),
                            VarState::AtLower);
    basis.basic.resize(static_cast<std::size_t>(num_rows));
    for (int i = 0; i < num_rows; ++i) {
      basis.basic[static_cast<std::size_t>(i)] = num_vars + i;
    }
    return basis;
  }

  [[nodiscard]] bool empty() const noexcept { return basic.empty(); }
  /// Shape check against a model with `num_vars` variables and `num_rows`
  /// constraints; a warm start from a basis of another shape is skipped.
  [[nodiscard]] bool matches(int num_vars, int num_rows) const noexcept {
    return structural.size() == static_cast<std::size_t>(num_vars) &&
           basic.size() == static_cast<std::size_t>(num_rows);
  }
};

/// Warm attempts abandoned for a restart from the all-logical basis, by
/// reason. On an LP Solution at most one count is 1 (one warm attempt per
/// call); a MILP Solution sums its node LPs' counts, and BirpScheduler sums
/// its slots'.
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
  bool warm_started = false;  ///< LP: served from a warm (non-logical) basis
  std::int64_t factor_pivots = 0;  ///< eliminations spent refactorizing bases
  /// The factor_pivots of basic columns with more than one nonzero
  /// (structural columns); the rest are logical and other singletons.
  std::int64_t structural_factor_pivots = 0;
  std::int64_t btran_solves = 0;  ///< B^{-T} solves (duals and pivot rows)
  std::int64_t warm_lp_solves = 0;  ///< MILP: node LPs served by the warm path
  /// MILP: node LPs served from the all-logical basis.
  std::int64_t cold_lp_solves = 0;
  WarmGiveUps warm_give_ups;  ///< warm attempts abandoned for a logical start

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
