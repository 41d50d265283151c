// Mixed-integer linear model builder.
//
// This is the in-repo replacement for the Gurobi dependency of the paper:
// BIRP's per-slot problem (P1ᵗ/P2ᵗ after the Eq. 24 linearization) is built
// against this API and handed to the simplex / branch-and-bound solvers.
//
// The "quadratic" structure of the paper's program comes exclusively from
// products x·b of a binary and a bounded integer. The slot problem never
// materializes b: it serves z = x·b requests under z <= cap·x, which is
// exact, so the whole program is solved as a MILP.
#pragma once

#include <limits>
#include <initializer_list>
#include <span>
#include <vector>

namespace birp::solver {

/// Variable integrality class.
enum class VarType { Continuous, Integer, Binary };

/// Constraint relation.
enum class Relation { LessEqual, GreaterEqual, Equal };

/// One term of a linear expression: coeff * var.
struct Term {
  int var = -1;
  double coeff = 0.0;
};

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// A linear constraint sum(terms) rel rhs.
struct Constraint {
  std::vector<Term> terms;
  Relation relation = Relation::LessEqual;
  double rhs = 0.0;
};

/// Variable metadata.
struct VariableInfo {
  double lower = 0.0;
  double upper = kInfinity;
  VarType type = VarType::Continuous;
  double objective = 0.0;
};

/// Minimization model over continuous / integer / binary variables with
/// linear constraints. Construction is append-only; solvers read it const.
class Model {
 public:
  /// Adds a variable; returns its index. `lower` must be finite (the simplex
  /// implementation requires finite lower bounds; all BIRP variables are
  /// naturally nonnegative).
  int add_variable(double lower, double upper, VarType type);

  int add_continuous(double lower, double upper) {
    return add_variable(lower, upper, VarType::Continuous);
  }
  int add_integer(double lower, double upper) {
    return add_variable(lower, upper, VarType::Integer);
  }
  int add_binary() { return add_variable(0.0, 1.0, VarType::Binary); }

  /// Sets the minimization objective coefficient of `var`.
  void set_objective(int var, double coeff);

  /// Adds sum(terms) rel rhs; returns the constraint index. Terms referring
  /// to the same variable are combined (summed in input order) and come out
  /// in variable order, zero sums dropped.
  int add_constraint(std::span<const Term> terms, Relation relation,
                     double rhs);
  int add_constraint(std::initializer_list<Term> terms, Relation relation,
                     double rhs);

  [[nodiscard]] int num_variables() const noexcept {
    return static_cast<int>(variables_.size());
  }
  [[nodiscard]] int num_constraints() const noexcept {
    return static_cast<int>(constraints_.size());
  }
  [[nodiscard]] const VariableInfo& variable(int index) const;
  [[nodiscard]] const Constraint& constraint(int index) const;
  [[nodiscard]] const std::vector<VariableInfo>& variables() const noexcept {
    return variables_;
  }
  [[nodiscard]] const std::vector<Constraint>& constraints() const noexcept {
    return constraints_;
  }

  /// True when any variable is Integer or Binary.
  [[nodiscard]] bool has_integers() const noexcept { return integer_count_ > 0; }

  /// Evaluates the objective at `values` (size must match variables).
  [[nodiscard]] double objective_value(std::span<const double> values) const;

  /// Maximum constraint violation of `values`; 0 when feasible w.r.t. the
  /// linear constraints and variable bounds (ignores integrality).
  [[nodiscard]] double max_violation(std::span<const double> values) const;

  /// Maximum distance from integrality over Integer/Binary variables.
  [[nodiscard]] double max_integrality_violation(
      std::span<const double> values) const;

 private:
  std::vector<VariableInfo> variables_;
  std::vector<Constraint> constraints_;
  int integer_count_ = 0;
};

}  // namespace birp::solver
