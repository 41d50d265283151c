#include "birp/solver/model.hpp"

#include <algorithm>
#include <cmath>

#include "birp/util/check.hpp"

namespace birp::solver {

int Model::add_variable(double lower, double upper, VarType type) {
  util::check(std::isfinite(lower), "variable lower bound must be finite");
  util::check(lower <= upper, "variable bounds crossed");
  if (type == VarType::Binary) {
    util::check(lower >= 0.0 && upper <= 1.0, "binary bounds outside [0,1]");
  }
  VariableInfo info;
  info.lower = lower;
  info.upper = upper;
  info.type = type;
  variables_.push_back(info);
  if (type != VarType::Continuous) ++integer_count_;
  return static_cast<int>(variables_.size()) - 1;
}

void Model::set_objective(int var, double coeff) {
  util::check(var >= 0 && var < num_variables(), "set_objective: bad index");
  variables_[static_cast<std::size_t>(var)].objective = coeff;
}

int Model::add_constraint(std::span<const Term> terms, Relation relation,
                          double rhs) {
  util::check(std::isfinite(rhs), "constraint rhs must be finite");
  for (const auto& term : terms) {
    util::check(term.var >= 0 && term.var < num_variables(),
                "constraint references unknown variable");
    util::check(std::isfinite(term.coeff), "constraint coeff must be finite");
  }
  // Combine duplicate variables so the simplex sees each column once per row:
  // the stable sort keeps duplicates in input order, so each sum adds them in
  // that order.
  std::vector<Term> sorted(terms.begin(), terms.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Term& a, const Term& b) { return a.var < b.var; });
  Constraint constraint;
  constraint.relation = relation;
  constraint.rhs = rhs;
  for (std::size_t t = 0; t < sorted.size();) {
    Term combined = sorted[t];
    for (++t; t < sorted.size() && sorted[t].var == combined.var; ++t) {
      combined.coeff += sorted[t].coeff;
    }
    if (combined.coeff != 0.0) constraint.terms.push_back(combined);
  }
  constraints_.push_back(std::move(constraint));
  return static_cast<int>(constraints_.size()) - 1;
}

int Model::add_constraint(std::initializer_list<Term> terms, Relation relation,
                          double rhs) {
  return add_constraint(std::span<const Term>(terms.begin(), terms.size()),
                        relation, rhs);
}

const VariableInfo& Model::variable(int index) const {
  util::check(index >= 0 && index < num_variables(), "variable: bad index");
  return variables_[static_cast<std::size_t>(index)];
}

const Constraint& Model::constraint(int index) const {
  util::check(index >= 0 && index < num_constraints(), "constraint: bad index");
  return constraints_[static_cast<std::size_t>(index)];
}

double Model::objective_value(std::span<const double> values) const {
  util::check(values.size() == variables_.size(),
              "objective_value: size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    total += variables_[i].objective * values[i];
  }
  return total;
}

double Model::max_violation(std::span<const double> values) const {
  util::check(values.size() == variables_.size(), "max_violation: size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    worst = std::max(worst, variables_[i].lower - values[i]);
    if (std::isfinite(variables_[i].upper)) {
      worst = std::max(worst, values[i] - variables_[i].upper);
    }
  }
  for (const auto& constraint : constraints_) {
    double lhs = 0.0;
    for (const auto& term : constraint.terms) {
      lhs += term.coeff * values[static_cast<std::size_t>(term.var)];
    }
    switch (constraint.relation) {
      case Relation::LessEqual:
        worst = std::max(worst, lhs - constraint.rhs);
        break;
      case Relation::GreaterEqual:
        worst = std::max(worst, constraint.rhs - lhs);
        break;
      case Relation::Equal:
        worst = std::max(worst, std::abs(lhs - constraint.rhs));
        break;
    }
  }
  return worst;
}

double Model::max_integrality_violation(std::span<const double> values) const {
  util::check(values.size() == variables_.size(),
              "max_integrality_violation: size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    if (variables_[i].type == VarType::Continuous) continue;
    const double v = values[i];
    worst = std::max(worst, std::abs(v - std::round(v)));
  }
  return worst;
}

}  // namespace birp::solver
