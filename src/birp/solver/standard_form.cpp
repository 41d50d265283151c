#include "birp/solver/standard_form.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "birp/util/check.hpp"

namespace birp::solver {

StandardForm build_standard_form(const Model& model,
                                 std::span<const double> lower_override,
                                 std::span<const double> upper_override,
                                 const Basis& start) {
  StandardForm form;
  const int m = model.num_constraints();
  const int n = model.num_variables();
  form.rows = m;
  form.structural = n;
  if (!start.matches(n, m)) return form;  // ok stays false
  form.cols = n + m;
  const auto cols = static_cast<std::size_t>(form.cols);
  form.rhs.assign(static_cast<std::size_t>(m), 0.0);
  form.lower.assign(cols, 0.0);
  form.upper.assign(cols, kInfinity);
  form.state.assign(cols, VarState::AtLower);
  form.value.assign(cols, 0.0);
  form.dual_sign.assign(static_cast<std::size_t>(m), 1.0);

  // Structural bounds (with branch-and-bound overrides) and the recorded
  // nonbasic states (the basic list below overrides). A variable recorded
  // AtUpper whose current upper bound is infinite rests at its lower bound.
  for (int j = 0; j < n; ++j) {
    const auto jj = static_cast<std::size_t>(j);
    const double lo =
        lower_override.empty() ? model.variable(j).lower : lower_override[jj];
    const double hi =
        upper_override.empty() ? model.variable(j).upper : upper_override[jj];
    util::check(std::isfinite(lo), "simplex requires finite lower bounds");
    form.lower[jj] = lo;
    form.upper[jj] = hi;
    const bool at_upper =
        start.structural[jj] == VarState::AtUpper && std::isfinite(hi);
    form.state[jj] = at_upper ? VarState::AtUpper : VarState::AtLower;
    form.value[jj] = at_upper ? hi : lo;
  }

  // Coefficients: a >= row is flipped so its surplus logical has
  // coefficient +1; dual_sign remembers the flip so duals can be reported
  // against the model's orientation. An = row's logical is fixed at zero.
  std::vector<std::vector<std::pair<int, double>>> columns(
      static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    const auto& constraint = model.constraint(i);
    const double sign =
        constraint.relation == Relation::GreaterEqual ? -1.0 : 1.0;
    for (const auto& term : constraint.terms) {
      if (term.coeff == 0.0) continue;
      columns[static_cast<std::size_t>(term.var)].emplace_back(
          i, sign * term.coeff);
    }
    form.rhs[static_cast<std::size_t>(i)] = sign * constraint.rhs;
    form.dual_sign[static_cast<std::size_t>(i)] = sign;
    if (constraint.relation == Relation::Equal) {
      form.upper[static_cast<std::size_t>(n + i)] = 0.0;
    }
  }

  // CSC arrays and per-column infinity norms; each logical is a unit column.
  std::size_t nnz = static_cast<std::size_t>(m);
  for (const auto& column : columns) nnz += column.size();
  form.col_start.reserve(cols + 1);
  form.row_index.reserve(nnz);
  form.values.reserve(nnz);
  form.col_scale.assign(cols, 1.0);
  for (int j = 0; j < form.cols; ++j) {
    form.col_start.push_back(static_cast<int>(form.row_index.size()));
    if (j >= n) {
      form.row_index.push_back(j - n);
      form.values.push_back(1.0);
      continue;
    }
    double scale = 0.0;
    for (const auto& [row, coeff] : columns[static_cast<std::size_t>(j)]) {
      form.row_index.push_back(row);
      form.values.push_back(coeff);
      scale = std::max(scale, std::abs(coeff));
    }
    form.col_scale[static_cast<std::size_t>(j)] = scale;
  }
  form.col_start.push_back(static_cast<int>(form.row_index.size()));

  // Decode the basic column list; reject out-of-range entries and
  // duplicates.
  form.basic_cols.assign(static_cast<std::size_t>(m), -1);
  for (int i = 0; i < m; ++i) {
    const int col = start.basic[static_cast<std::size_t>(i)];
    if (col < 0 || col >= form.cols ||
        form.state[static_cast<std::size_t>(col)] == VarState::Basic) {
      return form;  // ok stays false
    }
    form.state[static_cast<std::size_t>(col)] = VarState::Basic;
    form.basic_cols[static_cast<std::size_t>(i)] = col;
  }
  form.ok = true;
  return form;
}

}  // namespace birp::solver
