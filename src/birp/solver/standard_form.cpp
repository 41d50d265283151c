#include "birp/solver/standard_form.hpp"

#include <algorithm>
#include <cmath>

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

  // Coefficients, in one pass over the rows. Model::add_constraint sorts
  // each constraint's terms by variable, merges duplicates and drops zero
  // sums, so a constraint is a CSR row as it stands. A >= row is flipped so
  // its surplus logical has coefficient +1; dual_sign remembers the flip so
  // duals can be reported against the model's orientation. An = row's
  // logical is fixed at zero. The same pass counts each column's entries.
  std::size_t nnz = 0;
  for (const auto& constraint : model.constraints()) {
    nnz += constraint.terms.size();
  }
  form.row_start.resize(static_cast<std::size_t>(m) + 1);
  form.row_col.resize(nnz);
  form.row_values.resize(nnz);
  form.col_start.assign(cols + 1, 0);
  std::size_t p = 0;
  for (int i = 0; i < m; ++i) {
    const auto& constraint = model.constraint(i);
    const double sign =
        constraint.relation == Relation::GreaterEqual ? -1.0 : 1.0;
    form.row_start[static_cast<std::size_t>(i)] = static_cast<int>(p);
    for (const auto& term : constraint.terms) {
      form.row_col[p] = term.var;
      form.row_values[p] = sign * term.coeff;
      ++p;
      ++form.col_start[static_cast<std::size_t>(term.var) + 1];
    }
    form.col_start[static_cast<std::size_t>(n + i) + 1] = 1;
    form.rhs[static_cast<std::size_t>(i)] = sign * constraint.rhs;
    form.dual_sign[static_cast<std::size_t>(i)] = sign;
    if (constraint.relation == Relation::Equal) {
      form.upper[static_cast<std::size_t>(n + i)] = 0.0;
    }
  }
  form.row_start[static_cast<std::size_t>(m)] = static_cast<int>(p);

  // CSC arrays by counting: scattering the rows in ascending order keeps
  // each column's row indices increasing. Per-column infinity norms; each
  // logical is a unit column.
  for (std::size_t j = 0; j < cols; ++j) {
    form.col_start[j + 1] += form.col_start[j];
  }
  form.row_index.resize(nnz + static_cast<std::size_t>(m));
  form.values.resize(nnz + static_cast<std::size_t>(m));
  form.col_scale.assign(cols, 1.0);
  std::fill_n(form.col_scale.begin(), n, 0.0);
  std::vector<int> next(form.col_start.begin(), form.col_start.begin() + n);
  for (int i = 0; i < m; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    for (auto q = static_cast<std::size_t>(form.row_start[ii]);
         q < static_cast<std::size_t>(form.row_start[ii + 1]); ++q) {
      const auto j = static_cast<std::size_t>(form.row_col[q]);
      const double coeff = form.row_values[q];
      const auto at = static_cast<std::size_t>(next[j]++);
      form.row_index[at] = i;
      form.values[at] = coeff;
      form.col_scale[j] = std::max(form.col_scale[j], std::abs(coeff));
    }
    form.row_index[nnz + ii] = i;  // the logical n + i
    form.values[nnz + ii] = 1.0;
  }

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
