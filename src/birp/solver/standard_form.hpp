// Standard-form construction for the LP engine (simplex.cpp).
//
// The engine solves a standard form with columns ordered [structural | one
// logical per row]: the logical of row i is column n + i, with coefficient
// +1 in row i only. A <= row's logical is its slack in [0, inf); a >= row is
// flipped so its surplus becomes that +1 logical, also in [0, inf); an =
// row's logical is fixed at [0, 0] and only anchors the row's dual. This
// module builds that form — a compressed-sparse-column snapshot plus the
// starting point — from a Basis, and decodes the Basis into the column
// indices the engine factorizes. The all-logical basis (Basis::logical) is
// the identity, which is how every cold solve starts;
// RevisedSimplex::extract_basis is the matching encoder.
#pragma once

#include <span>
#include <vector>

#include "birp/solver/model.hpp"
#include "birp/solver/solution.hpp"

namespace birp::solver {

/// Standard-form snapshot: CSC matrix, bounds, starting point, and the
/// row orientation signs.
struct StandardForm {
  int rows = 0;        ///< constraints m
  int cols = 0;        ///< structural + logical columns (n + m)
  int structural = 0;  ///< model variables n

  // CSC matrix of the full standard form (row flips applied). Row indices
  // within a column are strictly increasing.
  std::vector<int> col_start;   ///< size cols + 1
  std::vector<int> row_index;   ///< size nnz
  std::vector<double> values;   ///< size nnz

  std::vector<double> rhs;      ///< size rows (flips applied)
  std::vector<double> lower;    ///< per column
  std::vector<double> upper;    ///< per column
  std::vector<VarState> state;  ///< starting state per column
  std::vector<double> value;    ///< starting value per column (nonbasic)
  std::vector<double> dual_sign;///< -1 for a flipped >= row, else +1

  /// The decoded basic column of each row of the starting Basis, in Basis
  /// row order; the engine factorizes it.
  std::vector<int> basic_cols;

  // Per-column infinity norm of the standard-form matrix: pivot tolerances
  // (basis_lu.hpp) are relative to it, because absolute cutoffs misfire
  // once coefficients leave the O(1) range.
  std::vector<double> col_scale;

  /// False when the starting basis is malformed (wrong shape, out-of-range
  /// entry, duplicate column). Basis::logical is always well formed.
  bool ok = false;

  [[nodiscard]] int column_nnz(int j) const noexcept {
    return col_start[static_cast<std::size_t>(j) + 1] -
           col_start[static_cast<std::size_t>(j)];
  }
};

/// Builds the standard form starting from `start` (a previous optimal
/// basis, or Basis::logical for a cold start). `lower_override` /
/// `upper_override` are the branch-and-bound bound overrides (empty means
/// model bounds). Check `.ok` before using the result.
[[nodiscard]] StandardForm build_standard_form(
    const Model& model, std::span<const double> lower_override,
    std::span<const double> upper_override, const Basis& start);

}  // namespace birp::solver
