// Standard-form construction for the LP engine (simplex.cpp).
//
// The engine solves a standard form with columns ordered [structural | one
// logical per row]: the logical of row i is column n + i, with coefficient
// +1 in row i only. A <= row's logical is its slack in [0, inf); a >= row is
// flipped so its surplus becomes that +1 logical, also in [0, inf); an =
// row's logical is fixed at [0, 0] and only anchors the row's dual. This
// module builds that form — the matrix twice, compressed by column (CSC, for
// the factorization, FTRAN loads and dense-dual pricing) and, for its
// structural part, by row (CSR, for the dual repair's pivot row), plus the
// starting point — from a Basis, and decodes the Basis into the column
// indices the engine factorizes. The all-logical basis (Basis::logical) is
// the identity, which is how every cold solve starts;
// RevisedSimplex::extract_basis is the matching encoder. pivot_row forms
// the row rho^T A from the CSR copy over rho's nonzeros only.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "birp/solver/model.hpp"
#include "birp/solver/solution.hpp"

namespace birp::solver {

/// Standard-form snapshot: CSC matrix and CSR copy of its structural part,
/// bounds, starting point, and the row orientation signs.
struct StandardForm {
  int rows = 0;        ///< constraints m
  int cols = 0;        ///< structural + logical columns (n + m)
  int structural = 0;  ///< model variables n

  // CSC matrix of the full standard form (row flips applied). Row indices
  // within a column are strictly increasing.
  std::vector<int> col_start;   ///< size cols + 1
  std::vector<int> row_index;   ///< size nnz
  std::vector<double> values;   ///< size nnz

  // CSR copy of the structural columns: the same entries with the same
  // value bits, column indices within a row strictly increasing. The
  // logicals are left out; column n + i is e_i.
  std::vector<int> row_start;      ///< size rows + 1
  std::vector<int> row_col;        ///< size structural nnz
  std::vector<double> row_values;  ///< size structural nnz

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

/// The pivot row alpha = rho^T A, formed row by row over the rows where
/// rho_i != 0, in ascending row order, so its cost follows rho's nonzeros.
/// On entry `alpha` (size cols) is zero and `reached` (one bit per column,
/// (cols + 63) / 64 words) is clear. Each alpha_j gets the bits of the
/// column dot sum_p values[p] * rho[row_index[p]] over the CSC arrays: that
/// sum starts at +0 and so is never -0, and the +-0 products of the rows
/// skipped here leave it unchanged (A is finite). Then `visit(j)` runs for
/// every column reached — exactly those with a nonzero in a row where
/// rho_i != 0, the logical n + i included — in ascending order, and
/// `reached` is left clear; alpha_j is +0 at every other column. Returns
/// ||rho||^2, summed in ascending row order.
template <class Visit>
double pivot_row(const StandardForm& form, std::span<const double> rho,
                 std::span<double> alpha, std::span<std::uint64_t> reached,
                 Visit&& visit) {
  const auto mark = [&](int j) {
    reached[static_cast<std::size_t>(j) >> 6] |= std::uint64_t{1} << (j & 63);
  };
  double rho_norm2 = 0.0;
  for (int i = 0; i < form.rows; ++i) {
    const double r = rho[static_cast<std::size_t>(i)];
    if (r == 0.0) continue;
    rho_norm2 += r * r;
    for (int p = form.row_start[static_cast<std::size_t>(i)];
         p < form.row_start[static_cast<std::size_t>(i) + 1]; ++p) {
      const int j = form.row_col[static_cast<std::size_t>(p)];
      alpha[static_cast<std::size_t>(j)] +=
          form.row_values[static_cast<std::size_t>(p)] * r;
      mark(j);
    }
    alpha[static_cast<std::size_t>(form.structural + i)] = r;
    mark(form.structural + i);
  }
  for (std::size_t w = 0; w < reached.size(); ++w) {
    for (std::uint64_t bits = reached[w]; bits != 0; bits &= bits - 1) {
      visit(static_cast<int>(w * 64 + static_cast<std::size_t>(
                                           std::countr_zero(bits))));
    }
    reached[w] = 0;
  }
  return rho_norm2;
}

}  // namespace birp::solver
