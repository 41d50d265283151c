// Standard-form construction for the LP engine (simplex.cpp).
//
// The engine solves a standard form with columns ordered [structural |
// slack/surplus | artificial] and rows flipped so every initial basic
// variable has coefficient +1. This module builds that form — as a
// compressed-sparse-column snapshot plus the starting point — and decodes a
// recorded Basis into column indices (the warm build);
// RevisedSimplex::extract_basis is the matching encoder.
//
// Two build modes mirror the two solve paths:
//  - cold: Phase I start. Inequality rows whose slack absorbs the residual
//    begin with the slack basic; every other row gets an artificial.
//  - warm: rebuild a caller Basis against the current bounds. Artificials
//    exist only as fixed [0,0] dual anchors for equality rows (and rows
//    whose recorded basic column was an artificial); Phase I never runs.
#pragma once

#include <span>
#include <vector>

#include "birp/solver/model.hpp"
#include "birp/solver/solution.hpp"

namespace birp::solver {

/// Standard-form snapshot: CSC matrix, bounds, starting point, and the
/// layout bookkeeping (dual anchors, row orientation signs).
struct StandardForm {
  int rows = 0;             ///< constraints m
  int cols = 0;             ///< structural + slack + artificial columns
  int structural = 0;       ///< model variables
  int artificial_begin = 0; ///< first artificial column index

  // CSC matrix of the full standard form (row flips applied). Row indices
  // within a column are strictly increasing.
  std::vector<int> col_start;   ///< size cols + 1
  std::vector<int> row_index;   ///< size nnz
  std::vector<double> values;   ///< size nnz

  std::vector<double> rhs;      ///< size rows (flips applied)
  std::vector<double> lower;    ///< per column
  std::vector<double> upper;    ///< per column
  std::vector<VarState> state;  ///< starting state per column
  std::vector<double> value;    ///< starting value per column
  std::vector<int> basis;       ///< starting basic column per row (cold only;
                                ///< -1 per row on the warm path until the
                                ///< caller factorizes `basic_cols`)
  std::vector<int> dual_col;    ///< slack/artificial anchoring row i's dual
  std::vector<double> dual_sign;///< cumulative row flips vs model orientation
  std::vector<int> slack_row;   ///< slack/artificial column -> row (-1 else)

  /// Warm path only: the decoded basic column of each row of the caller's
  /// Basis, in Basis row order. Empty on the cold path.
  std::vector<int> basic_cols;

  // Scale statistics for relative tolerances (see simplex.hpp): per-column
  // infinity norm of the standard-form matrix and the rhs infinity norm.
  // Absolute cutoffs (1e-12 tie windows, the 1e-6 Phase-I infeasibility
  // threshold) misfire once coefficients leave the O(1) range; every
  // tolerance comparison in the engine is scaled by these.
  std::vector<double> col_scale;
  double rhs_scale = 0.0;

  /// Warm build validity: false when the recorded basis is malformed
  /// (out-of-range entry, slack of an equality row, duplicate column).
  /// The cold build is always ok.
  bool ok = false;

  [[nodiscard]] int column_nnz(int j) const noexcept {
    return col_start[static_cast<std::size_t>(j) + 1] -
           col_start[static_cast<std::size_t>(j)];
  }
};

/// Cold build: Phase I starting basis. `lower_override`/`upper_override`
/// are the branch-and-bound bound overrides (empty means model bounds).
[[nodiscard]] StandardForm build_standard_form(
    const Model& model, std::span<const double> lower_override,
    std::span<const double> upper_override);

/// Warm build from a recorded basis. Check `.ok`; when false the caller
/// must fall back to the cold path. `warm` must already shape-match.
[[nodiscard]] StandardForm build_standard_form(
    const Model& model, std::span<const double> lower_override,
    std::span<const double> upper_override, const Basis& warm);

}  // namespace birp::solver
