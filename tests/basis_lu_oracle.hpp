// Column-replacement oracle for solver::BasisLu, shared by the solver
// suites. A seeded sequence of simplex-style basis changes is applied with
// BasisLu::update, and after every change the product-form inverse is
// checked against the basis matrix itself (B·(B⁻¹x) = x, Bᵀ·(B⁻ᵀy) = y) and
// against a fresh factorize of the same basis.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "birp/solver/basis_lu.hpp"
#include "birp/solver/standard_form.hpp"
#include "birp/util/rng.hpp"

namespace birp::testutil {

/// Standard-form column `j` as a dense vector of `form.rows` entries.
inline std::vector<double> dense_column(const solver::StandardForm& form,
                                        int j) {
  std::vector<double> column(static_cast<std::size_t>(form.rows), 0.0);
  for (int p = form.col_start[static_cast<std::size_t>(j)];
       p < form.col_start[static_cast<std::size_t>(j) + 1]; ++p) {
    const auto row = static_cast<std::size_t>(
        form.row_index[static_cast<std::size_t>(p)]);
    column[row] = form.values[static_cast<std::size_t>(p)];
  }
  return column;
}

/// B·x, where column r of B is the form column basic at pivot row r.
inline std::vector<double> basis_times(const solver::StandardForm& form,
                                       std::span<const int> basis_of_row,
                                       std::span<const double> x) {
  std::vector<double> out(static_cast<std::size_t>(form.rows), 0.0);
  for (std::size_t r = 0; r < basis_of_row.size(); ++r) {
    const int j = basis_of_row[r];
    for (int p = form.col_start[static_cast<std::size_t>(j)];
         p < form.col_start[static_cast<std::size_t>(j) + 1]; ++p) {
      const auto row = static_cast<std::size_t>(
          form.row_index[static_cast<std::size_t>(p)]);
      out[row] += form.values[static_cast<std::size_t>(p)] * x[r];
    }
  }
  return out;
}

/// Bᵀ·y: entry r is the basic column of pivot row r dotted with y.
inline std::vector<double> basis_transpose_times(
    const solver::StandardForm& form, std::span<const int> basis_of_row,
    std::span<const double> y) {
  std::vector<double> out(basis_of_row.size(), 0.0);
  for (std::size_t r = 0; r < basis_of_row.size(); ++r) {
    const int j = basis_of_row[r];
    for (int p = form.col_start[static_cast<std::size_t>(j)];
         p < form.col_start[static_cast<std::size_t>(j) + 1]; ++p) {
      const auto row = static_cast<std::size_t>(
          form.row_index[static_cast<std::size_t>(p)]);
      out[r] += form.values[static_cast<std::size_t>(p)] * y[row];
    }
  }
  return out;
}

/// max_i |a_i - b_i| / max(1, max_i |b_i|).
inline double relative_gap(std::span<const double> a,
                           std::span<const double> b) {
  double gap = 0.0;
  double scale = 1.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    gap = std::max(gap, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return gap / scale;
}

/// Applies `steps` seeded column replacements to `lu`, which must already
/// factorize the basis `basis_of_row` of `form`. Each step draws a nonbasic
/// column, FTRANs it and pivots it in at the row of its largest transformed
/// entry (the largest-pivot choice keeps the sequence well conditioned); the
/// eta file is never rebuilt in between, so it grows with every step. After
/// each update, for random x and y:
///   * B·(B⁻¹x) = x and Bᵀ·(B⁻ᵀy) = y;
///   * FTRAN and BTRAN agree with a fresh factorize of the same basis, whose
///     pivot rows may be a permutation of the updated ones;
/// all to `tol` relative. Returns the number of updates applied.
inline int check_column_replacements(const solver::StandardForm& form,
                                     solver::BasisLu& lu,
                                     std::vector<int>& basis_of_row,
                                     std::uint64_t seed, int steps,
                                     double tol = 1e-9) {
  const int m = form.rows;
  const auto rows = static_cast<std::size_t>(m);
  util::Xoshiro256StarStar rng(seed);
  std::vector<char> basic(static_cast<std::size_t>(form.cols), 0);
  for (const int j : basis_of_row) basic[static_cast<std::size_t>(j)] = 1;
  const auto random_vector = [&] {
    std::vector<double> v(rows);
    for (auto& e : v) e = rng.uniform(-1.0, 1.0);
    return v;
  };

  int applied = 0;
  for (int step = 0; step < steps; ++step) {
    // Entering column: a nonbasic one whose transformed column is nonzero.
    int enter = -1;
    std::vector<double> alpha;
    for (int tries = 0; tries < 4 * form.cols && enter < 0; ++tries) {
      const auto j = static_cast<int>(rng.uniform_int(0, form.cols - 1));
      if (basic[static_cast<std::size_t>(j)] != 0) continue;
      alpha = dense_column(form, j);
      lu.ftran(alpha);
      if (std::any_of(alpha.begin(), alpha.end(),
                      [](double a) { return std::abs(a) > 1e-6; })) {
        enter = j;
      }
    }
    if (enter < 0) break;  // every nonbasic column is dependent on B
    int pivot_row = 0;
    for (int r = 1; r < m; ++r) {
      if (std::abs(alpha[static_cast<std::size_t>(r)]) >
          std::abs(alpha[static_cast<std::size_t>(pivot_row)])) {
        pivot_row = r;
      }
    }
    EXPECT_TRUE(lu.update(alpha, pivot_row)) << "step " << step;
    basic[static_cast<std::size_t>(
        basis_of_row[static_cast<std::size_t>(pivot_row)])] = 0;
    basic[static_cast<std::size_t>(enter)] = 1;
    basis_of_row[static_cast<std::size_t>(pivot_row)] = enter;
    ++applied;

    // B·(B⁻¹x) = x and Bᵀ·(B⁻ᵀy) = y.
    const auto x = random_vector();
    auto solved = x;
    lu.ftran(solved);
    EXPECT_LE(relative_gap(basis_times(form, basis_of_row, solved), x), tol)
        << "FTRAN residual after step " << step;
    const auto y = random_vector();
    auto duals = y;
    lu.btran(duals);
    EXPECT_LE(
        relative_gap(basis_transpose_times(form, basis_of_row, duals), y), tol)
        << "BTRAN residual after step " << step;

    // The same solves through a fresh factorization of the same basis.
    solver::BasisLu fresh;
    std::vector<int> fresh_rows;
    const bool factorized = fresh.factorize(form, basis_of_row, fresh_rows);
    EXPECT_TRUE(factorized) << "step " << step;
    if (!factorized) return applied;
    std::vector<std::size_t> fresh_row_of(static_cast<std::size_t>(form.cols));
    for (std::size_t s = 0; s < rows; ++s) {
      fresh_row_of[static_cast<std::size_t>(fresh_rows[s])] = s;
    }
    auto fresh_solved = x;
    fresh.ftran(fresh_solved);
    std::vector<double> fresh_in_updated_order(rows);
    std::vector<double> y_in_fresh_order(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t s =
          fresh_row_of[static_cast<std::size_t>(basis_of_row[r])];
      fresh_in_updated_order[r] = fresh_solved[s];
      y_in_fresh_order[s] = y[r];
    }
    EXPECT_LE(relative_gap(solved, fresh_in_updated_order), tol)
        << "FTRAN vs fresh factorization after step " << step;
    fresh.btran(y_in_fresh_order);
    EXPECT_LE(relative_gap(duals, y_in_fresh_order), tol)
        << "BTRAN vs fresh factorization after step " << step;
  }
  return applied;
}

}  // namespace birp::testutil
