// Product-form LU factorization of a simplex basis over sparse columns.
//
// The basis inverse is represented as a product of elimination etas,
//   B^{-1} = E_k^{-1} · ... · E_1^{-1},
// where each eta records one Gauss–Jordan elimination step (the pivot row,
// the inverse pivot, and the off-pivot column entries). `factorize` builds
// the file from scratch with threshold partial pivoting over the basic
// columns (processed sparsest-first so slack/artificial singletons cost
// nothing and structural columns meet a mostly-triangular prefix);
// `update` appends one eta per simplex pivot (the product-form flavour of
// the Forrest–Tomlin update, exact for the same reason: the new basis
// differs from the old by one column, and the appended eta is precisely the
// elimination that maps the FTRANed entering column to a unit vector).
//
// FTRAN applies the file in creation order (x := B^{-1} x, used for the
// transformed entering column and for basic-value recomputation); BTRAN
// applies the transposed etas in reverse (y := B^{-T} y, used for duals and
// pricing). `should_refactorize` triggers a rebuild when the eta file has
// grown past the point where a fresh factorization is cheaper than dragging
// the file through every solve: after kRefactorInterval updates, or earlier
// once the update etas' fill outgrows the factorization's. Eta growth is
// also where numerical drift accumulates, so the trigger doubles as the
// drift bound.
//
// A BasisLu is a plain value: copying it copies the eta file, update count
// included, which is how a branch-and-bound child inherits its parent's
// factorization instead of rebuilding it (see lp_engine.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "birp/solver/standard_form.hpp"

namespace birp::solver {

/// Minimum magnitude accepted for a pivot element, relative to the
/// transformed column's (or pivot row's) infinity norm. The LU below and the
/// simplex ratio tests (simplex.cpp) share it.
inline constexpr double kPivotTolerance = 1e-9;

/// Eta updates appended before the basis is refactorized from scratch.
inline constexpr int kRefactorInterval = 96;

class BasisLu {
 public:
  /// Resets to the identity basis of `rows` rows (the cold Phase I start:
  /// every initial basic column is a unit vector after the row flips).
  void reset_identity(int rows);

  /// Factorizes the basis {basic_cols} from scratch. On success fills
  /// `basis_of_row` (basic column per pivot row) and returns true; on a
  /// numerically singular basis returns false with the eliminations spent
  /// so far still counted in factor_pivots(). Pivots are chosen by
  /// threshold partial pivoting (basis_lu.cpp, kLuPivotThreshold; ties break
  /// to the smallest row index, deterministically).
  [[nodiscard]] bool factorize(const StandardForm& form,
                               std::span<const int> basic_cols,
                               std::vector<int>& basis_of_row);

  /// x := B^{-1} x (dense scratch, size rows).
  void ftran(std::span<double> x) const;

  /// y := B^{-T} y (dense scratch, size rows).
  void btran(std::span<double> y) const;

  /// Appends the product-form eta for a pivot at `pivot_row` on the
  /// FTRANed entering column `alpha`. Returns false (leaving the file
  /// unchanged) when the pivot element is too small relative to the
  /// column's magnitude; the caller should refactorize instead.
  [[nodiscard]] bool update(std::span<const double> alpha, int pivot_row);

  /// Eta-file growth trigger: true once kRefactorInterval updates have been
  /// appended since the last factorization, or the update etas' fill
  /// exceeds twice the factorization's own size.
  [[nodiscard]] bool should_refactorize() const noexcept {
    return updates_since_factor_ >= kRefactorInterval ||
           update_nnz_ > 2 * (factor_nnz_ + static_cast<std::int64_t>(rows_));
  }

  [[nodiscard]] int rows() const noexcept { return rows_; }
  [[nodiscard]] std::int64_t factor_pivots() const noexcept {
    return factor_pivots_;
  }
  /// The eliminations among factor_pivots() that took the general path (an
  /// FTRAN through the eta file plus an appended eta); the rest are
  /// singleton columns pivoted in place at no solve cost.
  [[nodiscard]] std::int64_t structural_factor_pivots() const noexcept {
    return structural_factor_pivots_;
  }

  /// Zeroes the elimination counters, keeping the eta file and its update
  /// count. A copy inherited from a parent LP starts its own tally here, so
  /// its factor_pivots() reports only the eliminations it spends itself.
  void clear_factor_pivots() noexcept {
    factor_pivots_ = 0;
    structural_factor_pivots_ = 0;
  }

 private:
  struct Eta {
    int pivot_row = -1;
    double inv_pivot = 0.0;
    int begin = 0;  ///< range into entry_row_/entry_value_ (pivot excluded)
    int end = 0;
  };

  void append_eta(std::span<const double> column, int pivot_row);
  /// Factorization-only FTRAN over `work_` that records every row the eta
  /// file fills in (so the scatter/scan/clear cost of one column is O(its
  /// transformed fill), not O(rows)).
  void ftran_tracked();

  int rows_ = 0;
  std::vector<Eta> etas_;
  std::vector<int> entry_row_;
  std::vector<double> entry_value_;
  std::vector<double> work_;    ///< factorization scratch, size rows
  std::vector<int> touched_;    ///< rows of work_ currently nonzero
  std::vector<char> in_touched_;  ///< membership bitmap for touched_

  int updates_since_factor_ = 0;
  std::int64_t factor_nnz_ = 0;
  std::int64_t update_nnz_ = 0;
  std::int64_t factor_pivots_ = 0;  ///< cumulative eliminations (all factorizes)
  std::int64_t structural_factor_pivots_ = 0;  ///< general-path share of them
};

}  // namespace birp::solver
