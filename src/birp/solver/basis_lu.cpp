#include "birp/solver/basis_lu.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace birp::solver {
namespace {

/// Threshold partial pivoting acceptance: a row is an eligible pivot when it
/// reaches this fraction of the column maximum.
constexpr double kLuPivotThreshold = 0.1;

}  // namespace

void BasisLu::reset_identity(int rows) {
  rows_ = rows;
  etas_.clear();
  entry_row_.clear();
  entry_value_.clear();
  work_.assign(static_cast<std::size_t>(rows), 0.0);
  updates_since_factor_ = 0;
  factor_nnz_ = 0;
  update_nnz_ = 0;
}

void BasisLu::append_eta(std::span<const double> column, int pivot_row) {
  Eta eta;
  eta.pivot_row = pivot_row;
  eta.inv_pivot = 1.0 / column[static_cast<std::size_t>(pivot_row)];
  eta.begin = static_cast<int>(entry_row_.size());
  for (int i = 0; i < rows_; ++i) {
    if (i == pivot_row) continue;
    const double v = column[static_cast<std::size_t>(i)];
    if (v == 0.0) continue;
    entry_row_.push_back(i);
    entry_value_.push_back(v);
  }
  eta.end = static_cast<int>(entry_row_.size());
  etas_.push_back(eta);
}

bool BasisLu::factorize(const StandardForm& form,
                        std::span<const int> basic_cols,
                        std::vector<int>& basis_of_row) {
  reset_identity(form.rows);
  basis_of_row.assign(static_cast<std::size_t>(rows_), -1);

  // Sparsest-first column order: slack/artificial singletons become trivial
  // etas and leave the structural columns a mostly-eliminated tail. Ties
  // break by position so the elimination order — and therefore the floating
  // point result — is deterministic.
  std::vector<int> order(basic_cols.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return form.column_nnz(basic_cols[static_cast<std::size_t>(a)]) <
           form.column_nnz(basic_cols[static_cast<std::size_t>(b)]);
  });

  in_touched_.assign(static_cast<std::size_t>(rows_), 0);
  touched_.clear();
  const auto clear_touched = [&] {
    for (const int i : touched_) {
      work_[static_cast<std::size_t>(i)] = 0.0;
      in_touched_[static_cast<std::size_t>(i)] = 0;
    }
    touched_.clear();
  };

  std::vector<char> row_used(static_cast<std::size_t>(rows_), 0);
  for (const int idx : order) {
    const int col = basic_cols[static_cast<std::size_t>(idx)];
    const int begin = form.col_start[static_cast<std::size_t>(col)];
    const int end = form.col_start[static_cast<std::size_t>(col) + 1];

    // Fast path for the singleton columns (slacks / artificials) that make
    // up the bulk of any BIRP basis. A singleton at a still-unused row is
    // untouched by the eta file built so far (every eta's pivot row is a
    // used row, and only a pivot-row hit spreads), so it pivots at its own
    // row without any FTRAN — and a +1 entry is the identity elimination,
    // so it appends no eta at all. This keeps a refactorization's cost
    // proportional to the structural columns' fill, not rows * basis size.
    if (end - begin == 1) {
      const int row = form.row_index[static_cast<std::size_t>(begin)];
      if (!row_used[static_cast<std::size_t>(row)]) {
        const double v = form.values[static_cast<std::size_t>(begin)];
        if (v == 0.0) return false;  // structurally empty column
        if (v != 1.0) {
          Eta eta;
          eta.pivot_row = row;
          eta.inv_pivot = 1.0 / v;
          eta.begin = eta.end = static_cast<int>(entry_row_.size());
          etas_.push_back(eta);
        }
        ++factor_pivots_;
        row_used[static_cast<std::size_t>(row)] = 1;
        basis_of_row[static_cast<std::size_t>(row)] = col;
        continue;
      }
    }

    // General path: scatter the column and run it through the eta file,
    // tracking the rows it fills in. Sorting the touched set keeps the
    // pivot scan and the stored entry order identical to a dense sweep,
    // so the elimination is bit-for-bit the same as before.
    for (int p = begin; p < end; ++p) {
      const int row = form.row_index[static_cast<std::size_t>(p)];
      work_[static_cast<std::size_t>(row)] =
          form.values[static_cast<std::size_t>(p)];
      if (!in_touched_[static_cast<std::size_t>(row)]) {
        in_touched_[static_cast<std::size_t>(row)] = 1;
        touched_.push_back(row);
      }
    }
    ftran_tracked();
    std::sort(touched_.begin(), touched_.end());

    // Threshold partial pivoting over the rows not yet claimed: eligible
    // rows reach kLuPivotThreshold of the column max; the smallest eligible
    // row index wins (deterministic, sparsity-neutral). Singularity is judged
    // relative to the transformed column's overall magnitude (and the raw
    // column norm, so full cancellation of an O(1) column is still caught)
    // rather than an absolute cutoff, so uniformly tiny columns factorize.
    double col_max = 0.0;
    double total_max = 0.0;
    for (const int i : touched_) {
      const double a = std::abs(work_[static_cast<std::size_t>(i)]);
      total_max = std::max(total_max, a);
      if (row_used[static_cast<std::size_t>(i)]) continue;
      col_max = std::max(col_max, a);
    }
    const double ref =
        std::max(total_max, form.col_scale[static_cast<std::size_t>(col)]);
    if (col_max <= kPivotTolerance * ref) {  // numerically singular
      clear_touched();
      return false;
    }
    int pivot_row = -1;
    for (const int i : touched_) {
      if (row_used[static_cast<std::size_t>(i)]) continue;
      if (std::abs(work_[static_cast<std::size_t>(i)]) >=
          kLuPivotThreshold * col_max) {
        pivot_row = i;
        break;
      }
    }

    Eta eta;
    eta.pivot_row = pivot_row;
    eta.inv_pivot = 1.0 / work_[static_cast<std::size_t>(pivot_row)];
    eta.begin = static_cast<int>(entry_row_.size());
    for (const int i : touched_) {
      if (i == pivot_row) continue;
      const double v = work_[static_cast<std::size_t>(i)];
      if (v == 0.0) continue;
      entry_row_.push_back(i);
      entry_value_.push_back(v);
    }
    eta.end = static_cast<int>(entry_row_.size());
    etas_.push_back(eta);
    ++factor_pivots_;
    ++structural_factor_pivots_;
    row_used[static_cast<std::size_t>(pivot_row)] = 1;
    basis_of_row[static_cast<std::size_t>(pivot_row)] = col;
    clear_touched();
  }
  factor_nnz_ = static_cast<std::int64_t>(entry_row_.size());
  return true;
}

void BasisLu::ftran_tracked() {
  for (const Eta& eta : etas_) {
    const double pivot_value =
        work_[static_cast<std::size_t>(eta.pivot_row)] * eta.inv_pivot;
    if (pivot_value == 0.0) continue;  // zero stays zero: nothing spreads
    work_[static_cast<std::size_t>(eta.pivot_row)] = pivot_value;
    for (int p = eta.begin; p < eta.end; ++p) {
      const int row = entry_row_[static_cast<std::size_t>(p)];
      work_[static_cast<std::size_t>(row)] -=
          entry_value_[static_cast<std::size_t>(p)] * pivot_value;
      if (!in_touched_[static_cast<std::size_t>(row)]) {
        in_touched_[static_cast<std::size_t>(row)] = 1;
        touched_.push_back(row);
      }
    }
  }
}

void BasisLu::ftran(std::span<double> x) const {
  for (const Eta& eta : etas_) {
    const double pivot_value =
        x[static_cast<std::size_t>(eta.pivot_row)] * eta.inv_pivot;
    x[static_cast<std::size_t>(eta.pivot_row)] = pivot_value;
    if (pivot_value == 0.0) continue;
    for (int p = eta.begin; p < eta.end; ++p) {
      x[static_cast<std::size_t>(entry_row_[static_cast<std::size_t>(p)])] -=
          entry_value_[static_cast<std::size_t>(p)] * pivot_value;
    }
  }
}

void BasisLu::btran(std::span<double> y) const {
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const Eta& eta = *it;
    double accum = y[static_cast<std::size_t>(eta.pivot_row)];
    for (int p = eta.begin; p < eta.end; ++p) {
      accum -= entry_value_[static_cast<std::size_t>(p)] *
               y[static_cast<std::size_t>(entry_row_[static_cast<std::size_t>(p)])];
    }
    y[static_cast<std::size_t>(eta.pivot_row)] = accum * eta.inv_pivot;
  }
}

bool BasisLu::update(std::span<const double> alpha, int pivot_row) {
  double col_max = 0.0;
  for (int i = 0; i < rows_; ++i) {
    col_max = std::max(col_max, std::abs(alpha[static_cast<std::size_t>(i)]));
  }
  const double pivot = alpha[static_cast<std::size_t>(pivot_row)];
  if (std::abs(pivot) <= kPivotTolerance * col_max) {
    return false;  // relatively too small to divide by: refactorize instead
  }
  const auto before = static_cast<std::int64_t>(entry_row_.size());
  append_eta(alpha, pivot_row);
  update_nnz_ += static_cast<std::int64_t>(entry_row_.size()) - before;
  ++updates_since_factor_;
  return true;
}

}  // namespace birp::solver
