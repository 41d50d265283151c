#include "birp/solver/basis_lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace birp::solver {
namespace {

/// Threshold pivoting acceptance: a nucleus entry is an eligible pivot when
/// it reaches this fraction of its column's largest active entry.
constexpr double kLuPivotThreshold = 0.1;

/// An elimination result this small relative to its operands is
/// cancellation noise: the entry is dropped instead of stored.
constexpr double kDropTolerance = 1e-14;

/// The same for a spike entry U·alpha relative to the magnitude of its
/// terms, which carry alpha's FTRAN rounding as well.
constexpr double kSpikeDropTolerance = 1e-12;

/// A Forrest–Tomlin update is accepted only when the new diagonal matches
/// its exact value alpha_r · u_rr to this relative tolerance.
constexpr double kUpdateTolerance = 1e-6;

/// Columns a Markowitz search examines, sparsest first, unless it finds a
/// zero-cost pivot sooner (Zlatev's limited search).
constexpr int kMarkowitzColumns = 4;

/// Free slots each list gets when it is laid out, for the entries that
/// eliminations and updates add to it.
constexpr int kSlack = 2;

constexpr std::size_t at(int i) { return static_cast<std::size_t>(i); }

/// sum over p in [begin, end) of value[p] * x[index[p]], accumulated in
/// two lanes (even and odd p). The summation order is part of the solver's
/// pinned arithmetic: a single accumulator rounds differently and moves the
/// pinned pivot path and decision digests (tests/solver_warm_test.cpp,
/// tests/chaos_test.cpp).
double sparse_dot(const std::vector<int>& index,
                  const std::vector<double>& value, int begin, int end,
                  std::span<const double> x) {
  double even = 0.0;
  double odd = 0.0;
  int p = begin;
  for (; p + 1 < end; p += 2) {
    even += value[at(p)] * x[at(index[at(p)])];
    odd += value[at(p + 1)] * x[at(index[at(p + 1)])];
  }
  if (p < end) even += value[at(p)] * x[at(index[at(p)])];
  return even + odd;
}

}  // namespace

// ------------------------------------------------------- SparseLists ----

void BasisLu::SparseLists::reset(int lists, int pool) {
  slots.assign(at(lists), Slot{});
  used = 0;
  nnz = 0;
  reserve(pool);
}

void BasisLu::SparseLists::reserve(int size) {
  if (at(size) <= index.size()) return;
  index.resize(at(size));
  value.resize(at(size));
}

void BasisLu::SparseLists::make_room(int capacity) {
  // Squeeze out the slots that moved lists left behind (each list keeps its
  // capacity); grow only if that is not enough, then to twice the need.
  spare_index.resize(index.size());
  spare_value.resize(value.size());
  int pos = 0;
  for (Slot& slot : slots) {
    std::copy_n(index.begin() + slot.start, slot.len,
                spare_index.begin() + pos);
    std::copy_n(value.begin() + slot.start, slot.len,
                spare_value.begin() + pos);
    slot.start = pos;
    pos += slot.cap;
  }
  std::copy_n(spare_index.begin(), pos, index.begin());
  std::copy_n(spare_value.begin(), pos, value.begin());
  used = pos;
  if (used + capacity > static_cast<int>(index.size())) {
    reserve(2 * (used + capacity));
  }
}

void BasisLu::SparseLists::open(int list, int capacity) {
  if (used + capacity > static_cast<int>(index.size())) make_room(capacity);
  slots[at(list)] = Slot{used, 0, capacity};
  used += capacity;
}

void BasisLu::SparseLists::grow(int list) {
  Slot* slot = &slots[at(list)];
  const int capacity = 2 * slot->len + 4;
  if (slot->start + slot->cap == used &&
      slot->start + capacity <= static_cast<int>(index.size())) {
    used = slot->start + capacity;  // last list in the pool: grow in place
  } else {
    if (used + capacity > static_cast<int>(index.size())) {
      make_room(capacity);
      slot = &slots[at(list)];
    }
    std::copy_n(index.begin() + slot->start, slot->len, index.begin() + used);
    std::copy_n(value.begin() + slot->start, slot->len, value.begin() + used);
    slot->start = used;
    used += capacity;
  }
  slot->cap = capacity;
}

void BasisLu::SparseLists::erase(int list, int pos) {
  Slot& slot = slots[at(list)];
  const std::size_t last = at(slot.start + --slot.len);
  index[at(pos)] = index[last];
  value[at(pos)] = value[last];
  --nnz;
}

void BasisLu::SparseLists::clear(int list) {
  nnz -= slots[at(list)].len;
  slots[at(list)].len = 0;
}

int BasisLu::SparseLists::find(int list, int idx) const {
  for (int p = begin(list); p < end(list); ++p) {
    if (index[at(p)] == idx) return p;
  }
  return -1;
}

// ------------------------------------------------------------ BasisLu ----

void BasisLu::reset_identity(int rows) {
  rows_ = rows;
  order_.resize(at(rows));
  std::iota(order_.begin(), order_.end(), 0);
  rank_.assign(order_.begin(), order_.end());
  inv_diag_.assign(at(rows), 1.0);
  u_.reset(rows, 2 * rows);
  u_cols_.reset(rows, 2 * rows);
  col_seq_.clear();
  row_seq_.clear();
  col_seq_.reserve(at(rows));
  row_seq_.reserve(at(rows));
  in_row_seq_.assign(at(rows), 0);
  l_pivot_.clear();
  l_start_.assign(1, 0);
  l_index_.clear();
  l_value_.clear();
  row_eta_pivot_.clear();
  row_eta_start_.assign(1, 0);
  row_eta_index_.clear();
  row_eta_value_.clear();
  spike_.value.assign(at(rows), 0.0);
  spike_.source = nullptr;
  spike_.size = 0;
  spike_rows_.resize(at(rows));
  dense_.assign(at(rows), 0.0);
  updates_since_factor_ = 0;
  factor_nnz_ = 0;
}

void BasisLu::pivot_on(int row, int col, double value, const StandardForm& form,
                       std::span<const int> basic_cols) {
  row_col_[at(row)] = col;
  col_row_[at(col)] = row;
  inv_diag_[at(row)] = 1.0 / value;
  rows_work_.erase(row, rows_work_.find(row, col));
  ++factor_pivots_;
  if (form.column_nnz(basic_cols[at(col)]) > 1) ++structural_factor_pivots_;
}

bool BasisLu::factorize(const StandardForm& form,
                        std::span<const int> basic_cols,
                        std::vector<int>& basis_of_row) {
  const int m = form.rows;
  reset_identity(m);
  if (!peel_singletons(form, basic_cols) ||
      !eliminate_nucleus(form, basic_cols)) {
    reset_identity(m);  // a usable (identity) object, counters kept
    return false;
  }
  order_.insert(order_.end(), tail_.rbegin(), tail_.rend());

  // U's rows laid out in pivot order, columns renamed to pivot rows, and
  // the same entries column-wise beside them.
  col_count_.assign(at(m), 0);
  int nnz = 0;
  for (const int row : order_) {
    nnz += rows_work_.size(row);
    for (int p = rows_work_.begin(row); p < rows_work_.end(row); ++p) {
      ++col_count_[at(col_row_[at(rows_work_.index[at(p)])])];
    }
  }
  const int pool = 2 * (nnz + kSlack * m);  // room for the updates' spikes
  u_.reset(m, pool);
  u_cols_.reset(m, pool);
  for (int t = 0; t < m; ++t) {
    const int row = order_[at(t)];
    rank_[at(row)] = t;
    u_.open(row, rows_work_.size(row) + kSlack);
    u_cols_.open(row, col_count_[at(row)] + kSlack);
  }
  for (const int row : order_) {
    for (int p = rows_work_.begin(row); p < rows_work_.end(row); ++p) {
      const int col = col_row_[at(rows_work_.index[at(p)])];
      u_.push(row, col, rows_work_.value[at(p)]);
      u_cols_.push(col, row, rows_work_.value[at(p)]);
    }
  }
  factor_nnz_ = u_.nnz + static_cast<std::int64_t>(l_index_.size());
  for (const int row : order_) {
    if (inv_diag_[at(row)] == 1.0 && u_cols_.size(row) == 0) continue;
    col_seq_.push_back(row);
  }
  for (const int row : order_) {
    if (inv_diag_[at(row)] == 1.0 && u_.size(row) == 0) continue;
    row_seq_.push_back(row);
    in_row_seq_[at(row)] = 1;
  }

  // Each basic column takes its pivot row as its position.
  basis_of_row.resize(at(m));
  for (int i = 0; i < m; ++i) {
    basis_of_row[at(i)] = basic_cols[at(row_col_[at(i)])];
  }
  return true;
}

bool BasisLu::peel_singletons(const StandardForm& form,
                              std::span<const int> basic_cols) {
  const int m = rows_;
  order_.clear();
  tail_.clear();
  row_col_.assign(at(m), -1);
  col_row_.assign(at(m), -1);
  mark_.assign(at(m), 0);
  seen_.assign(at(m), 0);
  col_values_.resize(at(m));
  stamp_ = 0;

  // The basis matrix row-wise; column k is basic_cols[k]. Entries stay in
  // their row after its pivot and become that row of U.
  row_count_.assign(at(m), 0);
  col_count_.assign(at(m), 0);
  for (int k = 0; k < m; ++k) {
    const int col = basic_cols[at(k)];
    for (int p = form.col_start[at(col)]; p < form.col_start[at(col) + 1];
         ++p) {
      ++row_count_[at(form.row_index[at(p)])];
    }
    col_count_[at(k)] = form.column_nnz(col);
  }
  rows_work_.reset(m, 2 * std::accumulate(row_count_.begin(),
                                          row_count_.end(), 0));
  for (int i = 0; i < m; ++i) rows_work_.open(i, row_count_[at(i)]);
  for (int k = 0; k < m; ++k) {
    const int col = basic_cols[at(k)];
    for (int p = form.col_start[at(col)]; p < form.col_start[at(col) + 1];
         ++p) {
      rows_work_.push(form.row_index[at(p)], k, form.values[at(p)]);
    }
  }

  // Column singletons: a column with one entry among the active rows pivots
  // there; its row's other entries become U's row, and each column losing
  // its last-but-one active row joins the queue. They lead the order.
  queue_.clear();
  for (int k = 0; k < m; ++k) {
    if (col_count_[at(k)] == 0) return false;  // structurally empty column
    if (col_count_[at(k)] == 1) queue_.push_back(k);
  }
  for (std::size_t h = 0; h < queue_.size(); ++h) {
    const int k = queue_[h];
    if (col_count_[at(k)] == 0) return false;  // its row went to another
    const int col = basic_cols[at(k)];
    int row = -1;
    double value = 0.0;
    for (int p = form.col_start[at(col)]; p < form.col_start[at(col) + 1];
         ++p) {
      if (row_col_[at(form.row_index[at(p)])] < 0) {
        row = form.row_index[at(p)];
        value = form.values[at(p)];
        break;
      }
    }
    if (std::abs(value) <= kPivotTolerance * form.col_scale[at(col)]) {
      return false;
    }
    pivot_on(row, k, value, form, basic_cols);
    order_.push_back(row);
    for (int p = rows_work_.begin(row); p < rows_work_.end(row); ++p) {
      const int other = rows_work_.index[at(p)];
      if (--col_count_[at(other)] == 1) queue_.push_back(other);
    }
  }

  // Row singletons among the columns left: a row with one active entry
  // pivots there, the column's other entries become U entries of earlier
  // rows, and each row losing its last-but-one active column joins the
  // queue. They close the order, the first one found last.
  queue_.clear();
  for (int i = 0; i < m; ++i) {
    if (row_col_[at(i)] >= 0) continue;
    row_count_[at(i)] = rows_work_.size(i);
    if (row_count_[at(i)] == 0) return false;  // structurally empty row
    if (row_count_[at(i)] == 1) queue_.push_back(i);
  }
  for (std::size_t h = 0; h < queue_.size(); ++h) {
    const int row = queue_[h];
    if (row_count_[at(row)] == 0) return false;  // its column went elsewhere
    int k = -1;
    double value = 0.0;
    for (int p = rows_work_.begin(row); p < rows_work_.end(row); ++p) {
      if (col_row_[at(rows_work_.index[at(p)])] < 0) {
        k = rows_work_.index[at(p)];
        value = rows_work_.value[at(p)];
        break;
      }
    }
    const int col = basic_cols[at(k)];
    if (std::abs(value) <= kPivotTolerance * form.col_scale[at(col)]) {
      return false;
    }
    pivot_on(row, k, value, form, basic_cols);
    tail_.push_back(row);
    for (int p = form.col_start[at(col)]; p < form.col_start[at(col) + 1];
         ++p) {
      const int other = form.row_index[at(p)];
      if (row_col_[at(other)] < 0 && --row_count_[at(other)] == 1) {
        queue_.push_back(other);
      }
    }
  }

  return true;
}

bool BasisLu::eliminate_nucleus(const StandardForm& form,
                                std::span<const int> basic_cols) {
  const int m = rows_;
  // Active counts and column patterns. A nucleus row also holds entries in
  // row-singleton columns (pivoted, so later in the order): they ride along
  // through the eliminations as U entries but never count.
  int remaining = 0;
  for (int k = 0; k < m; ++k) {
    if (col_row_[at(k)] >= 0) continue;
    col_count_[at(k)] = 0;
    ++remaining;
  }
  if (remaining == 0) return true;
  int nucleus_nnz = 0;
  for (int i = 0; i < m; ++i) {
    if (row_col_[at(i)] >= 0) continue;
    row_count_[at(i)] = 0;
    for (int p = rows_work_.begin(i); p < rows_work_.end(i); ++p) {
      const int k = rows_work_.index[at(p)];
      if (col_row_[at(k)] >= 0) continue;
      ++row_count_[at(i)];
      ++col_count_[at(k)];
      ++nucleus_nnz;
    }
  }
  col_rows_.reset(m, 2 * (nucleus_nnz + kSlack * remaining));
  for (int k = 0; k < m; ++k) {
    if (col_row_[at(k)] < 0) col_rows_.open(k, col_count_[at(k)] + kSlack);
  }
  for (int i = 0; i < m; ++i) {
    if (row_col_[at(i)] >= 0) continue;
    for (int p = rows_work_.begin(i); p < rows_work_.end(i); ++p) {
      const int k = rows_work_.index[at(p)];
      if (col_row_[at(k)] < 0) col_rows_.push(k, i, 0.0);
    }
  }

  // Active columns in doubly linked buckets by count.
  bucket_head_.assign(at(m) + 1, -1);
  bucket_next_.resize(at(m));
  bucket_prev_.resize(at(m));
  const auto link = [&](int k) {
    const int head = bucket_head_[at(col_count_[at(k)])];
    bucket_prev_[at(k)] = -1;
    bucket_next_[at(k)] = head;
    if (head >= 0) bucket_prev_[at(head)] = k;
    bucket_head_[at(col_count_[at(k)])] = k;
  };
  const auto unlink = [&](int k) {
    const int prev = bucket_prev_[at(k)];
    const int next = bucket_next_[at(k)];
    if (prev >= 0) {
      bucket_next_[at(prev)] = next;
    } else {
      bucket_head_[at(col_count_[at(k)])] = next;
    }
    if (next >= 0) bucket_prev_[at(next)] = prev;
  };
  // Moves column k to the bucket of its count + delta; false once the
  // column has no active row left (the basis is singular).
  const auto recount = [&](int k, int delta) {
    unlink(k);
    col_count_[at(k)] += delta;
    if (col_count_[at(k)] == 0) return false;
    link(k);
    return true;
  };
  for (int k = m - 1; k >= 0; --k) {
    if (col_row_[at(k)] >= 0) continue;
    if (col_count_[at(k)] == 0) return false;
    link(k);
  }
  const auto drop_from_pattern = [&](int k, int row) {
    col_rows_.erase(k, col_rows_.find(k, row));
  };

  for (; remaining > 0; --remaining) {
    // Markowitz search: columns in ascending count, the lowest
    // (r_i - 1)(c_k - 1) among their threshold-eligible entries, ties to
    // the smaller row and then column; it stops at a zero cost or after
    // kMarkowitzColumns columns.
    std::int64_t best_cost = std::numeric_limits<std::int64_t>::max();
    int best_row = -1;
    int best_col = -1;
    double best_value = 0.0;
    int searched = 0;
    for (int c = 1; c <= m && best_cost > 0 && searched < kMarkowitzColumns;
         ++c) {
      for (int k = bucket_head_[at(c)];
           k >= 0 && best_cost > 0 && searched < kMarkowitzColumns;
           k = bucket_next_[at(k)]) {
        ++searched;
        double col_max = 0.0;
        for (int t = 0; t < c; ++t) {
          const int i = col_rows_.index[at(col_rows_.begin(k) + t)];
          const double v = rows_work_.value[at(rows_work_.find(i, k))];
          col_values_[at(t)] = v;
          col_max = std::max(col_max, std::abs(v));
        }
        if (col_max <=
            kPivotTolerance * form.col_scale[at(basic_cols[at(k)])]) {
          return false;  // numerically singular
        }
        for (int t = 0; t < c; ++t) {
          const double v = col_values_[at(t)];
          if (std::abs(v) < kLuPivotThreshold * col_max) continue;
          const int i = col_rows_.index[at(col_rows_.begin(k) + t)];
          const std::int64_t cost =
              static_cast<std::int64_t>(row_count_[at(i)] - 1) * (c - 1);
          if (cost < best_cost ||
              (cost == best_cost &&
               (i < best_row || (i == best_row && k < best_col)))) {
            best_cost = cost;
            best_row = i;
            best_col = k;
            best_value = v;
          }
        }
      }
    }

    const int r = best_row;
    const int k = best_col;
    pivot_on(r, k, best_value, form, basic_cols);
    order_.push_back(r);
    unlink(k);

    // Row r leaves the active matrix; scatter it for the row operations.
    const int in_pivot_row = ++stamp_;
    for (int p = rows_work_.begin(r); p < rows_work_.end(r); ++p) {
      const int j = rows_work_.index[at(p)];
      dense_[at(j)] = rows_work_.value[at(p)];
      mark_[at(j)] = in_pivot_row;
      if (col_row_[at(j)] < 0) {
        if (!recount(j, -1)) return false;
        drop_from_pattern(j, r);
      }
    }

    // Eliminate column k from the other rows of its pattern: row i -= l·r.
    for (int t = 0; t < col_rows_.size(k); ++t) {
      const int i = col_rows_.index[at(col_rows_.begin(k) + t)];
      if (i == r) continue;
      const int pos = rows_work_.find(i, k);
      const double l = rows_work_.value[at(pos)] / best_value;
      rows_work_.erase(i, pos);
      --row_count_[at(i)];
      l_index_.push_back(i);
      l_value_.push_back(l);

      const int in_row = ++stamp_;
      for (int p = rows_work_.begin(i); p < rows_work_.end(i);) {
        const int j = rows_work_.index[at(p)];
        if (mark_[at(j)] != in_pivot_row) {
          ++p;
          continue;
        }
        seen_[at(j)] = in_row;
        const double before = rows_work_.value[at(p)];
        const double delta = l * dense_[at(j)];
        const double after = before - delta;
        if (std::abs(after) >
            kDropTolerance * std::max(std::abs(before), std::abs(delta))) {
          rows_work_.value[at(p)] = after;
          ++p;
          continue;
        }
        rows_work_.erase(i, p);  // cancelled; p now holds the row's last entry
        if (col_row_[at(j)] < 0) {
          if (!recount(j, -1)) return false;
          --row_count_[at(i)];
          drop_from_pattern(j, i);
        }
      }
      for (int q = 0; q < rows_work_.size(r); ++q) {
        const int j = rows_work_.index[at(rows_work_.begin(r) + q)];
        if (seen_[at(j)] == in_row) continue;
        rows_work_.push(i, j, -l * dense_[at(j)]);  // fill-in
        if (col_row_[at(j)] < 0) {
          recount(j, +1);
          ++row_count_[at(i)];
          col_rows_.push(j, i, 0.0);
        }
      }
      if (row_count_[at(i)] == 0) return false;  // row cancelled out
    }
    if (l_index_.size() > at(l_start_.back())) {
      l_pivot_.push_back(r);
      l_start_.push_back(static_cast<int>(l_index_.size()));
    }
    for (int p = rows_work_.begin(r); p < rows_work_.end(r); ++p) {
      dense_[at(rows_work_.index[at(p)])] = 0.0;
    }
  }
  return true;
}

void BasisLu::ftran(std::span<double> x) const {
  for (std::size_t e = 0; e < l_pivot_.size(); ++e) {
    const double v = x[at(l_pivot_[e])];
    if (v == 0.0) continue;
    for (int p = l_start_[e]; p < l_start_[e + 1]; ++p) {
      x[at(l_index_[at(p)])] -= l_value_[at(p)] * v;
    }
  }
  for (std::size_t e = 0; e < row_eta_pivot_.size(); ++e) {
    x[at(row_eta_pivot_[e])] -=
        sparse_dot(row_eta_index_, row_eta_value_, row_eta_start_[e],
                   row_eta_start_[e + 1], x);
  }
  // Kept for update(): when x is the entering column, this is its spike.
  spike_.value.assign(x.begin(), x.end());
  spike_.source = x.data();
  spike_.size = x.size();
  const auto* col_slot = u_cols_.slots.data();
  const int* col_index = u_cols_.index.data();
  const double* col_value = u_cols_.value.data();
  for (auto it = col_seq_.rbegin(); it != col_seq_.rend(); ++it) {
    const int j = *it;
    if (x[at(j)] == 0.0) continue;
    const double v = x[at(j)] * inv_diag_[at(j)];
    x[at(j)] = v;
    const int begin = col_slot[j].start;
    const int stop = begin + col_slot[j].len;
    for (int p = begin; p < stop; ++p) x[at(col_index[p])] -= col_value[p] * v;
  }
}

void BasisLu::btran(std::span<double> y) const {
  const auto* row_slot = u_.slots.data();
  const int* row_index = u_.index.data();
  const double* row_value = u_.value.data();
  for (const int i : row_seq_) {
    if (y[at(i)] == 0.0) continue;
    const double v = y[at(i)] * inv_diag_[at(i)];
    y[at(i)] = v;
    const int begin = row_slot[i].start;
    const int stop = begin + row_slot[i].len;
    for (int p = begin; p < stop; ++p) y[at(row_index[p])] -= row_value[p] * v;
  }
  for (std::size_t e = row_eta_pivot_.size(); e-- > 0;) {
    const double v = y[at(row_eta_pivot_[e])];
    if (v == 0.0) continue;
    for (int p = row_eta_start_[e]; p < row_eta_start_[e + 1]; ++p) {
      y[at(row_eta_index_[at(p)])] -= row_eta_value_[at(p)] * v;
    }
  }
  for (std::size_t e = l_pivot_.size(); e-- > 0;) {
    y[at(l_pivot_[e])] -=
        sparse_dot(l_index_, l_value_, l_start_[e], l_start_[e + 1], y);
  }
}

bool BasisLu::accepts_pivot(std::span<const double> alpha, int pivot_row) {
  double col_max = 0.0;
  for (const double a : alpha) col_max = std::max(col_max, std::abs(a));
  return std::abs(alpha[at(pivot_row)]) > kPivotTolerance * col_max;
}

bool BasisLu::update(std::span<const double> alpha, int pivot_row) {
  const int m = rows_;
  // The spike the last FTRAN kept belongs to alpha only if that FTRAN wrote
  // alpha's buffer; either way it serves this one update at most.
  const bool kept =
      spike_.source == alpha.data() && spike_.size == alpha.size();
  spike_.source = nullptr;
  if (!accepts_pivot(alpha, pivot_row)) {
    return false;  // relatively too small to divide by: refactorize instead
  }
  const double pivot = alpha[at(pivot_row)];
  const int r = pivot_row;  // U's row and column to replace
  dense_.resize(at(m));        // sized after a copy; zero between uses
  spike_rows_.resize(at(m));

  // The spike is the entering column with L and the row etas applied. An
  // FTRAN of alpha's buffer kept it; otherwise it is U·alpha, since
  // B = L·R^{-1}·U, with that product's cancellation dropped.
  if (!kept) {
    spike_.value.resize(at(m));
    for (int i = 0; i < m; ++i) {
      double s = alpha[at(i)] / inv_diag_[at(i)];
      double scale = std::abs(s);
      for (int p = u_.begin(i); p < u_.end(i); ++p) {
        const double term = u_.value[at(p)] * alpha[at(u_.index[at(p)])];
        s += term;
        scale += std::abs(term);
      }
      spike_.value[at(i)] = std::abs(s) <= kSpikeDropTolerance * scale ? 0.0 : s;
    }
  }

  // Forrest–Tomlin: r moves to the end of the order, so row r's entries
  // (all right of its old diagonal) are eliminated against the rows that
  // follow it, first to last. The multipliers are the row eta; the spike's
  // entries in those rows fold into the new diagonal.
  const std::size_t eta_begin = row_eta_index_.size();
  for (int p = u_.begin(r); p < u_.end(r); ++p) {
    dense_[at(u_.index[at(p)])] = u_.value[at(p)];
  }
  double diag = spike_.value[at(r)];
  for (int t = rank_[at(r)] + 1; t < m; ++t) {
    const int j = order_[at(t)];
    const double w = dense_[at(j)];
    if (w == 0.0) continue;
    dense_[at(j)] = 0.0;
    const double mu = w * inv_diag_[at(j)];
    row_eta_index_.push_back(j);
    row_eta_value_.push_back(mu);
    diag -= mu * spike_.value[at(j)];
    for (int p = u_.begin(j); p < u_.end(j); ++p) {
      dense_[at(u_.index[at(p)])] -= mu * u_.value[at(p)];
    }
  }
  // In exact arithmetic the new diagonal is alpha_r · u_rr (the ratio of
  // the two bases' determinants); a mismatch means the update lost accuracy.
  const double expected = pivot / inv_diag_[at(r)];
  if (!(std::abs(diag - expected) <= kUpdateTolerance * std::abs(expected))) {
    row_eta_index_.resize(eta_begin);
    row_eta_value_.resize(eta_begin);
    return false;
  }

  // Commit: row r empties, column r becomes the spike with the new
  // diagonal, the row eta is appended and r goes last.
  for (int p = u_.begin(r); p < u_.end(r); ++p) {
    const int col = u_.index[at(p)];
    u_cols_.erase(col, u_cols_.find(col, r));
  }
  u_.clear(r);
  for (int p = u_cols_.begin(r); p < u_cols_.end(r); ++p) {
    const int row = u_cols_.index[at(p)];
    u_.erase(row, u_.find(row, r));
  }
  u_cols_.clear(r);
  const auto by_rank = [&](int a, int b) {
    return rank_[at(a)] < rank_[at(b)];
  };
  spike_.value[at(r)] = 0.0;  // the diagonal, stored apart
  int nonzeros = 0;
  for (int i = 0; i < m; ++i) {
    if (spike_.value[at(i)] != 0.0) spike_rows_[at(nonzeros++)] = i;
  }
  for (int n = 0; n < nonzeros; ++n) {
    const int i = spike_rows_[at(n)];
    u_.push(i, r, spike_.value[at(i)]);
    u_cols_.push(r, i, spike_.value[at(i)]);
    if (in_row_seq_[at(i)] == 0) {  // a trivial row no longer
      row_seq_.insert(
          std::lower_bound(row_seq_.begin(), row_seq_.end(), i, by_rank), i);
      in_row_seq_[at(i)] = 1;
    }
  }
  inv_diag_[at(r)] = 1.0 / diag;
  const auto col_at =
      std::lower_bound(col_seq_.begin(), col_seq_.end(), r, by_rank);
  if (col_at != col_seq_.end() && *col_at == r) col_seq_.erase(col_at);
  col_seq_.push_back(r);
  if (in_row_seq_[at(r)] != 0) {
    row_seq_.erase(std::lower_bound(row_seq_.begin(), row_seq_.end(), r,
                                    by_rank));
  }
  row_seq_.push_back(r);
  in_row_seq_[at(r)] = 1;
  if (row_eta_index_.size() > eta_begin) {
    row_eta_pivot_.push_back(r);
    row_eta_start_.push_back(static_cast<int>(row_eta_index_.size()));
  }
  const int from = rank_[at(r)];
  std::copy(order_.begin() + from + 1, order_.end(), order_.begin() + from);
  order_.back() = r;
  for (int t = from; t < m; ++t) rank_[at(order_[at(t)])] = t;
  ++updates_since_factor_;
  return true;
}

}  // namespace birp::solver
