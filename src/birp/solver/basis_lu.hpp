// Sparse LU factorization of a simplex basis with Forrest–Tomlin updates.
//
// The basis B (column r = the basic column of pivot row r) is held as
//   B = L · R_1^{-1} · ... · R_k^{-1} · U,
// where L is the lower factor of the last factorization (a file of column
// etas), U an upper-triangular matrix under a symmetric permutation (row r
// of U pivots on its column r; `order_` lists the pivots first to last)
// and R_1..R_k one row eta per update since then. U is kept row-wise (for
// BTRAN and the update's row elimination) and column-wise (for FTRAN).
//
// `factorize` builds L and U from scratch (Suhl & Suhl 1990). It first peels
// the column singletons and then the row singletons of the basis matrix:
// they form its triangular part, cost no arithmetic, and make up most of a
// BIRP basis (slacks and single-row structurals). What is left, the nucleus,
// is eliminated in Markowitz order — fewest (row count - 1) · (column count
// - 1) among entries within kLuPivotThreshold of their column's largest,
// ties to the smallest row and then column index, so the factorization is
// deterministic. Only nucleus eliminations produce L etas. Each basic
// column then sits at the row it pivots on.
//
// `update` is the Forrest–Tomlin update (Forrest & Tomlin 1972): column r of
// U is replaced by the entering column's spike (L^{-1}·a_q with the row etas
// applied, which the last FTRAN keeps), r moves to the end of the pivot
// order, and the entries of row r that now sit left of the diagonal are
// eliminated against the rows after it. The multipliers of that
// elimination are the new row eta R_{k+1}.
//
// FTRAN (x := B^{-1} x, for the entering column and the basic values)
// applies L, then the row etas in creation order, then back-substitutes
// through U; BTRAN (y := B^{-T} y, for duals and the dual repair's pivot
// row) runs the transposes in reverse. `should_refactorize` triggers a fresh
// factorization after kRefactorInterval updates, or earlier once U and the
// row etas hold more than kGrowthLimit times the fresh factorization's
// entries. Growth is also where numerical drift accumulates, so the trigger
// doubles as the drift bound.
//
// A BasisLu is a plain value: copying it copies the factors, update count
// included, which is how a branch-and-bound child inherits its parent's
// factorization instead of rebuilding it (see lp_engine.hpp). A copy does
// not inherit the scratch buffers, which it sizes on first use. The buffers
// keep their capacity, so a factorize–update–solve cycle that fits the
// buffers of an earlier one allocates nothing.
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

/// Updates applied before the basis is refactorized from scratch.
inline constexpr int kRefactorInterval = 96;

/// Growth trigger: refactorize once U and the row etas hold more than this
/// many times the fresh factorization's entries (rows included).
inline constexpr std::int64_t kGrowthLimit = 3;

class BasisLu {
 public:
  /// Resets to the identity basis of `rows` rows (the all-logical start:
  /// row i's logical is the unit column e_i).
  void reset_identity(int rows);

  /// Factorizes the basis {basic_cols} from scratch. On success fills
  /// `basis_of_row` (basic column per pivot row) and returns true; on a
  /// numerically singular basis returns false with the eliminations spent
  /// so far still counted in factor_pivots().
  [[nodiscard]] bool factorize(const StandardForm& form,
                               std::span<const int> basic_cols,
                               std::vector<int>& basis_of_row);

  /// x := B^{-1} x (dense scratch, size rows). Keeps the vector after L
  /// and the row etas, and which buffer it came from, as the spike for an
  /// update() on that buffer. That is a write despite the const, so two
  /// threads must not FTRAN through one object at once.
  void ftran(std::span<double> x) const;

  /// y := B^{-T} y (dense scratch, size rows).
  void btran(std::span<double> y) const;

  /// Replaces the basic column of `pivot_row` by the entering column whose
  /// FTRAN is `alpha`. When the latest ftran() wrote `alpha`'s buffer, the
  /// spike it kept is used; otherwise the spike is rebuilt as U·alpha.
  /// Returns false, leaving the factorization unchanged, when the pivot
  /// element is refused by accepts_pivot() or the updated U would be
  /// unstable; the caller should refactorize instead.
  [[nodiscard]] bool update(std::span<const double> alpha, int pivot_row);

  /// True when `alpha[pivot_row]` is large enough, relative to
  /// max_i |alpha_i|, for update() to divide by.
  [[nodiscard]] static bool accepts_pivot(std::span<const double> alpha,
                                          int pivot_row);

  /// True once kRefactorInterval updates have been applied since the last
  /// factorization, or U and the row etas have outgrown the fresh factors.
  [[nodiscard]] bool should_refactorize() const noexcept {
    return updates_since_factor_ >= kRefactorInterval ||
           u_.nnz + static_cast<std::int64_t>(row_eta_index_.size()) >
               kGrowthLimit * (factor_nnz_ + rows_);
  }

  [[nodiscard]] int rows() const noexcept { return rows_; }
  /// Cumulative eliminations: one per basic column per factorize.
  [[nodiscard]] std::int64_t factor_pivots() const noexcept {
    return factor_pivots_;
  }
  /// The eliminations among factor_pivots() whose basic column has more
  /// than one nonzero; the rest are unit-like singletons (logicals and
  /// single-row structurals).
  [[nodiscard]] std::int64_t structural_factor_pivots() const noexcept {
    return structural_factor_pivots_;
  }

  /// Zeroes the elimination counters, keeping the factors and their update
  /// count. A copy inherited from a parent LP starts its own tally here, so
  /// its factor_pivots() reports only the eliminations it spends itself.
  void clear_factor_pivots() noexcept {
    factor_pivots_ = 0;
    structural_factor_pivots_ = 0;
  }

 private:
  /// A buffer that copies of its owner do not inherit: a copy starts empty
  /// and is sized on first use, so copying a BasisLu (a branch-and-bound
  /// child resuming its parent) copies the factors and no scratch.
  template <class T>
  struct Scratch : T {
    Scratch() = default;
    Scratch(const Scratch& /*other*/) : T() {}
    Scratch(Scratch&&) noexcept = default;
    Scratch& operator=(const Scratch& /*other*/) { return *this; }
    Scratch& operator=(Scratch&&) noexcept = default;
    ~Scratch() = default;
  };

  /// Variable-length sparse lists sharing one pool: U's rows and column
  /// patterns, and during factorize the active matrix's rows and column
  /// patterns. A list that outgrows its slot moves to the end of the pool;
  /// a full pool first squeezes out the slots moved lists left behind and
  /// grows only when that is not enough.
  struct SparseLists {
    struct Slot {
      int start = 0;
      int len = 0;
      int cap = 0;
    };
    std::vector<Slot> slots;
    std::vector<int> index;
    std::vector<double> value;
    Scratch<std::vector<int>> spare_index;  ///< make_room scratch
    Scratch<std::vector<double>> spare_value;
    int used = 0;           ///< first free slot of the pool
    std::int64_t nnz = 0;   ///< entries over all lists

    /// `lists` empty lists in an empty pool of at least `pool` slots.
    void reset(int lists, int pool);
    /// Gives the (empty) list `list` a fresh slot of `capacity` at the end.
    void open(int list, int capacity);
    void push(int list, int idx, double v) {
      if (slots[static_cast<std::size_t>(list)].len ==
          slots[static_cast<std::size_t>(list)].cap) {
        grow(list);
      }
      Slot& slot = slots[static_cast<std::size_t>(list)];
      const auto p = static_cast<std::size_t>(slot.start + slot.len++);
      index[p] = idx;
      value[p] = v;
      ++nnz;
    }
    /// Removes the entry at absolute pool position `pos` of `list` (the
    /// list's last entry takes its place).
    void erase(int list, int pos);
    void clear(int list);
    /// Absolute position of `idx` in `list`, or -1.
    [[nodiscard]] int find(int list, int idx) const;
    /// The pool positions [begin, end) of `list`'s entries.
    [[nodiscard]] int begin(int list) const {
      return slots[static_cast<std::size_t>(list)].start;
    }
    [[nodiscard]] int end(int list) const {
      const Slot& slot = slots[static_cast<std::size_t>(list)];
      return slot.start + slot.len;
    }
    [[nodiscard]] int size(int list) const {
      return slots[static_cast<std::size_t>(list)].len;
    }

   private:
    void reserve(int size);
    void make_room(int capacity);
    /// Gives a full list a slot twice its size (plus four).
    void grow(int list);
  };

  /// Pivots the column singletons (leading the order) and then the row
  /// singletons (closing it, in tail_); false on a singular basis.
  [[nodiscard]] bool peel_singletons(const StandardForm& form,
                                     std::span<const int> basic_cols);
  /// Markowitz elimination of what the singletons leave.
  [[nodiscard]] bool eliminate_nucleus(const StandardForm& form,
                                       std::span<const int> basic_cols);
  void pivot_on(int row, int col, double value, const StandardForm& form,
                std::span<const int> basic_cols);

  int rows_ = 0;

  // The factors.
  std::vector<int> order_;   ///< pivot rows, first to last
  std::vector<int> rank_;    ///< position of each row in order_
  std::vector<double> inv_diag_;  ///< 1 / U's diagonal, per pivot row
  SparseLists u_;       ///< U's off-diagonal rows (column = pivot row)
  SparseLists u_cols_;  ///< the same entries column-wise (row = pivot row)
  /// The pivots in order whose U column (FTRAN) or row (BTRAN) does any
  /// work: the unit slack pivots that are most of a basis drop out.
  std::vector<int> col_seq_;
  std::vector<int> row_seq_;
  std::vector<char> in_row_seq_;
  std::vector<int> l_pivot_;     ///< L eta e eliminates with row l_pivot_[e]
  std::vector<int> l_start_;     ///< its entries: [l_start_[e], l_start_[e+1])
  std::vector<int> l_index_;
  std::vector<double> l_value_;
  std::vector<int> row_eta_pivot_;  ///< row eta e updates row_eta_pivot_[e]
  std::vector<int> row_eta_start_;
  std::vector<int> row_eta_index_;
  std::vector<double> row_eta_value_;

  // Scratch (factorize and update); kept so steady state allocates nothing.
  Scratch<SparseLists> rows_work_;  ///< active matrix rows (column = basic position)
  Scratch<SparseLists> col_rows_;   ///< nucleus column patterns (rows)
  Scratch<std::vector<int>> row_col_;  ///< basic column index pivoted at each row
  Scratch<std::vector<int>> col_row_;  ///< pivot row of each basic column index
  Scratch<std::vector<int>> row_count_;
  Scratch<std::vector<int>> col_count_;
  Scratch<std::vector<int>> queue_;
  Scratch<std::vector<int>> tail_;  ///< row-singleton pivots, last pivot first
  Scratch<std::vector<int>> bucket_head_;  ///< nucleus columns by count (linked)
  Scratch<std::vector<int>> bucket_next_;
  Scratch<std::vector<int>> bucket_prev_;
  Scratch<std::vector<double>> col_values_;
  /// The last FTRAN's vector after L and the row etas (update()'s spike)
  /// and the buffer that FTRAN wrote.
  struct Spike {
    std::vector<double> value;
    const double* source = nullptr;
    std::size_t size = 0;
  };
  mutable Scratch<Spike> spike_;
  Scratch<std::vector<int>> spike_rows_;  ///< update: the spike's rows
  Scratch<std::vector<double>> dense_;    ///< zero between uses
  Scratch<std::vector<int>> mark_;
  Scratch<std::vector<int>> seen_;
  int stamp_ = 0;

  int updates_since_factor_ = 0;
  std::int64_t factor_nnz_ = 0;  ///< L + U entries of the fresh factors
  std::int64_t factor_pivots_ = 0;  ///< cumulative eliminations (all factorizes)
  std::int64_t structural_factor_pivots_ = 0;  ///< multi-entry share of them
};

}  // namespace birp::solver
