// Sparse revised simplex engine and the solve_lp entry points. See
// simplex.hpp for the contract.
#include "birp/solver/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "birp/solver/basis_lu.hpp"
#include "birp/solver/lp_engine.hpp"
#include "birp/solver/standard_form.hpp"
#include "birp/util/check.hpp"

namespace birp::solver {
namespace {

/// Relative tie window for ratio tests: two steps within this fraction of
/// each other are considered tied (Bland tie-breaks then apply). The
/// historical absolute 1e-12 window stopped meaning anything once steps
/// left the O(1) range.
constexpr double kRatioTie = 1e-11;

/// Tie margin for the pricing and dual-repair picks (entering column,
/// leaving row, ratio window, pivot magnitude): a later candidate must beat
/// the current pick by this margin, so near-ties resolve to the first one.
/// Wider than kRatioTie because the same basis is reached through different
/// factorizations — a resumed LU with its parent's updates, or one rebuilt
/// from a Basis — which round these quantities differently by about 1e-12.
/// With a zero margin the two paths pick different pivots and reach
/// different scheduling decisions on paper_large traces; with this one they
/// agree.
constexpr double kDualPickTie = 1e-9;

/// Cost perturbation of the dual repair, relative to 1 + |c_j|. Each
/// nonbasic column with a nonzero cost has its repair cost moved this far
/// (times an index-hash spread in [1, 2)) toward its dual-feasible side, so
/// the repair's dual ratios are distinct and positive instead of tied at
/// zero — the dual degeneracy that made slot-problem repairs cycle until
/// their budget ran out. Phase II prices with the true costs and removes
/// the perturbation. Zero-cost columns stay unperturbed: a positive repair
/// cost on the slot problem's deployment binaries, flows and working-set
/// columns steers the repair to the vertex with the least of each, the
/// fractional deployment x = z / cap, whose rounding plans worse (on
/// bench_cluster's synthetic clusters goodput fell 2-6 points). The size is
/// measured: at 1e-6, 3 of 60 synthetic monolithic cold slot LPs (24-70
/// edges) still cycled in the repair to the full pivot limit, and the
/// 100-edge ones took 2,277-2,726 pivots against 1,823-1,957 at 5e-5; the
/// Phase II that removes the larger perturbation took 7 pivots (0 at 1e-6)
/// over bench_solver --quick's 94 logical starts.
constexpr double kRepairPerturbation = 5e-5;

/// Floor of a dual pricing weight, against a tiny entering pivot's update.
constexpr double kMinEdgeWeight = 1e-6;

/// Consecutive degenerate pivots before pricing switches to Bland's rule.
constexpr int kStallThreshold = 40;

/// Deterministic spread in [1, 2) for column j's perturbation (Fibonacci
/// hashing): distinct columns get distinct steps, with no RNG state.
double perturbation_spread(int j) {
  const auto h = static_cast<std::uint32_t>(j) * 2654435761u;
  return 1.0 + static_cast<double>(h >> 8) / static_cast<double>(1u << 24);
}

/// The work counters of one engine, charged to the Solution that finally
/// serves the call (an abandoned warm attempt's included, exactly once).
struct LpWork {
  std::int64_t iterations = 0;
  std::int64_t factor_pivots = 0;
  std::int64_t structural_factor_pivots = 0;
  std::int64_t btran_solves = 0;

  LpWork& operator+=(const LpWork& other) noexcept {
    iterations += other.iterations;
    factor_pivots += other.factor_pivots;
    structural_factor_pivots += other.structural_factor_pivots;
    btran_solves += other.btran_solves;
    return *this;
  }
  void charge(Solution& solution) const noexcept {
    solution.simplex_iterations += iterations;
    solution.factor_pivots += factor_pivots;
    solution.structural_factor_pivots += structural_factor_pivots;
    solution.btran_solves += btran_solves;
  }
};

/// Revised simplex over the standard form (standard_form.hpp), whose
/// immutable part a resumed child shares with its parent. The basis lives
/// in a BasisLu: a sparse LU whose U takes one Forrest–Tomlin update per
/// pivot, refactorized on its schedule. Primal pricing recomputes
/// duals/reduced costs from BTRAN each iteration (self-correcting, O(nnz)),
/// while the dual repair updates its reduced costs along the pivot row and
/// rebuilds them after each refactorization. The repair forms that row
/// row-wise from the form's CSR copy over rho's nonzeros (pivot_row), marks
/// the columns it reaches, and then works on those touched columns only:
/// one ascending pass takes the row scale and the entering candidates, the
/// reduced-cost update walks them, and the next pivot re-zeroes them.
/// column_dot stays where a dense dual vector is priced (Phase II, the
/// repair's rebuild and the flip pass). The ratio test FTRANs the entering
/// column, whose spike the update then reuses.
class RevisedSimplex {
 public:
  /// Starts from `warm`, refactorized against the current bounds, or from
  /// the all-logical basis when `warm` is null: that basis is the identity,
  /// so it needs no factorization and always starts. Check started()
  /// before solving.
  RevisedSimplex(const Model& model, std::span<const double> lower_override,
                 std::span<const double> upper_override, SimplexOptions options,
                 const Basis* warm)
      : model_(model), options_(options), logical_start_(warm == nullptr) {
    const Basis logical =
        logical_start_
            ? Basis::logical(model.num_variables(), model.num_constraints())
            : Basis{};
    StandardForm form = build_standard_form(model, lower_override,
                                            upper_override,
                                            logical_start_ ? logical : *warm);
    if (!form.ok) return;
    std::vector<int> basic_cols = std::move(form.basic_cols);
    adopt(std::move(form));
    init();
    if (logical_start_) {
      lu_.reset_identity(form_->rows);
      basis_ = std::move(basic_cols);
    } else if (!lu_.factorize(*form_, basic_cols, basis_)) {
      return;  // singular
    }
    recompute_basic_values();
    started_ = true;
  }

  /// Resumed construction from a parent solve's live state (same model):
  /// the parent's form, point and factorization with this LP's structural
  /// bounds applied. Always started(); nothing is refactorized.
  RevisedSimplex(const Model& model, std::span<const double> lower_override,
                 std::span<const double> upper_override, SimplexOptions options,
                 const LpState& parent)
      : model_(model),
        options_(options),
        form_(parent.form),
        lower_(parent.lower),
        upper_(parent.upper),
        state_(parent.state),
        value_(parent.value),
        basis_(parent.basis),
        lu_(parent.lu) {
    lu_.clear_factor_pivots();
    init();
    // Park every nonbasic structural at its (new) bound; a column recorded
    // AtUpper whose upper bound is now infinite rests at its lower bound,
    // as in the form build. Logical bounds never change.
    for (int j = 0; j < form_->structural; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      const double lo = lower_override.empty() ? model.variable(j).lower
                                               : lower_override[jj];
      util::check(std::isfinite(lo), "simplex requires finite lower bounds");
      lower_[jj] = lo;
      upper_[jj] = upper_override.empty() ? model.variable(j).upper
                                          : upper_override[jj];
      if (state_[jj] == VarState::Basic) continue;
      if (!std::isfinite(upper_[jj])) state_[jj] = VarState::AtLower;
      value_[jj] = state_[jj] == VarState::AtUpper ? upper_[jj] : lower_[jj];
    }
    recompute_basic_values();
    started_ = true;
  }

  /// Dual repair, then Phase II. A warm start that gives up returns
  /// nullopt, and give_ups() says why; the logical start never gives up.
  std::optional<Solution> solve();

  [[nodiscard]] bool started() const noexcept { return started_; }
  /// Why a warm attempt was abandoned: a basis that never factorized
  /// (!started()), or whatever made solve() return nullopt.
  [[nodiscard]] WarmGiveUps give_ups() const noexcept {
    if (!started_) return WarmGiveUps{.singular = 1};
    return give_ups_;
  }
  [[nodiscard]] Basis extract_basis() const {
    Basis basis;
    basis.structural.assign(state_.begin(), state_.begin() + form_->structural);
    basis.basic = basis_;  // column n + i is row i's logical, as in Basis
    return basis;
  }
  [[nodiscard]] LpWork work() const noexcept {
    return {iterations_, lu_.factor_pivots(), lu_.structural_factor_pivots(),
            btran_solves_};
  }
  /// Moves the live state out (for a later resume); the engine is spent.
  [[nodiscard]] LpState release_state() && {
    return LpState{std::move(form_), std::move(lower_), std::move(upper_),
                   std::move(state_), std::move(value_), std::move(basis_),
                   std::move(lu_)};
  }

 private:
  enum class Repair { Done, Infeasible, Stall, Singular };

  /// Takes a freshly built form: the mutable point moves into the engine,
  /// the rest becomes the shared immutable part.
  void adopt(StandardForm form) {
    lower_ = std::move(form.lower);
    upper_ = std::move(form.upper);
    state_ = std::move(form.state);
    value_ = std::move(form.value);
    form_ = std::make_shared<const StandardForm>(std::move(form));
  }

  void init() {
    iteration_limit_ =
        options_.max_iterations > 0
            ? options_.max_iterations
            : 200 + 30ll * (form_->rows + form_->cols);
    y_.assign(static_cast<std::size_t>(form_->rows), 0.0);
    cb_.assign(static_cast<std::size_t>(form_->rows), 0.0);
    alpha_.assign(static_cast<std::size_t>(form_->rows), 0.0);
    work_.assign(static_cast<std::size_t>(form_->rows), 0.0);
    // Exact for the logical basis (B = I); a warm basis starts from the
    // same reference weights and the updates refine them.
    edge_weight_.assign(static_cast<std::size_t>(form_->cols), 1.0);
  }

  [[nodiscard]] double column_dot(int col,
                                  const std::vector<double>& vec) const {
    double sum = 0.0;
    for (int p = form_->col_start[static_cast<std::size_t>(col)];
         p < form_->col_start[static_cast<std::size_t>(col) + 1]; ++p) {
      sum += form_->values[static_cast<std::size_t>(p)] *
             vec[static_cast<std::size_t>(
                 form_->row_index[static_cast<std::size_t>(p)])];
    }
    return sum;
  }

  /// y_ := B^{-T} c_B for the given costs (zero shortcut included).
  void compute_duals(const std::vector<double>& costs) {
    bool any_nonzero = false;
    for (int i = 0; i < form_->rows; ++i) {
      const double cb =
          costs[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
      cb_[static_cast<std::size_t>(i)] = cb;
      any_nonzero = any_nonzero || cb != 0.0;
    }
    if (!any_nonzero) {
      std::fill(y_.begin(), y_.end(), 0.0);
      return;
    }
    std::copy(cb_.begin(), cb_.end(), y_.begin());
    btran(y_);
  }

  /// y := B^{-T} y, counted.
  void btran(std::vector<double>& y) {
    lu_.btran(y);
    ++btran_solves_;
  }

  /// alpha_ := B^{-1} A(:, col).
  void ftran_column(int col) {
    std::fill(alpha_.begin(), alpha_.end(), 0.0);
    for (int p = form_->col_start[static_cast<std::size_t>(col)];
         p < form_->col_start[static_cast<std::size_t>(col) + 1]; ++p) {
      alpha_[static_cast<std::size_t>(
          form_->row_index[static_cast<std::size_t>(p)])] =
          form_->values[static_cast<std::size_t>(p)];
    }
    lu_.ftran(alpha_);
  }

  /// Refactorizes the current basis and recomputes the basic values from
  /// scratch (clearing accumulated drift); the dual repair's reduced costs
  /// are rebuilt on its next pivot for the same reason. False when the
  /// basis has become numerically singular.
  [[nodiscard]] bool refactorize() {
    basic_cols_scratch_.assign(basis_.begin(), basis_.end());
    repair_d_valid_ = false;
    if (!lu_.factorize(*form_, basic_cols_scratch_, basis_)) {
      return false;
    }
    recompute_basic_values();
    return true;
  }

  void recompute_basic_values() {
    // xB = B^{-1} (b - sum over nonbasic j with nonzero value of A(:,j) x_j).
    std::copy(form_->rhs.begin(), form_->rhs.end(), work_.begin());
    for (int j = 0; j < form_->cols; ++j) {
      if (state_[static_cast<std::size_t>(j)] == VarState::Basic) continue;
      const double v = value_[static_cast<std::size_t>(j)];
      if (v == 0.0) continue;
      for (int p = form_->col_start[static_cast<std::size_t>(j)];
           p < form_->col_start[static_cast<std::size_t>(j) + 1]; ++p) {
        work_[static_cast<std::size_t>(
            form_->row_index[static_cast<std::size_t>(p)])] -=
            form_->values[static_cast<std::size_t>(p)] * v;
      }
    }
    lu_.ftran(work_);
    for (int i = 0; i < form_->rows; ++i) {
      value_[static_cast<std::size_t>(
          basis_[static_cast<std::size_t>(i)])] =
          work_[static_cast<std::size_t>(i)];
    }
  }

  /// The true objective per column (zero on the logicals).
  [[nodiscard]] std::vector<double> objective_costs() const {
    std::vector<double> costs(static_cast<std::size_t>(form_->cols), 0.0);
    for (int j = 0; j < form_->structural; ++j) {
      costs[static_cast<std::size_t>(j)] = model_.variable(j).objective;
    }
    return costs;
  }

  /// Applies the basis change after the ratio test: updates the other
  /// basic values along alpha_, parks the leaving variable at its bound,
  /// swaps the entering column in, and updates the LU (refactorizing when
  /// the update is refused). False on numerical failure.
  [[nodiscard]] bool change_basis(int leave_row, int enter, double enter_dir,
                                  double step, bool leave_to_upper) {
    for (int i = 0; i < form_->rows; ++i) {
      if (i == leave_row) continue;
      const double a = alpha_[static_cast<std::size_t>(i)];
      if (a == 0.0) continue;
      const int bvar = basis_[static_cast<std::size_t>(i)];
      value_[static_cast<std::size_t>(bvar)] -= enter_dir * step * a;
    }
    const int leaving = basis_[static_cast<std::size_t>(leave_row)];
    state_[static_cast<std::size_t>(leaving)] =
        leave_to_upper ? VarState::AtUpper : VarState::AtLower;
    value_[static_cast<std::size_t>(leaving)] =
        leave_to_upper ? upper_[static_cast<std::size_t>(leaving)]
                       : lower_[static_cast<std::size_t>(leaving)];

    const double enter_value =
        value_[static_cast<std::size_t>(enter)] + enter_dir * step;
    basis_[static_cast<std::size_t>(leave_row)] = enter;
    state_[static_cast<std::size_t>(enter)] = VarState::Basic;
    value_[static_cast<std::size_t>(enter)] = enter_value;
    if (!lu_.update(alpha_, leave_row)) {
      return refactorize();
    }
    return true;
  }

  /// Flips the entering variable to its opposite bound without a basis
  /// change, shifting the basic values along alpha_.
  void bound_flip(int enter, double enter_dir, double step) {
    for (int i = 0; i < form_->rows; ++i) {
      const double a = alpha_[static_cast<std::size_t>(i)];
      if (a == 0.0) continue;
      const int bvar = basis_[static_cast<std::size_t>(i)];
      value_[static_cast<std::size_t>(bvar)] -= enter_dir * step * a;
    }
    auto& state = state_[static_cast<std::size_t>(enter)];
    if (enter_dir > 0.0) {
      state = VarState::AtUpper;
      value_[static_cast<std::size_t>(enter)] =
          upper_[static_cast<std::size_t>(enter)];
    } else {
      state = VarState::AtLower;
      value_[static_cast<std::size_t>(enter)] =
          lower_[static_cast<std::size_t>(enter)];
    }
  }

  /// Edge weights after `enter` replaces the basic column of `leave_row`.
  /// Row i of the new B^{-1} is row i - (alpha_i / alpha_r) row r, and the
  /// dual Devex update (Forrest & Goldfarb 1992) keeps the larger of its old
  /// weight and that term's, which needs no B^{-1} rho solve; the new row r
  /// is row r / alpha_r.
  void update_edge_weights(int leave_row, int enter) {
    const double alpha_r = alpha_[static_cast<std::size_t>(leave_row)];
    const double w_r = edge_weight_[static_cast<std::size_t>(
        basis_[static_cast<std::size_t>(leave_row)])];
    for (int i = 0; i < form_->rows; ++i) {
      const double a = alpha_[static_cast<std::size_t>(i)];
      if (i == leave_row || a == 0.0) continue;
      const double ratio = a / alpha_r;
      double& w = edge_weight_[static_cast<std::size_t>(
          basis_[static_cast<std::size_t>(i)])];
      w = std::max(w, ratio * ratio * w_r);
    }
    edge_weight_[static_cast<std::size_t>(enter)] =
        std::max(w_r / (alpha_r * alpha_r), kMinEdgeWeight);
  }

  SolveStatus iterate(const std::vector<double>& costs);
  Repair dual_repair(const std::vector<double>& costs);
  /// A Solution with `status` and this engine's work charged; Optimal
  /// also fills the values, objective and duals.
  Solution result(SolveStatus status, const std::vector<double>& costs);
  /// A warm start gives up (nullopt, `reason` recorded); the logical start,
  /// which nothing backs up, reports IterationLimit instead.
  std::optional<Solution> give_up(WarmGiveUps reason,
                                  const std::vector<double>& costs) {
    if (logical_start_) return result(SolveStatus::IterationLimit, costs);
    give_ups_ = reason;
    return std::nullopt;
  }

  const Model& model_;
  SimplexOptions options_;
  std::shared_ptr<const StandardForm> form_;  ///< immutable part (shared)
  std::vector<double> lower_;    // per column
  std::vector<double> upper_;    // per column
  std::vector<VarState> state_;  // per column
  std::vector<double> value_;    // per column
  std::vector<int> basis_;       // basic column per row
  BasisLu lu_;

  std::vector<double> y_;          // duals scratch (rows)
  std::vector<double> cb_;         // basic costs scratch (rows)
  std::vector<double> alpha_;      // FTRANed entering column (rows)
  std::vector<double> work_;       // basic-value recompute scratch (rows)
  // Dual repair scratch, sized when it starts.
  std::vector<double> row_alpha_;  // pivot row (cols; +0 off touched_)
  std::vector<std::uint64_t> reached_;  // columns the pivot row reached
  std::vector<int> touched_;       // those columns, ascending
  std::vector<double> row_ratio_;  // dual ratios per column
  std::vector<double> repair_costs_;  // shifted, perturbed costs
  std::vector<double> repair_d_;  // reduced costs under repair_costs_ (cols)
  bool repair_d_valid_ = false;   // repair_d_ matches the current basis
  std::vector<int> candidates_;   // entering candidates, ascending
  std::vector<double> edge_weight_;  // dual pricing weight per basic column
  std::vector<int> basic_cols_scratch_;

  std::int64_t iterations_ = 0;
  std::int64_t btran_solves_ = 0;
  std::int64_t iteration_limit_ = 0;
  bool logical_start_ = false;  ///< started from the all-logical basis
  bool started_ = false;
  WarmGiveUps give_ups_;
};

SolveStatus RevisedSimplex::iterate(const std::vector<double>& costs) {
  int stalled = 0;

  while (true) {
    if (++iterations_ > iteration_limit_) return SolveStatus::IterationLimit;
    if (lu_.should_refactorize() && !refactorize()) {
      return SolveStatus::IterationLimit;  // numerically singular basis
    }
    const bool bland = stalled >= kStallThreshold;

    // --- Pricing: pick an entering column with a profitable direction. ---
    compute_duals(costs);
    int enter = -1;
    double enter_dir = 0.0;
    double best_score = kLpTolerance;
    for (int j = 0; j < form_->cols; ++j) {
      const auto sj = state_[static_cast<std::size_t>(j)];
      if (sj == VarState::Basic) continue;
      const double lo = lower_[static_cast<std::size_t>(j)];
      const double hi = upper_[static_cast<std::size_t>(j)];
      if (lo == hi) continue;  // fixed (= row logicals, pinned columns)
      const double d = costs[static_cast<std::size_t>(j)] - column_dot(j, y_);
      double dir = 0.0;
      if (sj == VarState::AtLower && d < -kLpTolerance) dir = 1.0;
      if (sj == VarState::AtUpper && d > kLpTolerance) dir = -1.0;
      if (dir == 0.0) continue;
      if (bland) {
        enter = j;
        enter_dir = dir;
        break;
      }
      // Dantzig pricing with a first-wins margin: a later column must beat
      // the pick by kDualPickTie, so near-tied reduced costs (symmetric apps
      // produce many) resolve to the smallest index.
      if (std::abs(d) > best_score + kDualPickTie * (1.0 + best_score)) {
        best_score = std::abs(d);
        enter = j;
        enter_dir = dir;
      }
    }
    if (enter == -1) return SolveStatus::Optimal;

    // --- Ratio test on the FTRANed column: how far can it move? ---
    ftran_column(enter);
    double alpha_scale = 0.0;
    for (int i = 0; i < form_->rows; ++i) {
      alpha_scale =
          std::max(alpha_scale, std::abs(alpha_[static_cast<std::size_t>(i)]));
    }
    // Purely scale-relative: a uniformly tiny column (badly scaled slot
    // problems) still pivots on its relatively-large entries, while noise
    // entries of a large column stay ineligible. Zero columns skip rows
    // entirely (eligible == 0 with a <= comparison).
    const double eligible = kPivotTolerance * alpha_scale;

    double t_best = upper_[static_cast<std::size_t>(enter)] -
                    lower_[static_cast<std::size_t>(enter)];
    int leave_row = -1;
    bool leave_to_upper = false;
    for (int i = 0; i < form_->rows; ++i) {
      const double alpha = enter_dir * alpha_[static_cast<std::size_t>(i)];
      if (std::abs(alpha) <= eligible) continue;
      const int bvar = basis_[static_cast<std::size_t>(i)];
      const double xv = value_[static_cast<std::size_t>(bvar)];
      double t = kInfinity;
      bool to_upper = false;
      if (alpha > 0.0) {  // basic variable decreases toward its lower bound
        t = (xv - lower_[static_cast<std::size_t>(bvar)]) / alpha;
      } else {  // basic variable increases toward its upper bound
        const double hi = upper_[static_cast<std::size_t>(bvar)];
        if (!std::isfinite(hi)) continue;
        t = (hi - xv) / (-alpha);
        to_upper = true;
      }
      t = std::max(t, 0.0);
      // Strictly smaller step wins (ties measured relative to the step
      // scale; zero while t_best is still the unbounded sentinel); under
      // Bland's rule, ties break toward the smallest basic variable index
      // to guarantee anti-cycling.
      const double tie =
          std::isfinite(t_best) ? kRatioTie * (1.0 + std::abs(t_best)) : 0.0;
      if (t < t_best - tie ||
          (bland && leave_row >= 0 && t <= t_best + tie &&
           bvar < basis_[static_cast<std::size_t>(leave_row)])) {
        t_best = t;
        leave_row = i;
        leave_to_upper = to_upper;
      }
    }

    if (!std::isfinite(t_best)) return SolveStatus::Unbounded;
    stalled = t_best <= kLpTolerance ? stalled + 1 : 0;

    if (leave_row == -1) {
      bound_flip(enter, enter_dir, t_best);
      continue;
    }
    if (!change_basis(leave_row, enter, enter_dir, t_best, leave_to_upper)) {
      return SolveStatus::IterationLimit;  // numerically singular basis
    }
  }
}

RevisedSimplex::Repair RevisedSimplex::dual_repair(
    const std::vector<double>& costs) {
  // A warm start gets a tight budget, separate from the global pivot limit:
  // a genuinely warm basis repairs in far fewer pivots than the logical
  // start takes, so once the repair rivals that cost (or, despite the cost
  // perturbation, stalls on degeneracy) it is cheaper to give up early and
  // restart from the logical basis than to grind to the full limit. The
  // logical start has nothing to fall back on and gets the full limit.
  const std::int64_t repair_limit =
      logical_start_
          ? iteration_limit_
          : std::min(iteration_limit_, iterations_ + form_->rows + 100);
  const auto cols = static_cast<std::size_t>(form_->cols);
  row_alpha_.assign(cols, 0.0);
  reached_.assign((cols + 63) / 64, 0);
  touched_.resize(cols);
  row_ratio_.resize(cols);
  candidates_.resize(cols);
  std::size_t touched = 0;  // columns the last pivot row reached
  while (true) {
    if (++iterations_ > repair_limit) return Repair::Stall;
    if (lu_.should_refactorize() && !refactorize()) {
      return Repair::Singular;  // numerically singular basis: distrust it
    }

    // --- Leaving row, by dual steepest-edge pricing with Devex weights: the
    // largest squared bound violation over its weight, which approximates
    // the squared norm of that row of B^{-1}. sigma = +1 when the basic
    // variable must decrease (above upper), -1 when it must increase (below
    // lower). A later row must beat the pick by the kDualPickTie margin, so
    // near-tied scores resolve to the smallest row.
    int leave_row = -1;
    double best_viol = 0.0;
    double best_score = 0.0;
    double sigma = 0.0;
    for (int i = 0; i < form_->rows; ++i) {
      const int bvar = basis_[static_cast<std::size_t>(i)];
      const double v = value_[static_cast<std::size_t>(bvar)];
      const double above = v - upper_[static_cast<std::size_t>(bvar)];
      const double below = lower_[static_cast<std::size_t>(bvar)] - v;
      const double viol = std::max(above, below);
      if (viol <= kLpTolerance) continue;
      const double score =
          viol * viol / edge_weight_[static_cast<std::size_t>(bvar)];
      if (score > best_score * (1.0 + kDualPickTie)) {
        best_score = score;
        best_viol = viol;
        leave_row = i;
        sigma = above > below ? 1.0 : -1.0;
      }
    }
    if (leave_row < 0) return Repair::Done;  // primal feasible

    // --- Reduced costs under the repair costs: kept across pivots and
    // rebuilt from one BTRAN of the duals after a refactorization.
    if (!repair_d_valid_) {
      compute_duals(costs);
      for (int j = 0; j < form_->cols; ++j) {
        const auto jj = static_cast<std::size_t>(j);
        repair_d_[jj] =
            state_[jj] == VarState::Basic ? 0.0 : costs[jj] - column_dot(j, y_);
      }
      repair_d_valid_ = true;
    }

    // --- Pivot row: rho = B^{-T} e_r, and the row of B^{-1}A formed
    // row-wise over rho's nonzeros (pivot_row), in the bits per-column dots
    // give. One ascending pass over the columns it reached records them,
    // takes the row scale over the nonbasic ones and collects the entering
    // candidates in ascending column order: a candidate is a nonbasic,
    // non-fixed column that moves the violating basic variable toward its
    // bound. A column the row did not reach has alpha = +0, which is
    // neither a candidate nor part of the scale.
    std::fill(work_.begin(), work_.end(), 0.0);
    work_[static_cast<std::size_t>(leave_row)] = 1.0;
    btran(work_);
    for (std::size_t k = 0; k < touched; ++k) {
      row_alpha_[static_cast<std::size_t>(touched_[k])] = 0.0;
    }
    touched = 0;
    double row_scale = 0.0;
    std::size_t count = 0;
    const double rho_norm2 =
        pivot_row(*form_, work_, row_alpha_, reached_, [&](int j) {
          const auto jj = static_cast<std::size_t>(j);
          const auto sj = state_[jj];
          const double alpha = row_alpha_[jj];
          const bool nonbasic = sj != VarState::Basic;
          touched_[touched++] = j;
          row_scale = std::max(row_scale, nonbasic ? std::abs(alpha) : 0.0);
          // Moving up (at lower) or down (at upper) must shrink the
          // violation; a fixed column cannot move.
          const double gain = sigma * alpha;
          const bool shrinks =
              sj == VarState::AtLower ? !(gain <= 0.0) : !(gain >= 0.0);
          candidates_[count] = j;
          count += static_cast<std::size_t>(
              nonbasic & !(lower_[jj] == upper_[jj]) & shrinks);
        });
    // The leaving row's weight is reset to ||rho||^2, its exact value.
    edge_weight_[static_cast<std::size_t>(
        basis_[static_cast<std::size_t>(leave_row)])] = rho_norm2;

    // --- Dual ratios: a candidate whose |alpha| clears the row-relative
    // pivot tolerance gets |d_j / alpha|, how far the duals can move before
    // its reduced cost changes sign. The cascade below consumes candidates
    // in ratio order (smallest first, largest |alpha| among near-ties —
    // under dual degeneracy many candidates tie at ratio zero, and picking
    // them by index admits microscopic pivots). Ties in the |alpha| pick
    // break to the smallest column index (deterministic).
    const double eligible = kPivotTolerance * row_scale;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const int j = candidates_[k];
      const auto jj = static_cast<std::size_t>(j);
      if (std::abs(row_alpha_[jj]) <= eligible) continue;
      row_ratio_[jj] = std::max(0.0, repair_d_[jj] / (sigma * row_alpha_[jj]));
      candidates_[kept++] = j;
    }
    const std::span<const int> candidates(candidates_.data(), kept);
    if (candidates.empty()) {
      // No column can reduce the violation: this row proves the bounds
      // cannot be met (the dual is unbounded), i.e. the LP is infeasible.
      return Repair::Infeasible;
    }

    // --- Long-step flip cascade. Candidates whose step overshoots their box
    // are flipped (no basis change) and consumed; the cascade continues on
    // the same row until a candidate absorbs the rest of the violation with
    // a true basis change, or flips alone repair the row. Consuming flipped
    // candidates inside one ratio pass is what terminates: a zero-ratio flip
    // makes no dual progress, so without it two rows can trade the same
    // flip back and forth forever. Flips leave the basis — and therefore
    // every candidate's alpha and reduced cost — unchanged, so the ratios
    // computed above stay valid throughout the cascade.
    // A candidate dropped as numerically untrustworthy proves nothing, so
    // a row that runs out of candidates after one was dropped is numerical
    // trouble (Singular), not an infeasibility proof.
    double remaining = best_viol;
    bool distrusted = false;
    while (true) {
      double cur_best = kInfinity;
      for (const int j : candidates) {
        cur_best = std::min(cur_best, row_ratio_[static_cast<std::size_t>(j)]);
      }
      if (cur_best == kInfinity) {
        return distrusted ? Repair::Singular : Repair::Infeasible;
      }
      const double ratio_window = cur_best + kDualPickTie * (1.0 + cur_best);
      int enter = -1;
      double enter_dir = 0.0;
      double enter_alpha = 0.0;
      for (const int j : candidates) {
        if (row_ratio_[static_cast<std::size_t>(j)] > ratio_window) continue;
        const double a = std::abs(row_alpha_[static_cast<std::size_t>(j)]);
        if (a > enter_alpha * (1.0 + kDualPickTie)) {
          enter_alpha = a;
          enter = j;
          enter_dir =
              state_[static_cast<std::size_t>(j)] == VarState::AtLower
                  ? 1.0
                  : -1.0;
        }
      }
      if (enter < 0) return Repair::Infeasible;

      ftran_column(enter);
      const double alpha = alpha_[static_cast<std::size_t>(leave_row)];
      const double gain = sigma * alpha * enter_dir;
      const double step = remaining / gain;  // > 0 when gain is
      const double range = upper_[static_cast<std::size_t>(enter)] -
                           lower_[static_cast<std::size_t>(enter)];
      // Distrust the candidate when the FTRANed pivot disagrees in sign
      // with the rho-dot estimate (cancellation in one of the two), or when
      // a basis change would pivot on an entry the LU update refuses as
      // too small against its column: the basis it makes is numerically
      // singular.
      if (gain <= 0.0 ||
          (step <= range && !BasisLu::accepts_pivot(alpha_, leave_row))) {
        row_ratio_[static_cast<std::size_t>(enter)] = kInfinity;
        distrusted = true;
        continue;
      }
      if (step <= range) {
        // --- Basis change: the violating variable leaves exactly at the
        // bound it violated; the entering variable absorbs the step. The
        // duals move by theta * rho, so every nonbasic reduced cost (the
        // columns flipped above included) moves by -theta * alpha_rj, the
        // entering one to zero and the leaving one to -theta. Only the
        // columns the pivot row reached can have alpha_rj != 0.
        const double theta = repair_d_[static_cast<std::size_t>(enter)] /
                             row_alpha_[static_cast<std::size_t>(enter)];
        for (std::size_t k = 0; k < touched; ++k) {
          const auto jj = static_cast<std::size_t>(touched_[k]);
          if (state_[jj] == VarState::Basic || row_alpha_[jj] == 0.0) continue;
          repair_d_[jj] -= theta * row_alpha_[jj];
        }
        const int leaving = basis_[static_cast<std::size_t>(leave_row)];
        update_edge_weights(leave_row, enter);
        if (!change_basis(leave_row, enter, enter_dir, step, sigma > 0.0)) {
          return Repair::Singular;  // numerically singular basis
        }
        repair_d_[static_cast<std::size_t>(enter)] = 0.0;
        repair_d_[static_cast<std::size_t>(leaving)] = -theta;
        break;
      }
      // Box step: the entering variable hits its opposite bound before the
      // violation is fully resolved. Flip it, consume it, keep cascading;
      // the violation shrank strictly by range * |alpha|.
      bound_flip(enter, enter_dir > 0.0 ? 1.0 : -1.0, range);
      row_ratio_[static_cast<std::size_t>(enter)] = kInfinity;
      remaining -= range * gain;
      if (++iterations_ > repair_limit) return Repair::Stall;
      if (remaining <= kLpTolerance) break;  // flips repaired the row
    }
  }
}

Solution RevisedSimplex::result(SolveStatus status,
                               const std::vector<double>& costs) {
  Solution result;
  result.status = status;
  result.warm_started = !logical_start_;
  if (status != SolveStatus::Optimal) {
    work().charge(result);
    return result;
  }

  // Constraint duals: row i's logical is the unit column e_i with zero
  // cost, so its reduced cost is -y_i; undo the row flips to express the
  // dual against the model's orientation.
  recompute_basic_values();
  compute_duals(costs);
  result.duals.resize(static_cast<std::size_t>(form_->rows));
  for (int i = 0; i < form_->rows; ++i) {
    result.duals[static_cast<std::size_t>(i)] =
        form_->dual_sign[static_cast<std::size_t>(i)] *
        y_[static_cast<std::size_t>(i)];
  }

  result.values.resize(static_cast<std::size_t>(form_->structural));
  for (int j = 0; j < form_->structural; ++j) {
    double v = value_[static_cast<std::size_t>(j)];
    // Clean tiny drift against the (possibly overridden) bounds.
    v = std::max(v, lower_[static_cast<std::size_t>(j)]);
    if (std::isfinite(upper_[static_cast<std::size_t>(j)])) {
      v = std::min(v, upper_[static_cast<std::size_t>(j)]);
    }
    result.values[static_cast<std::size_t>(j)] = v;
  }
  result.objective = model_.objective_value(result.values);
  work().charge(result);
  return result;
}

std::optional<Solution> RevisedSimplex::solve() {
  const std::vector<double> costs = objective_costs();

  // Primal feasibility of the starting basis under the current bounds.
  double primal_viol = 0.0;
  for (int i = 0; i < form_->rows; ++i) {
    const int bvar = basis_[static_cast<std::size_t>(i)];
    const double v = value_[static_cast<std::size_t>(bvar)];
    primal_viol =
        std::max(primal_viol, v - upper_[static_cast<std::size_t>(bvar)]);
    primal_viol =
        std::max(primal_viol, lower_[static_cast<std::size_t>(bvar)] - v);
  }

  if (primal_viol > kLpTolerance) {
    // Dual repair needs a dual-feasible start. A parent-optimal basis under
    // unchanged costs has one by construction, and so does the logical
    // basis of an LP whose costs are all nonnegative (every slot problem's).
    // Otherwise — the costs moved since the seed basis was optimal (a new
    // slot's demand re-weights the objective), or the logical start of an
    // LP with negative costs — restore it the boxed-variable way:
    // bound-flip every nonbasic variable whose reduced cost has the wrong
    // sign. A variable with an infinite opposite bound cannot be flipped;
    // its *repair* cost is shifted instead so that its reduced cost is zero
    // (cost shifting). Every nonbasic repair cost of a costed column is then
    // perturbed toward its dual-feasible side (kRepairPerturbation), which
    // breaks the zero-ratio ties of a dual-degenerate start. The repair runs on these
    // costs alone: primal feasibility, and the row proof behind an
    // Infeasible verdict, do not depend on the costs, and Phase II below
    // prices with the true costs, so statuses and optima are those of the
    // true LP.
    compute_duals(costs);
    repair_costs_.assign(costs.begin(), costs.end());
    repair_d_.assign(static_cast<std::size_t>(form_->cols), 0.0);
    bool flipped = false;
    for (int j = 0; j < form_->cols; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      const auto sj = state_[jj];
      if (sj == VarState::Basic) continue;
      if (lower_[jj] == upper_[jj]) continue;  // fixed: cannot move
      const double d = costs[jj] - column_dot(j, y_);
      const bool at_lower = sj == VarState::AtLower;
      if (at_lower ? d < -kLpTolerance : d > kLpTolerance) {
        const double opposite = at_lower ? upper_[jj] : lower_[jj];
        if (std::isfinite(opposite)) {
          state_[jj] = at_lower ? VarState::AtUpper : VarState::AtLower;
          value_[jj] = opposite;
          flipped = true;
        } else {
          repair_costs_[jj] -= d;  // shifted: reduced cost zero
        }
      }
      const double step = costs[jj] == 0.0
                              ? 0.0
                              : kRepairPerturbation *
                                    (1.0 + std::abs(costs[jj])) *
                                    perturbation_spread(j);
      repair_costs_[jj] += state_[jj] == VarState::AtLower ? step : -step;
      // The duals of the true and the repair costs agree (basic columns keep
      // their true cost), so the repair's reduced cost is d plus the shift.
      repair_d_[jj] = d + (repair_costs_[jj] - costs[jj]);
    }
    repair_d_valid_ = true;
    if (flipped) recompute_basic_values();
    switch (dual_repair(repair_costs_)) {
      case Repair::Stall:
        return give_up({.repair_stall = 1}, costs);
      case Repair::Singular:
        return give_up({.singular = 1}, costs);
      case Repair::Infeasible:
        return result(SolveStatus::Infeasible, costs);
      case Repair::Done:
        break;
    }
  }

  // Phase II from a primal-feasible basis (reduced costs are recomputed
  // every iteration, so any drift accumulated during repair is corrected).
  const SolveStatus status = iterate(costs);
  if (status == SolveStatus::IterationLimit) {
    return give_up({.phase2_limit = 1}, costs);
  }
  return result(status, costs);
}

}  // namespace

Solution solve_lp(const Model& model, const SimplexOptions& options) {
  return solve_lp(model, {}, {}, options);
}

Solution solve_lp(const Model& model, std::span<const double> lower,
                  std::span<const double> upper, const SimplexOptions& options,
                  const Basis* warm_start, bool emit_basis) {
  return solve_lp_live(model, lower, upper, options, warm_start, emit_basis,
                       nullptr, nullptr);
}

Solution solve_lp_live(const Model& model, std::span<const double> lower,
                       std::span<const double> upper,
                       const SimplexOptions& options, const Basis* warm_start,
                       bool emit_basis, const LpState* resume, LpState* keep) {
  util::check(lower.empty() ||
                  lower.size() == static_cast<std::size_t>(model.num_variables()),
              "solve_lp: lower override size mismatch");
  util::check(upper.empty() ||
                  upper.size() == static_cast<std::size_t>(model.num_variables()),
              "solve_lp: upper override size mismatch");
  for (std::size_t j = 0; j < lower.size(); ++j) {
    if (lower[j] > upper[j]) {
      Solution infeasible;
      infeasible.status = SolveStatus::Infeasible;
      return infeasible;
    }
  }

  // One engine per attempt: the resumed parent state or the Basis rebuild
  // first, then the all-logical basis, which always answers. Accounting:
  //  - exactly one attempt serves each call: warm_started is true iff a
  //    warm engine (resumed or rebuilt) produced the Solution, and
  //    branch-and-bound counts warm_lp_solves/cold_lp_solves off that flag,
  //    so a rejected seed counts one cold solve and no warm one;
  //  - an abandoned attempt's work (iterations, factorization pivots,
  //    BTRANs) is read once, after it gives up, and charged to the Solution
  //    that finally serves the call, so no elimination is counted twice;
  //  - its reason lands in that Solution's warm_give_ups (a shape mismatch
  //    makes no attempt and counts nothing).
  LpWork wasted;
  WarmGiveUps give_ups;
  const auto attempt = [&](RevisedSimplex& engine) -> std::optional<Solution> {
    std::optional<Solution> solution;
    if (engine.started()) solution = engine.solve();
    if (!solution) {
      wasted += engine.work();
      give_ups += engine.give_ups();
      return std::nullopt;
    }
    wasted.charge(*solution);
    solution->warm_give_ups = give_ups;
    if (solution->status == SolveStatus::Optimal) {
      if (emit_basis) solution->basis = engine.extract_basis();
      if (keep != nullptr) *keep = std::move(engine).release_state();
    }
    return solution;
  };
  if (resume != nullptr) {
    RevisedSimplex engine(model, lower, upper, options, *resume);
    if (auto solution = attempt(engine)) return *std::move(solution);
    // A Basis rebuild would restart from the basis this attempt started
    // from and almost always stall in the same dual repair that made it
    // give up, so go straight to the logical basis.
    warm_start = nullptr;
  }
  if (warm_start != nullptr && !warm_start->empty() &&
      warm_start->matches(model.num_variables(), model.num_constraints())) {
    RevisedSimplex engine(model, lower, upper, options, warm_start);
    if (auto solution = attempt(engine)) return *std::move(solution);
  }
  RevisedSimplex engine(model, lower, upper, options, nullptr);
  return *attempt(engine);
}

}  // namespace birp::solver
