#include "birp/solver/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "birp/solver/lp_engine.hpp"
#include "birp/util/check.hpp"

namespace birp::solver {
namespace {

/// Most parent LP states (lp_engine.hpp) one search holds at once. Each is
/// a copy of the form's mutable arrays plus an LU; beyond the cap, children
/// start from their parent's Basis instead, so a deep generic search cannot
/// pile up thousands of factorizations.
constexpr int kMaxLiveStates = 64;

/// Values within this distance of an integer are considered integral.
constexpr double kIntegralityTolerance = 1e-6;

/// One branch-and-bound node. Bounds are not stored: each node records a
/// single bound delta against its parent and the chain is materialized on
/// demand, so creating a node is O(1) instead of two O(n) vector copies.
struct Node {
  std::shared_ptr<const Node> parent;
  std::shared_ptr<const Basis> warm;  ///< parent LP's optimal basis (shared
                                      ///< by both children; may be null)
  /// Parent LP's live state, shared by both children and released when the
  /// node is popped, so it dies once both children have been. Null past
  /// kMaxLiveStates; the child then uses `warm`.
  std::shared_ptr<const LpState> live;
  int branch_var = -1;                ///< -1 only at the root
  double bound_value = 0.0;           ///< new bound for branch_var
  bool tighten_upper = false;  ///< true: upper := value, false: lower := value
  double bound = -kInfinity;   ///< parent LP objective: subtree lower bound
  double bound_q = -kInfinity;  ///< quantized bound, used for queue ordering
  int depth = 0;
  std::int64_t id = 0;  ///< assigned in push order; final ordering tiebreak
};

using NodePtr = std::shared_ptr<Node>;

/// Snaps a subtree bound to a 1e-8 absolute grid for frontier ordering, so
/// bounds that differ only by arithmetic noise compare equal and fall
/// through to the depth and push-order tiebreaks. Quantizing once keeps the
/// comparator an exact — hence strict-weak — ordering.
double quantize_bound(double bound) {
  return std::isfinite(bound) ? std::nearbyint(bound * 1e8) / 1e8 : bound;
}

struct NodeOrder {
  // Best-first: smaller (quantized) LP bound explored first; deeper nodes
  // win ties so the search dives toward incumbents; push order (id) breaks
  // the rest so the pop sequence is a pure function of the tree, never of
  // pointer values or thread timing.
  bool operator()(const NodePtr& a, const NodePtr& b) const {
    if (a->bound_q != b->bound_q) return a->bound_q > b->bound_q;
    if (a->depth != b->depth) return a->depth < b->depth;
    return a->id > b->id;
  }
};

/// Rebuilds the node's full bound vectors: root bounds tightened by every
/// delta on the path to the root. Min/max accumulation makes the result
/// independent of traversal order (deltas only ever tighten).
void materialize_bounds(const Node& node, std::span<const double> root_lower,
                        std::span<const double> root_upper,
                        std::vector<double>& lower, std::vector<double>& upper) {
  lower.assign(root_lower.begin(), root_lower.end());
  upper.assign(root_upper.begin(), root_upper.end());
  for (const Node* n = &node; n != nullptr; n = n->parent.get()) {
    if (n->branch_var < 0) continue;
    const auto j = static_cast<std::size_t>(n->branch_var);
    if (n->tighten_upper) {
      upper[j] = std::min(upper[j], n->bound_value);
    } else {
      lower[j] = std::max(lower[j], n->bound_value);
    }
  }
}

/// Picks the integer variable whose LP value is most fractional, i.e. whose
/// distance to the nearest integer is largest (maximal at 0.5). Scores
/// within kBranchTieWidth of the maximum count as tied and break to the
/// smallest variable index: in a degenerate slot LP several binaries sit at
/// 0.5 up to rounding noise, and that noise differs between a child that
/// resumes its parent's LU and one that refactorizes from the Basis. With a
/// strict comparison the two paths pick different branch variables and
/// reach different decisions on paper_large; with the width they agree.
constexpr double kBranchTieWidth = 1e-9;

int most_fractional(const Model& model, std::span<const double> values,
                    double tol) {
  int best = -1;
  double best_score = tol;
  for (int j = 0; j < model.num_variables(); ++j) {
    if (model.variable(j).type == VarType::Continuous) continue;
    const double v = values[static_cast<std::size_t>(j)];
    const double frac = v - std::floor(v);
    const double score = std::min(frac, 1.0 - frac);
    if (score > best_score + kBranchTieWidth) {
      best_score = score;
      best = j;
    }
  }
  return best;
}

/// Rounds the LP point to the nearest integers and accepts it as an
/// incumbent when it satisfies all constraints. Cheap and surprisingly
/// effective on BIRP's near-network structure.
bool try_rounding(const Model& model, std::span<const double> lp_values,
                  std::vector<double>& out, double feasibility_tol) {
  out.assign(lp_values.begin(), lp_values.end());
  for (int j = 0; j < model.num_variables(); ++j) {
    if (model.variable(j).type == VarType::Continuous) continue;
    auto& v = out[static_cast<std::size_t>(j)];
    // Degenerate LPs leave integer variables at 0.5 up to arithmetic noise:
    // snap the tie zone to the round-half-up side.
    const double frac = v - std::floor(v);
    v = std::abs(frac - 0.5) <= kBranchTieWidth ? std::floor(v) + 1.0
                                                : std::round(v);
    v = std::max(v, model.variable(j).lower);
    if (std::isfinite(model.variable(j).upper)) {
      v = std::min(v, model.variable(j).upper);
    }
  }
  return model.max_violation(out) <= feasibility_tol;
}

Solution branch_and_bound(const Model& model,
                          const BranchAndBoundOptions& options,
                          int& peak_live_states) {
  if (!model.has_integers()) {
    return solve_lp(model, {}, {}, options.lp,
                    options.warm_start ? options.root_basis : nullptr,
                    /*emit_basis=*/true);
  }

  const auto n = static_cast<std::size_t>(model.num_variables());

  Solution incumbent;
  incumbent.status = SolveStatus::IterationLimit;
  double incumbent_objective = std::numeric_limits<double>::infinity();

  // Heuristic incumbents: candidates are verified against the model before
  // acceptance, so callers may pass approximate repairs.
  const auto consider = [&](const std::vector<double>& candidate) {
    if (candidate.size() != n) return;
    if (model.max_violation(candidate) > kLpTolerance * 10) return;
    if (model.max_integrality_violation(candidate) >
        kIntegralityTolerance) {
      return;
    }
    const double obj = model.objective_value(candidate);
    if (obj < incumbent_objective) {
      incumbent_objective = obj;
      incumbent.values = candidate;
      incumbent.objective = obj;
      incumbent.status = SolveStatus::Feasible;
    }
  };

  // Cross-slot seed: the previous slot's (repaired) decision often remains
  // feasible and near-optimal, closing the gap before any node is solved.
  if (!options.seed_candidate.empty()) consider(options.seed_candidate);

  // Root bounds; integer bounds tightened to integral values up front.
  std::vector<double> root_lower(n);
  std::vector<double> root_upper(n);
  for (std::size_t j = 0; j < n; ++j) {
    root_lower[j] = model.variable(static_cast<int>(j)).lower;
    root_upper[j] = model.variable(static_cast<int>(j)).upper;
    if (model.variable(static_cast<int>(j)).type != VarType::Continuous) {
      root_lower[j] = std::ceil(root_lower[j] - 1e-9);
      if (std::isfinite(root_upper[j])) {
        root_upper[j] = std::floor(root_upper[j] + 1e-9);
      }
    }
  }

  // Parent LP states held for resuming children, counted by their deleter
  // (declared before the frontier, which may still hold some at exit).
  int live_states = 0;
  const auto hold = [&](LpState&& state) {
    peak_live_states = std::max(peak_live_states, ++live_states);
    return std::shared_ptr<const LpState>(
        new LpState(std::move(state)), [&live_states](const LpState* held) {
          --live_states;
          delete held;
        });
  };

  auto root = std::make_shared<Node>();
  if (options.warm_start && options.root_basis != nullptr &&
      !options.root_basis->empty()) {
    root->warm = std::make_shared<Basis>(*options.root_basis);
  }

  std::priority_queue<NodePtr, std::vector<NodePtr>, NodeOrder> open;
  open.push(std::move(root));
  std::int64_t next_id = 1;

  std::int64_t nodes = 0;
  std::int64_t total_pivots = 0;
  std::int64_t total_factor_pivots = 0;
  std::int64_t total_structural_factor_pivots = 0;
  std::int64_t total_btran_solves = 0;
  std::int64_t warm_solves = 0;
  std::int64_t cold_solves = 0;
  WarmGiveUps give_ups;
  bool any_lp_budget_hit = false;
  // Tightest lower bound among subtrees dropped unsolved (LP budget hit).
  // A node's `bound` is its parent's LP objective, which bounds the whole
  // subtree, so it stays valid even when the node's own LP never finished.
  double unresolved_bound = std::numeric_limits<double>::infinity();
  std::vector<double> lower;
  std::vector<double> upper;
  std::vector<double> rounded;
  Basis root_basis_out;

  const auto prune_threshold = [&] {
    return incumbent_objective -
           options.relative_gap * (1.0 + std::abs(incumbent_objective));
  };

  while (!open.empty() && nodes < options.max_nodes) {
    // Pop the best frontier node and prune it against the incumbent as it
    // stands now, so an incumbent found by the previous node already cuts.
    // Pruned pops count toward the node budget.
    const NodePtr node = open.top();
    open.pop();
    ++nodes;
    const std::shared_ptr<const LpState> resume = std::move(node->live);
    if (node->bound >= prune_threshold()) continue;

    materialize_bounds(*node, root_lower, root_upper, lower, upper);
    const Basis* start = options.warm_start ? node->warm.get() : nullptr;
    const bool emit = options.warm_start || node->id == 0;
    LpState live;
    Solution lp = solve_lp_live(model, lower, upper, options.lp, start, emit,
                                resume.get(),
                                options.warm_start ? &live : nullptr);
    total_pivots += lp.simplex_iterations;
    total_factor_pivots += lp.factor_pivots;
    total_structural_factor_pivots += lp.structural_factor_pivots;
    total_btran_solves += lp.btran_solves;
    give_ups += lp.warm_give_ups;
    if (lp.warm_started) {
      ++warm_solves;
    } else {
      ++cold_solves;
    }

    if (lp.status == SolveStatus::Infeasible) continue;
    if (lp.status == SolveStatus::Unbounded) {
      // An unbounded relaxation at the root means the MILP is unbounded or
      // ill-posed; deeper nodes inherit the verdict.
      Solution result;
      result.status = SolveStatus::Unbounded;
      result.nodes_explored = nodes;
      result.simplex_iterations = total_pivots;
      result.factor_pivots = total_factor_pivots;
      result.structural_factor_pivots = total_structural_factor_pivots;
      result.btran_solves = total_btran_solves;
      result.warm_give_ups = give_ups;
      return result;
    }
    if (lp.status == SolveStatus::IterationLimit) {
      any_lp_budget_hit = true;
      unresolved_bound = std::min(unresolved_bound, node->bound);
      continue;  // cannot trust this subtree's bound; drop it
    }

    if (node->id == 0) root_basis_out = lp.basis;

    if (lp.objective >= prune_threshold()) continue;

    const int branch_var =
        most_fractional(model, lp.values, kIntegralityTolerance);
    if (branch_var < 0) {
      // Integral LP optimum: new incumbent.
      if (lp.objective < incumbent_objective) {
        incumbent_objective = lp.objective;
        incumbent.values = lp.values;
        incumbent.objective = lp.objective;
        incumbent.status = SolveStatus::Feasible;
      }
      continue;
    }

    if (try_rounding(model, lp.values, rounded, kLpTolerance * 10)) {
      consider(rounded);
    }
    if (options.incumbent_heuristic) {
      consider(options.incumbent_heuristic(lp.values));
    }

    // Branch: both children share the parent pointer (one delta each), the
    // parent's live state to resume from, and its basis as the fallback.
    std::shared_ptr<const Basis> warm;
    if (options.warm_start && !lp.basis.empty()) {
      warm = std::make_shared<Basis>(std::move(lp.basis));
    }
    std::shared_ptr<const LpState> state;
    if (live.form != nullptr && live_states < kMaxLiveStates) {
      state = hold(std::move(live));
    }
    const double v = lp.values[static_cast<std::size_t>(branch_var)];
    auto down = std::make_shared<Node>();
    down->parent = node;
    down->warm = warm;
    down->live = state;
    down->branch_var = branch_var;
    down->bound_value = std::floor(v);
    down->tighten_upper = true;
    down->bound = lp.objective;
    down->bound_q = quantize_bound(lp.objective);
    down->depth = node->depth + 1;
    down->id = next_id++;
    auto up = std::make_shared<Node>();
    up->parent = node;
    up->warm = std::move(warm);
    up->live = std::move(state);
    up->branch_var = branch_var;
    up->bound_value = std::ceil(v);
    up->tighten_upper = false;
    up->bound = lp.objective;
    up->bound_q = quantize_bound(lp.objective);
    up->depth = node->depth + 1;
    up->id = next_id++;
    open.push(std::move(down));
    open.push(std::move(up));
  }

  incumbent.nodes_explored = nodes;
  incumbent.simplex_iterations = total_pivots;
  incumbent.factor_pivots = total_factor_pivots;
  incumbent.structural_factor_pivots = total_structural_factor_pivots;
  incumbent.btran_solves = total_btran_solves;
  incumbent.warm_lp_solves = warm_solves;
  incumbent.cold_lp_solves = cold_solves;
  incumbent.warm_give_ups = give_ups;
  incumbent.basis = std::move(root_basis_out);

  // The proven bound over everything not explored: the open frontier (the
  // queue is ordered by bound, so top() is its minimum) plus any subtrees
  // dropped with unfinished LPs. Computed at exit — never from a stale
  // mid-loop snapshot — and clamped by the incumbent so the reported
  // [best_bound, objective] interval always brackets the optimum.
  double frontier = unresolved_bound;
  if (!open.empty()) frontier = std::min(frontier, open.top()->bound);

  if (incumbent.values.empty()) {
    // No feasible integral point found. If the search space was exhausted
    // without LP failures the model is genuinely infeasible.
    incumbent.status = (open.empty() && !any_lp_budget_hit)
                           ? SolveStatus::Infeasible
                           : SolveStatus::IterationLimit;
    return incumbent;
  }

  if (open.empty() && !any_lp_budget_hit) {
    incumbent.status = SolveStatus::Optimal;
    incumbent.best_bound = incumbent.objective;
  } else {
    incumbent.status = SolveStatus::Feasible;
    incumbent.best_bound = std::min(frontier, incumbent.objective);
  }
  return incumbent;
}

}  // namespace

Solution solve_milp(const Model& model, const BranchAndBoundOptions& options) {
  int peak_live_states = 0;
  return branch_and_bound(model, options, peak_live_states);
}

int BranchAndBoundTestPeer::live_state_cap() noexcept { return kMaxLiveStates; }

Solution BranchAndBoundTestPeer::solve_milp(const Model& model,
                                            const BranchAndBoundOptions& options,
                                            int& peak_live_states) {
  peak_live_states = 0;
  return branch_and_bound(model, options, peak_live_states);
}

}  // namespace birp::solver
