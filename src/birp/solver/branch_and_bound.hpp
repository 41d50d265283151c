// Branch-and-bound MILP solver over the bounded-variable simplex.
//
// Best-first search on the LP relaxation bound with most-fractional
// branching, a rounding heuristic at every node to seed incumbents early,
// and a node budget so per-slot scheduling stays real-time even when the
// tree would otherwise be deep. With the default budget the solver proves
// optimality on the instance sizes BIRP produces; when the budget is hit it
// returns the best incumbent with status Feasible plus the proven bound.
//
// The search is the classic serial loop: pop the best frontier node, prune
// it against the current incumbent, solve its LP, then round, branch or
// accept. Nodes store a parent pointer plus one bound delta instead of full
// lower/upper vectors (bounds are materialized on demand). A node that
// branches hands its LP's live state — standard form, point and factorized
// basis (lp_engine.hpp) — to both children, which resume from it with their
// one new bound instead of rebuilding and refactorizing; the state is freed
// once both children have been popped, and at most a fixed number (64) are
// held at once. Children beyond that cap warm-start from the parent's
// optimal Basis (see simplex.hpp); any failed warm attempt restarts from
// the all-logical basis transparently.
// Parallelism lives one level up, in cluster::CellScheduler, which solves
// independent cells concurrently.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "birp/solver/model.hpp"
#include "birp/solver/simplex.hpp"
#include "birp/solver/solution.hpp"

namespace birp::solver {

/// Optional problem-specific primal heuristic: given a (fractional) LP
/// point, return a feasible integral candidate, or an empty vector when no
/// repair was possible. Candidates are verified against the model before
/// acceptance, so the heuristic may be approximate.
using IncumbentHeuristic =
    std::function<std::vector<double>(std::span<const double> lp_values)>;

struct BranchAndBoundOptions {
  std::int64_t max_nodes = 20000;
  /// Relative optimality gap at which search stops early.
  double relative_gap = 1e-6;
  SimplexOptions lp;
  /// Problem-specific rounding/repair; naive nearest-integer rounding is
  /// always tried as well.
  IncumbentHeuristic incumbent_heuristic;

  /// Warm-start child node LPs from their parent's live LP state or optimal
  /// basis (and the root LP from `root_basis`). A failed attempt restarts
  /// from the all-logical basis transparently; disable only for A/B
  /// measurement (every node LP then starts from the logical basis).
  bool warm_start = true;
  /// Optional basis seeding the root relaxation (cross-slot warm start).
  /// Not owned; must outlive the solve. Ignored unless warm_start is set.
  const Basis* root_basis = nullptr;
  /// Optional integral candidate tried as the initial incumbent before any
  /// node is explored (e.g. the previous slot's repaired decision). Verified
  /// against the model; an infeasible seed is simply ignored.
  std::vector<double> seed_candidate;
};

/// Solves `model` to (attempted) integral optimality. Continuous variables
/// remain continuous. Integrality of Binary/Integer variables is enforced by
/// branching on bounds.
[[nodiscard]] Solution solve_milp(const Model& model,
                                  const BranchAndBoundOptions& options = {});

/// Test access to the search's internals; not part of the solver API.
struct BranchAndBoundTestPeer {
  /// Most parent LP states one search holds at once.
  [[nodiscard]] static int live_state_cap() noexcept;
  /// solve_milp that also reports the most parent LP states held at once.
  [[nodiscard]] static Solution solve_milp(const Model& model,
                                           const BranchAndBoundOptions& options,
                                           int& peak_live_states);
};

}  // namespace birp::solver
