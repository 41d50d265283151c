// Bounded-variable revised simplex over sparse columns.
//
// Solves   min c'x   s.t.   Ax {<=,>=,=} b,   l <= x <= u
// with finite lower bounds (all BIRP variables are nonnegative) and possibly
// infinite upper bounds. Every row has a logical column (standard_form.hpp),
// and every solve runs one algorithm from a starting basis: a
// cost-shifted, perturbed bounded dual simplex (the dual repair; Koberstein
// 2005) with dual steepest-edge pricing on Devex weights (Forrest & Goldfarb
// 1992) restores primal feasibility, then the primal simplex (Phase II) optimizes the true
// objective. Nonbasic variables sit at a bound; bound
// flips are handled without basis changes. Phase II prices with Dantzig's
// rule and a Bland's-rule fallback (after 40 consecutive degenerate pivots)
// against cycling under degeneracy.
//
// The starting basis is a warm one when the caller has it — a Basis
// snapshot of a previous optimal solve of the same model shape (previous
// slot, or a B&B parent past the live-state cap), refactorized against the
// current bounds, or a B&B parent's live state (lp_engine.hpp) — and the
// all-logical basis otherwise (a cold solve). The dual repair needs a
// dual-feasible start, which a parent-optimal basis under unchanged costs
// has. For anything else it restores one: a wrong-sign reduced cost is
// bound-flipped where the opposite bound is finite, and its *repair* cost is
// shifted to make it zero where it is not; every nonbasic repair cost is
// then perturbed toward dual feasibility to break degenerate ratio ties.
// Phase II and the returned duals use the true costs, so a re-weighted
// objective (a new slot's basis) is served warm. Since every slot-problem
// cost is >= 0, the logical basis is already dual feasible there. The
// pricing weights are exact for the logical basis (B = I); a warm basis
// starts from the same unit weights, which the updates refine.
//
// Verdicts: a violated row with no entering candidate in the dual ratio test
// proves infeasibility (cost-independent, so the shifted costs cannot fake
// it) — unless a candidate was dropped as numerically untrustworthy, which
// counts as a singular basis instead; an improving Phase II column with no
// blocking row proves unboundedness. A warm attempt that gives up — a singular basis, a repair
// past its budget of rows + 100 pivots, or a Phase II at the pivot limit —
// restarts from the logical basis, and Solution::warm_give_ups records
// which; the logical start's repair gets the whole pivot limit. Warm starts
// are a pure optimization: statuses and objectives match the cold solve.
//
// The engine works over a compressed-sparse-column snapshot of the standard
// form. The basis is held as a sparse LU factorization (basis_lu.hpp:
// singletons peeled, Markowitz on the nucleus); each pivot is one
// Forrest–Tomlin update of U, and the basis is refactorized when
// BasisLu::should_refactorize fires (96 updates, or U plus the row etas past
// three times the fresh factors). The logical basis is the identity and is
// not factorized. Pricing, the ratio tests and the dual repair work off
// BTRAN/FTRAN solves, so a pivot costs O(nnz) rather than O(rows * cols) —
// this is what lets the slot problem scale to hundred-edge clusters. Phase
// II solves for the duals afresh each iteration; the dual repair instead
// updates its reduced costs along the pivot row it already BTRANs, and
// rebuilds them at each refactorization.
//
// All pivot comparisons are scale-relative: pivot eligibility is measured
// against the transformed column's (or row's) infinity norm, and ratio-test
// ties against the step magnitude. Absolute cutoffs (1e-12 historically)
// misfire as coefficients scale — tiny uniform scaling rejected every
// ratio-test pivot.
//
// This solver is the LP engine under the branch-and-bound MILP solver that
// replaces the paper's Gurobi dependency; per-node bound overrides let B&B
// branch without rebuilding the model, and children resume their parent's
// live engine state instead of rebuilding the form and refactorizing.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "birp/solver/model.hpp"
#include "birp/solver/solution.hpp"

namespace birp::solver {

struct SimplexOptions {
  /// Pivot budget; <= 0 means automatic (scales with problem size).
  std::int64_t max_iterations = 0;
};

/// Solves the LP relaxation of `model` (integrality ignored).
[[nodiscard]] Solution solve_lp(const Model& model,
                                const SimplexOptions& options = {});

/// As above, with per-variable bound overrides (used by branch-and-bound).
/// `lower`/`upper` must each be empty or have one entry per model variable.
///
/// `warm_start`, when non-null, non-empty, and shape-compatible with the
/// model, seeds the solve from that basis (the all-logical basis on any
/// mismatch, singularity, repair stall or Phase II limit). The model's
/// costs may differ from those the basis was optimal for. `emit_basis` asks
/// for Solution::basis to be filled on Optimal, for reuse in a later warm
/// start.
[[nodiscard]] Solution solve_lp(const Model& model,
                                std::span<const double> lower,
                                std::span<const double> upper,
                                const SimplexOptions& options = {},
                                const Basis* warm_start = nullptr,
                                bool emit_basis = false);

}  // namespace birp::solver
