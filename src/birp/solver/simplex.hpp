// Bounded-variable primal simplex over sparse columns.
//
// Solves   min c'x   s.t.   Ax {<=,>=,=} b,   l <= x <= u
// with finite lower bounds (all BIRP variables are nonnegative) and possibly
// infinite upper bounds. Two phases: Phase I drives artificial variables to
// zero; Phase II optimizes the real objective. Nonbasic variables sit at a
// bound; bound flips are handled without basis changes. Dantzig pricing with
// a Bland's-rule fallback (after 40 consecutive degenerate pivots) guards
// against cycling under degeneracy.
//
// The engine is a revised simplex over a compressed-sparse-column snapshot
// of the standard form (standard_form.hpp). The basis is held as a sparse
// LU factorization (basis_lu.hpp: singletons peeled, Markowitz on the
// nucleus); each pivot is one Forrest–Tomlin update of U, and the basis is
// refactorized when BasisLu::should_refactorize fires (96 updates, or U
// plus the row etas past three times the fresh factors). Pricing, the ratio
// test, and the dual-repair path work off BTRAN/FTRAN solves, so a pivot
// costs O(nnz) rather than O(rows * cols) — this is what lets the slot
// problem scale to hundred-edge clusters. Phase I/II pricing solves for the
// duals afresh each iteration; the dual repair instead updates its reduced
// costs along the pivot row it already BTRANs, and rebuilds them at each
// refactorization.
//
// All feasibility and pivot comparisons are scale-relative: pivot
// eligibility is measured against the transformed column's (or row's)
// infinity norm, ratio-test ties against the step magnitude, and the
// Phase I infeasibility verdict against the rhs norm. Absolute cutoffs
// (1e-12 / 1e-6 historically) misfire as coefficients scale — tiny uniform
// scaling rejected every ratio-test pivot, huge rhs norms turned rounding
// noise into spurious Infeasible verdicts.
//
// This solver is the LP engine under the branch-and-bound MILP solver that
// replaces the paper's Gurobi dependency; per-node bound overrides let B&B
// branch without rebuilding the model.
//
// Warm starts: solve_lp can resume from a Basis snapshot of a previous
// optimal solve of the same model shape (previous slot, or a B&B parent
// past the live-state cap). The basis is refactorized against the current
// bounds; primal infeasibilities introduced by tightened bounds are
// repaired with a bounded-variable dual simplex before Phase II polishes —
// Phase I never runs on the warm path. The repair prices with its own cost
// vector: a wrong-sign reduced cost that cannot be bound-flipped (infinite
// opposite bound) has its repair cost shifted to make it zero, and every
// nonbasic repair cost is perturbed slightly toward dual feasibility to
// break degenerate ratio ties. Phase II and the returned duals use the true
// costs, so a re-weighted objective (a new slot's basis) is served warm.
// Only a singular basis, a repair that exhausts its budget or a Phase II
// that hits the pivot limit falls back to the cold two-phase path, and
// Solution::warm_give_ups records which. Warm starts are a pure
// optimization: statuses and objectives match the cold solver.
//
// Branch-and-bound children go one step further: they resume their
// parent's live engine state (shared standard form, point and LU with its
// updates; lp_engine.hpp) and skip both the form rebuild and the
// refactorization, falling back to the cold path if the resumed repair
// gives up.
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
/// model, seeds the solve from that basis (cold fallback on any mismatch,
/// singularity, repair stall or Phase II limit). The model's costs may
/// differ from those the basis was optimal for. `emit_basis` asks for Solution::basis to
/// be filled on Optimal, for reuse in a later warm start.
[[nodiscard]] Solution solve_lp(const Model& model,
                                std::span<const double> lower,
                                std::span<const double> upper,
                                const SimplexOptions& options = {},
                                const Basis* warm_start = nullptr,
                                bool emit_basis = false);

}  // namespace birp::solver
