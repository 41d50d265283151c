// Internal LP entry point with the live-state handoff (simplex.cpp).
//
// An optimal solve can move its live state out as an LpState: the standard
// form's immutable part (CSC matrix, scales, rhs, dual anchors), the mutable
// point (bounds, column states and values, basic column per row) and the
// factorized basis with its updates. A branch-and-bound child differs
// from its parent by one bound, so it resumes from that state — new
// structural bounds, each nonbasic column parked at its bound, basic values
// recomputed through the inherited LU — instead of rebuilding the form and
// refactorizing. A resumed attempt that gives up restarts straight from the
// all-logical basis; the Basis rebuild serves only calls without a resume
// state (the root LP's cross-slot warm start and children past
// branch-and-bound's state cap).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "birp/solver/basis_lu.hpp"
#include "birp/solver/model.hpp"
#include "birp/solver/simplex.hpp"
#include "birp/solver/solution.hpp"
#include "birp/solver/standard_form.hpp"

namespace birp::solver {

/// Feasibility and optimality tolerance of the simplex engine; branch and
/// bound accepts candidates within ten times it.
inline constexpr double kLpTolerance = 1e-7;

/// The live state of an optimal solve (see the header comment). `form` is
/// shared, never copied: its lower/upper/state/value arrays are empty
/// because those live here, per solve. A default-constructed LpState (null
/// form) holds nothing.
struct LpState {
  std::shared_ptr<const StandardForm> form;
  std::vector<double> lower;
  std::vector<double> upper;
  std::vector<VarState> state;
  std::vector<double> value;
  std::vector<int> basis;  ///< basic column per row
  BasisLu lu;              ///< factorization of `basis`, updates included
};

/// solve_lp with the live-state handoff: `resume`, when non-null, is the
/// parent's state to start from (it must come from a solve of the same
/// model), tried instead of `warm_start`; `keep`, when non-null, receives
/// this solve's state if it ends Optimal (left untouched otherwise).
[[nodiscard]] Solution solve_lp_live(const Model& model,
                                     std::span<const double> lower,
                                     std::span<const double> upper,
                                     const SimplexOptions& options,
                                     const Basis* warm_start, bool emit_basis,
                                     const LpState* resume, LpState* keep);

}  // namespace birp::solver
