// Per-slot optimization problem builder (paper P1ᵗ / P2ᵗ after the Eq. 24
// linearization).
//
// Decision variables per slot t:
//   x_{ijk} ∈ {0,1}  deploy variant j of app i on edge k
//   z_{ijk} ∈ [0,β]  requests served by that deployment (z = x·b of the
//                    paper; the product is captured by z ≤ β·x, and b never
//                    appears elsewhere, so the bilinear term vanishes —
//                    the "quadratic" program reduces to a MILP)
//   e_{ik}, m_{ik}   requests exported from / imported to edge k (aggregated
//                    y^t_{ikk'}; exact because Eq. 9 charges both endpoints
//                    per forwarded request, so only row/column sums matter)
//   d_{ik} ≥ 0       dropped requests, charged a penalty above any model
//                    loss (engineering slack for infeasible overload)
//
// Constraints: conservation (Eq. 3+5), per-app flow balance, memory (Eq. 6),
// linearized compute (Eq. 25), network (Eq. 13/14 depending on x^{t-1}).
// Objective: Σ loss_{ij} z_{ijk} + Σ penalty_i d_{ik}   (Eq. 10).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "birp/device/cluster.hpp"
#include "birp/sim/decision.hpp"
#include "birp/solver/branch_and_bound.hpp"
#include "birp/solver/model.hpp"
#include "birp/util/grid.hpp"

namespace birp::core {

/// Supplies the TIR parameters the optimizer should believe for (k, i, j):
/// LCB estimates for online BIRP, oracle truth for BIRP-OFF.
using TirLookup =
    std::function<device::TirParams(int device, int app, int variant)>;

/// Supplies the serial latency gamma (seconds) the optimizer should believe
/// for (k, i, j). Empty means the cluster's exact table; supply a
/// predictor::LatencyPredictor-backed lambda to schedule against predicted
/// latencies (the nn-Meter role in the paper).
using GammaLookup = std::function<double(int device, int app, int variant)>;

/// Drop penalty = factor * worst loss of the app; exceeds 1 so serving is
/// always preferred when feasible. The OAEI baseline prices drops the same
/// way.
inline constexpr double kDropPenaltyFactor = 2.0;

struct ProblemOptions {
  /// Global ceiling on per-launch batch size (min'd with believed beta).
  int max_batch = 16;
  /// Multi-launch extension: a deployment may serve up to
  /// launch_multiplier * min(max_batch, beta) requests per slot, executed
  /// as back-to-back launches of the per-launch batch size. The paper's
  /// Eq. 5 merges each app's slot workload into a single batch (fine at
  /// its testbed's request rates); at realistic rates a runtime simply
  /// launches again. The linearized compute charge (Eq. 24's slope per
  /// request) remains a conservative overestimate of the true multi-launch
  /// cost, so feasibility is preserved. Set to 1 for the strict reading.
  int launch_multiplier = 3;
  /// Believed serial latencies; empty = cluster's exact gamma table.
  GammaLookup gamma_lookup;
  /// When false, exports/imports are pinned to zero — the NO-REDIST
  /// ablation that isolates batching benefit from redistribution benefit.
  bool allow_redistribution = true;
  /// Edge liveness mask (empty = every edge up). A down edge's serving,
  /// deployments, exports, and imports are all pinned to zero, so
  /// conservation forces its whole demand into drops — the capacity → 0
  /// masking that lets BIRP re-solve around a failed edge.
  std::vector<std::uint8_t> edge_up;
  /// Circuit-breaker avoidance (empty = none): avoid_import(i, k) != 0 pins
  /// app i's imports into edge k to zero, so the flow matching routes
  /// redistribution traffic around a tripped edge. Unlike edge_up this is
  /// one-directional: the edge still serves its own region and may export.
  util::Grid2<std::uint8_t> avoid_import;
  /// Degradation-ladder variant caps (empty = none): variant_cap[i] >= 0
  /// forbids variants with index > cap for app i (index order is smallest /
  /// cheapest first, so the ladder removes the most expensive variants).
  /// Disallowed variants get their serving and deployment pinned to zero.
  std::vector<int> variant_cap;

  /// Liveness of edge k under the "empty means all up" rule.
  [[nodiscard]] bool is_up(int k) const noexcept {
    return edge_up.empty() ||
           (k >= 0 && k < static_cast<int>(edge_up.size()) &&
            edge_up[static_cast<std::size_t>(k)] != 0);
  }
  /// Import permission under the "empty means unconstrained" rule.
  [[nodiscard]] bool import_allowed(int i, int k) const noexcept {
    return avoid_import.rows() == 0 || avoid_import(i, k) == 0;
  }
  /// Variant permission under the "empty means unconstrained" rule.
  [[nodiscard]] bool variant_allowed(int i, int j) const noexcept {
    if (i >= static_cast<int>(variant_cap.size())) return true;
    const int cap = variant_cap[static_cast<std::size_t>(i)];
    return cap < 0 || j <= cap;
  }
};

/// A built model plus the variable index maps needed to read a solution.
struct BuiltProblem {
  solver::Model model;
  util::Grid3<int> x;  ///< [app][variant][device] -> binary var index
  util::Grid3<int> z;  ///< [app][variant][device] -> integer var index
  util::Grid2<int> e;  ///< [app][device] -> export var index
  util::Grid2<int> m;  ///< [app][device] -> import var index
  util::Grid2<int> d;  ///< [app][device] -> drop var index
  std::vector<int> w;  ///< [device] -> peak working-set var index (Eq. 6')
  /// Per-launch kernel batch cap (launch_kernel_cap) used when converting
  /// served counts into launch sizes.
  util::Grid3<int> kernel_cap;
};

/// Per-launch kernel cap of variant j of app i on edge k: the smallest of
/// `max_batch`, the believed saturation `beta`, and the largest batch whose
/// activation reservation (mu * kernel) fits half the edge's memory (at
/// least 1). The memory term keeps large models deployable at small batches
/// instead of locking them out with a full-beta reservation.
[[nodiscard]] int launch_kernel_cap(const device::ClusterSpec& cluster,
                                    int max_batch, int beta, int k, int i,
                                    int j);

/// Builds the slot problem. `previous` may be null (slot 0): all deployments
/// then pay the model-switch network cost, matching P1ᵗ.
[[nodiscard]] BuiltProblem build_slot_problem(
    const device::ClusterSpec& cluster,
    const util::Grid2<std::int64_t>& demand,
    const sim::SlotDecision* previous, const TirLookup& tir,
    const ProblemOptions& options = {});

/// Round-and-repair planner: keeps the flows of the LP point `lp_values`
/// (rounded and matched), rebuilds each edge's serving plan under memory,
/// believed-compute and network budgets (the LP's variant allocation first,
/// then the lightest variants, then accuracy upgrades), and ends with
/// sim::validate_and_repair. Down edges and variants above the ladder cap
/// serve nothing. From the all-zero point it plans no flows and serves each
/// region locally: the slot's fallback when the MILP returns nothing usable
/// or is not run at all.
[[nodiscard]] sim::SlotDecision heuristic_decision(
    const BuiltProblem& problem, std::span<const double> lp_values,
    const device::ClusterSpec& cluster,
    const util::Grid2<std::int64_t>& demand,
    const sim::SlotDecision* previous, const TirLookup& tir,
    const ProblemOptions& options);

/// Problem-specific primal heuristic for the branch-and-bound solver:
/// heuristic_decision's plan as model-variable values, or an empty vector
/// when `lp_values` does not match the problem. This is what makes the
/// per-slot MILP solvable in real time at small node budgets.
[[nodiscard]] std::vector<double> heuristic_incumbent(
    const BuiltProblem& problem, std::span<const double> lp_values,
    const device::ClusterSpec& cluster,
    const util::Grid2<std::int64_t>& demand,
    const sim::SlotDecision* previous, const TirLookup& tir,
    const ProblemOptions& options);

/// Converts a MILP solution into an executable SlotDecision: rounds the
/// integer variables, reconstructs sparse flows from the aggregated
/// exports/imports (greedy transportation matching), and restores exact
/// request conservation (residuals become drops).
[[nodiscard]] sim::SlotDecision extract_decision(
    const BuiltProblem& problem, const solver::Solution& solution,
    const device::ClusterSpec& cluster,
    const util::Grid2<std::int64_t>& demand);

}  // namespace birp::core
