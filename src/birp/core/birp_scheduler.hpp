// The BIRP scheduler (the paper's contribution) and its BIRP-OFF oracle
// variant.
//
// Per slot: look up believed TIR parameters (online: MAB lower-confidence
// estimates refreshed from execution feedback; offline: ground-truth curves
// profiled ahead of time), build the linearized slot problem, solve it with
// branch-and-bound, and extract an executable decision. If the solver returns
// nothing usable within budget, heuristic_decision — the round-and-repair
// planner behind B&B's incumbents — answers from the all-zero LP point: no
// flows, local serving lightest-first, accuracy upgrades, validation. The
// cell watchdog runs the same planner, without the MILP, for degraded cells.
#pragma once

#include <string>
#include <vector>

#include "birp/core/problem.hpp"
#include "birp/core/tir_estimator.hpp"
#include "birp/device/cluster.hpp"
#include "birp/sim/scheduler.hpp"
#include "birp/solver/branch_and_bound.hpp"

namespace birp::core {

struct BirpConfig {
  TirEstimatorConfig tuner;
  ProblemOptions problem;
  solver::BranchAndBoundOptions solver;
  /// Online mode tunes TIR hyperparameters from feedback; offline mode
  /// (BIRP-OFF) reads the cluster's oracle curves and ignores feedback.
  bool online = true;
  /// Optional display-name override (used by ablation variants).
  std::string name_override;

  BirpConfig() {
    // Per-slot scheduling must be real-time: a small node budget, a 2%
    // optimality gap, and the round-and-repair incumbent heuristic return
    // near-optimal plans quickly; the linearization ablation bench measures
    // the residual gap against exhaustive search on small instances.
    solver.max_nodes = 4;
    solver.relative_gap = 0.02;
  }
};

class BirpScheduler : public sim::Scheduler {
 public:
  BirpScheduler(const device::ClusterSpec& cluster, BirpConfig config = {});

  /// BIRP-OFF: offline-profiled TIR, no online tuning.
  [[nodiscard]] static BirpScheduler offline(const device::ClusterSpec& cluster,
                                             BirpConfig config = {});

  [[nodiscard]] std::string name() const override {
    if (!config_.name_override.empty()) return config_.name_override;
    return config_.online ? "BIRP" : "BIRP-OFF";
  }

  [[nodiscard]] sim::SlotDecision decide(const sim::SlotState& state) override;
  void observe(const sim::SlotFeedback& feedback) override;

  /// Builds the slot problem exactly as decide does and answers it with the
  /// fallback planner alone, without the MILP. The warm-start basis and
  /// values, the estimators and fallback_count() are left untouched.
  [[nodiscard]] sim::SlotDecision plan_without_solver(
      const sim::SlotState& state);

  /// Believed TIR parameters for the upcoming slot (diagnostics / tests).
  [[nodiscard]] device::TirParams believed_tir(int device, int app,
                                               int variant) const;

  // --- Scheduler-state handoff (live repartitioning, birp/cluster) ---------
  /// All of one device's TIR/MAB estimator state, in [app][variant] order.
  /// Empty in offline mode (oracle beliefs carry no state).
  [[nodiscard]] std::vector<TirEstimator> export_device_estimators(
      int device) const;
  /// Installs previously exported estimator state for `device`. No-op in
  /// offline mode or when `state` is empty; the slice size must match.
  void import_device_estimators(int device,
                                const std::vector<TirEstimator>& state);
  /// Drops the cross-slot warm-start basis and seed decision. Called after a
  /// handoff: the carried state describes a different subcluster, so reusing
  /// it would be wrong (the next solve starts cold, which is merely slower).
  void invalidate_warm_start();
  /// Sets the MAB slot clock (confidence-bound widths grow with ln(t)), so
  /// imported estimators keep aging on the global clock after a handoff.
  void set_slot(int slot) noexcept { slot_ = slot; }

  /// Cumulative solver diagnostics.
  [[nodiscard]] std::int64_t total_nodes() const noexcept {
    return total_nodes_;
  }
  [[nodiscard]] std::int64_t total_pivots() const noexcept {
    return total_pivots_;
  }
  [[nodiscard]] std::int64_t total_factor_pivots() const noexcept {
    return total_factor_pivots_;
  }
  [[nodiscard]] std::int64_t total_structural_factor_pivots() const noexcept {
    return total_structural_factor_pivots_;
  }
  [[nodiscard]] std::int64_t total_btran_solves() const noexcept {
    return total_btran_solves_;
  }
  [[nodiscard]] std::int64_t warm_lp_solves() const noexcept {
    return warm_lp_solves_;
  }
  [[nodiscard]] std::int64_t cold_lp_solves() const noexcept {
    return cold_lp_solves_;
  }
  /// Warm LP attempts abandoned for a cold solve, by reason.
  [[nodiscard]] const solver::WarmGiveUps& warm_give_ups() const noexcept {
    return warm_give_ups_;
  }
  [[nodiscard]] std::int64_t fallback_count() const noexcept override {
    return fallbacks_;
  }

 private:
  [[nodiscard]] std::size_t estimator_index(int device, int app,
                                            int variant) const;
  /// Builds this slot's problem from the believed TIR; options come from
  /// the liveness mask and the guard hints.
  [[nodiscard]] BuiltProblem build_problem(const sim::SlotState& state);
  /// believed_tir() as a TirLookup.
  [[nodiscard]] TirLookup believed_lookup() const;
  /// heuristic_decision from the all-zero LP point.
  [[nodiscard]] sim::SlotDecision fallback_plan(
      const BuiltProblem& problem, const sim::SlotState& state) const;

  const device::ClusterSpec& cluster_;
  BirpConfig config_;
  std::vector<TirEstimator> estimators_;  ///< [device][app][variant], online
  /// Cross-slot warm-start state: the previous slot's root-relaxation basis
  /// and usable decision. The basis is reused only when the new slot problem
  /// has the same shape. Each unusable (app, variant, edge) — a down edge or
  /// a variant above the ladder cap — adds an x <= 0 row, so the row count
  /// moves whenever liveness or ladder caps change, and that slot's root LP
  /// starts cold.
  solver::Basis prev_basis_;
  std::vector<double> prev_values_;
  int slot_ = 0;
  std::int64_t total_nodes_ = 0;
  std::int64_t total_pivots_ = 0;
  std::int64_t total_factor_pivots_ = 0;
  std::int64_t total_structural_factor_pivots_ = 0;
  std::int64_t total_btran_solves_ = 0;
  std::int64_t warm_lp_solves_ = 0;
  std::int64_t cold_lp_solves_ = 0;
  solver::WarmGiveUps warm_give_ups_;
  std::int64_t fallbacks_ = 0;
};

}  // namespace birp::core
