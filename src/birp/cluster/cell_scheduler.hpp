// CellScheduler: hierarchical sharded scheduling for large edge clusters.
//
// Wraps one BirpScheduler per partition cell behind the ordinary
// sim::Scheduler interface, so the Simulator and the ServeEngine drive a
// sharded cluster exactly like a monolithic one. Per slot:
//
//   1. the InterCellBalancer plans bounded inter-cell demand moves from
//      per-cell pressure summaries (straight-line, on the calling thread);
//   2. the slot state is sliced per cell — demand submatrix, the previous
//      decision restricted to cell devices, edge_up subvector, guard hints
//      subgrid — against each cell's own sub-ClusterSpec;
//   3. cells solve concurrently, each with its own warm-start basis, TIR
//      estimators, and fault mask (a watchdog-degraded cell skips its MILP
//      and answers with the fallback planner,
//      BirpScheduler::plan_without_solver). The cell_threads pool workers
//      plus the calling thread claim cells longest-first — by descending
//      simplex pivots of the previous slot, ties by cell index
//      (longest_first) — through runtime::ThreadPool::run_claimed, so the
//      costliest cell starts at once and the caller solves instead of
//      waiting; each result lands in its own cell's slot;
//   4. cell decisions merge back into one global SlotDecision in fixed cell
//      order, with balancer moves appended as real inter-cell Flows so
//      conservation and network accounting stay exact under
//      sim::validate_and_repair.
//
// Determinism: cells are independent given their slices, the inner solver
// is deterministic, and the merge order is fixed, so decisions are
// bit-identical at any cell_threads. The claim order only decides which
// cell starts first, and it is itself a function of the deterministic
// pivot counters. With k = 1 and the balancer idle the
// wrapper is a byte-identical pass-through of the wrapped BirpScheduler.
//
// Re-cutting: repartition(next) rebuilds the cells in place for a new
// partition (the self-healing ControlPlane calls it when edges fail or
// recover). Every device's TIR/MAB estimators move from its old cell to its
// new one, the balancer's pressure carries over membership-weighted, and the
// cell pool stays. The new cells start with no warm-start basis (their first
// solve is cold: slower, never wrong), and the per-cell solver counters,
// watchdog counters, pivot history and strikes restart from zero, so the
// claim order after a re-cut is index order. fallback_count() keeps the
// retired cells' fallbacks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "birp/cluster/balancer.hpp"
#include "birp/cluster/partition.hpp"
#include "birp/core/birp_scheduler.hpp"
#include "birp/device/cluster.hpp"
#include "birp/runtime/thread_pool.hpp"
#include "birp/sim/scheduler.hpp"

namespace birp::cluster {

/// Per-cell solve watchdog: degraded operation for cells whose MILP stops
/// being real-time. A cell "overruns" a slot when its solve spends more than
/// pivot_budget simplex pivots (the deterministic proxy for wall-clock: the
/// solver is deterministic, so the pivot count is a pure function of the
/// inputs and never of thread timing) or lands in the solver fallback.
/// strike_threshold consecutive overruns trip the breaker: the cell serves
/// its next degraded_slots slots with the fallback planner alone
/// (BirpScheduler::plan_without_solver: no flows, local serving
/// lightest-first, accuracy upgrades, honouring liveness, ladder caps and
/// breaker hints), then the MILP is retried. Tripping never touches the
/// cell's warm-start or estimator state, so recovery resumes where the cell
/// left off.
struct CellWatchdogConfig {
  bool enabled = false;
  /// Max simplex pivots one cell solve may spend before it counts as an
  /// overrun.
  std::int64_t pivot_budget = 200000;
  /// Consecutive overruns before the cell is degraded.
  int strike_threshold = 2;
  /// Slots a tripped cell serves without the MILP before retrying it.
  int degraded_slots = 8;
};

struct CellSchedulerConfig {
  /// Per-cell scheduler configuration (shared by every cell).
  core::BirpConfig birp;
  BalancerConfig balancer;
  /// Pool workers that solve cells alongside the calling thread: N workers
  /// plus the caller, so 1 already solves two cells at a time; 0 solves
  /// every cell on the calling thread. Purely a latency knob: decisions are
  /// bit-identical at any value.
  int cell_threads = 0;
  /// Degraded-operation watchdog (off by default).
  CellWatchdogConfig watchdog;
  std::string name_override;
};

/// Claim order for the cell solves: cells by descending `pivots` (each
/// cell's simplex pivots in the previous slot), ties by cell index, so an
/// all-zero history gives index order.
[[nodiscard]] std::vector<int> longest_first(
    const std::vector<std::int64_t>& pivots);

class CellScheduler : public sim::Scheduler {
 public:
  /// `partition` must cover exactly the devices of `cluster`.
  CellScheduler(const device::ClusterSpec& cluster, Partition partition,
                CellSchedulerConfig config = {});

  /// Re-cuts the cells in place for `next`, which must cover exactly the
  /// devices of the cluster (see the header comment for what carries over
  /// and what restarts).
  void repartition(Partition next);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] sim::SlotDecision decide(const sim::SlotState& state) override;
  void observe(const sim::SlotFeedback& feedback) override;
  /// Solver-fallback slot count of every cell, retired ones included.
  [[nodiscard]] std::int64_t fallback_count() const noexcept override;

  [[nodiscard]] const Partition& partition() const noexcept {
    return partition_;
  }
  [[nodiscard]] const InterCellBalancer& balancer() const noexcept {
    return balancer_;
  }
  [[nodiscard]] int cells() const noexcept { return partition_.cells(); }
  /// The wrapped per-cell scheduler (diagnostics / tests).
  [[nodiscard]] const core::BirpScheduler& cell(int c) const {
    return *cells_[static_cast<std::size_t>(c)];
  }
  /// Parent device index -> index within its cell.
  [[nodiscard]] int local_index(int device) const {
    return local_of_[static_cast<std::size_t>(device)];
  }

  /// Watchdog diagnostics: breaker trips and cell-slots served degraded.
  [[nodiscard]] std::int64_t watchdog_trips() const noexcept {
    return watchdog_trips_;
  }
  [[nodiscard]] std::int64_t degraded_cell_slots() const noexcept {
    return degraded_cell_slots_;
  }

 private:
  /// Validates partition_ and builds what it determines: local_of_, one
  /// sub-spec and BirpScheduler per cell, the pool if it is wanted and
  /// missing, and zeroed per-cell bookkeeping and watchdog counters.
  void build_cells();
  /// Restriction of a full-cluster decision to `members` (local indexing);
  /// keeps only flows with both endpoints inside the cell.
  [[nodiscard]] sim::SlotDecision restrict_decision(
      const sim::SlotDecision& full, const std::vector<int>& members) const;

  const device::ClusterSpec& cluster_;
  Partition partition_;
  CellSchedulerConfig config_;
  std::vector<int> local_of_;  ///< parent device -> index within its cell
  /// Stable sub-spec ownership: each BirpScheduler holds a reference to its
  /// ClusterSpec for its whole lifetime.
  std::vector<std::unique_ptr<device::ClusterSpec>> specs_;
  std::vector<std::unique_ptr<core::BirpScheduler>> cells_;
  InterCellBalancer balancer_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  /// Per-decide scratch kept as members so the per-cell SlotState pointers
  /// (previous, hints) stay valid while cells solve on pool workers.
  std::vector<sim::SlotDecision> prev_scratch_;
  std::vector<sim::SchedulerHints> hints_scratch_;
  // Pivot and watchdog state (all updated in fixed cell order after the
  // solves join, from deterministic solver counters — bit-identical at any
  // cell_threads).
  std::vector<std::int64_t> last_pivots_;
  std::vector<std::int64_t> slot_pivots_;  ///< previous slot's, per cell
  std::vector<std::int64_t> last_fallbacks_;
  std::vector<int> strikes_;
  std::vector<int> degraded_until_;  ///< cell skips its MILP while slot <
  std::int64_t watchdog_trips_ = 0;
  std::int64_t degraded_cell_slots_ = 0;
  /// Fallbacks of the cells retired by repartition().
  std::int64_t retired_fallbacks_ = 0;
};

}  // namespace birp::cluster
