// Inter-cell balancer: the cheap top level of the hierarchical scheme.
//
// Each cell's BirpScheduler only redistributes inside its cell; the
// partition cut removes every cross-cell collaboration path. This balancer
// restores a marginal amount of it per slot without touching any cell's
// MILP: it keeps a per-cell pressure summary (shed rate, busy fraction,
// relative backlog), and when the pressure gap between two cells exceeds a
// fixed margin (0.10) it moves a bounded slice of the hottest donor edge's
// demand to the coolest recipient edge pre-solve: kMoveFraction of each
// app's demand, within kNetworkFraction of the endpoints' network budget.
// The CellScheduler materializes each move as an inter-cell Flow in the
// merged decision, so global conservation and network accounting stay exact
// under sim::validate_and_repair. When the CellScheduler re-cuts its cells,
// recut() carries the pressure over membership-weighted: each new cell starts
// from the mean pressure of the old cells its members came from.
//
// Everything here is O(cells + devices + apps) straight-line arithmetic in
// a fixed order — deterministic at any thread count by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "birp/cluster/partition.hpp"
#include "birp/device/cluster.hpp"
#include "birp/sim/scheduler.hpp"

namespace birp::cluster {

/// Max fraction of a donor edge's per-app demand moved in one slot.
inline constexpr double kMoveFraction = 0.25;
/// Fraction of min(donor, recipient) per-slot network budget the balancer
/// may spend. Cell-local flows compete for the same budgets inside
/// validate_and_repair, so this cap bounds — not eliminates — repair-time
/// flow cancellation; it stays well under 1.
inline constexpr double kNetworkFraction = 0.5;

struct BalancerConfig {
  bool enabled = true;
};

/// Smoothed per-cell state the balancer steers by.
struct CellPressure {
  double shed = 0.0;  ///< EMA of dropped / demand per slot
  double busy = 0.0;  ///< EMA of accelerator busy fraction
};

/// One planned demand move (parent-cluster device indices).
struct Move {
  int app = 0;
  int from = 0;
  int to = 0;
  std::int64_t count = 0;
};

class InterCellBalancer {
 public:
  InterCellBalancer(const device::ClusterSpec& cluster, BalancerConfig config,
                    int cells);

  /// Plans this slot's moves from the slot demand, edge liveness, hints, and
  /// the smoothed pressure state. Never moves demand from or to a down edge,
  /// never into an edge whose import breaker is open for that app, and never
  /// more request-MB than kNetworkFraction of either endpoint's slot budget.
  [[nodiscard]] std::vector<Move> plan(const sim::SlotState& state,
                                       const Partition& partition);

  /// Post-merge feedback: a cell's slot demand and dropped counts.
  void record_decision(int cell, std::int64_t demand, std::int64_t dropped);
  /// Execution feedback: a cell's mean accelerator busy fraction this slot.
  void record_busy(int cell, double busy_fraction);

  [[nodiscard]] const CellPressure& pressure(int cell) const {
    return pressure_[static_cast<std::size_t>(cell)];
  }
  /// Re-cut handoff (CellScheduler::repartition): each cell of `next` takes
  /// the mean pressure of its members' cells under `old_cell_of`, summed in
  /// member order, so the smoothed signals keep steering instead of
  /// restarting from zero. moved_total() restarts at zero.
  void recut(const std::vector<int>& old_cell_of, const Partition& next);
  [[nodiscard]] std::int64_t moved_total() const noexcept {
    return moved_total_;
  }

 private:
  const device::ClusterSpec& cluster_;
  BalancerConfig config_;
  std::vector<CellPressure> pressure_;
  std::int64_t moved_total_ = 0;
};

}  // namespace birp::cluster
