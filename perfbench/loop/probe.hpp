// Measurement from outside the program: a sim::Scheduler decorator the
// engine calls instead of the workload's scheduler, and per-slot deltas of
// the schedulers' public counters.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "birp/core/birp_scheduler.hpp"
#include "birp/device/cluster.hpp"
#include "birp/device/tir.hpp"
#include "birp/sim/decision.hpp"
#include "birp/sim/scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What one decide call was given and returned, kept for the replays.
struct DecideCapture {
  birp::util::Grid2<std::int64_t> demand;
  std::vector<std::uint8_t> edge_up;
  std::optional<birp::sim::SchedulerHints> hints;
  birp::sim::SlotDecision decision;  ///< as decided, before validate/repair
  /// paper_birp: the TIR beliefs decide solved against, [k][i][j] over the
  /// zoo's max_variants (read after decide, before observe can move them).
  std::vector<birp::device::TirParams> believed;
};

/// Forwards every call to the wrapped scheduler. Untraced, it only sums the
/// slot's demand (for the conservation check); traced, it also times decide
/// and observe and captures decide's inputs and output.
class Probe final : public birp::sim::Scheduler {
 public:
  Probe(birp::sim::Scheduler& inner, const birp::device::ClusterSpec& cluster,
        bool traced, const birp::core::BirpScheduler* beliefs);

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] birp::sim::SlotDecision decide(
      const birp::sim::SlotState& state) override;
  void observe(const birp::sim::SlotFeedback& feedback) override;
  [[nodiscard]] std::int64_t fallback_count() const noexcept override {
    return inner_.fallback_count();
  }

  /// Readouts of the last slot (decide and observe run once per step).
  [[nodiscard]] std::int64_t demand_total() const noexcept { return demand_; }
  [[nodiscard]] double decide_ms() const noexcept { return decide_ms_; }
  [[nodiscard]] double observe_ms() const noexcept { return observe_ms_; }
  /// Time the probe spent capturing (inside the step, outside decide).
  [[nodiscard]] double probe_ms() const noexcept { return probe_ms_; }
  /// Hands over one entry per slot decided so far (traced runs only).
  [[nodiscard]] std::vector<DecideCapture> take_captures() noexcept {
    return std::move(captures_);
  }

 private:
  birp::sim::Scheduler& inner_;
  const birp::device::ClusterSpec& cluster_;
  bool traced_;
  const birp::core::BirpScheduler* beliefs_;
  std::int64_t demand_ = 0;
  double decide_ms_ = 0.0;
  double observe_ms_ = 0.0;
  double probe_ms_ = 0.0;
  std::vector<DecideCapture> captures_;
};

/// Cumulative solver counters of one BirpScheduler (one cell).
struct CellCounters {
  std::int64_t pivots = 0;
  std::int64_t factor_pivots = 0;
  std::int64_t nodes = 0;
  std::int64_t warm_lps = 0;
  std::int64_t cold_lps = 0;
  std::int64_t fallbacks = 0;

  bool operator==(const CellCounters&) const = default;
};

/// The scheduler's public counters at one instant. A repartition replaces
/// the control plane's CellScheduler, whose cells and counters restart at
/// zero; `repartitions` tells a delta that a rebuild happened in between.
struct CounterSnapshot {
  std::int64_t repartitions = 0;
  std::vector<CellCounters> cells;
  std::int64_t watchdog_trips = 0;
  std::int64_t degraded_cell_slots = 0;
  std::int64_t moved = 0;
};

[[nodiscard]] CounterSnapshot snapshot(const Instance& in);

/// What one slot added to the counters.
struct SlotCounters {
  CellCounters total;          ///< summed over cells
  int cells = 0;               ///< cells that existed after the slot
  int fallback_cells = 0;      ///< cells answered by greedy fallback or watchdog
  double pivot_skew = 0.0;     ///< max / mean of per-cell pivot deltas
  std::int64_t watchdog_trips = 0;
  std::int64_t degraded_cell_slots = 0;
  std::int64_t moved = 0;
  bool rebuilt = false;
};

[[nodiscard]] SlotCounters slot_delta(const CounterSnapshot& before,
                                      const CounterSnapshot& after);

}  // namespace perfbench
