// Self-healing cluster control plane over the hierarchical CellScheduler.
//
// The control plane sits behind the ordinary sim::Scheduler interface and
// closes the loop the sharded scheduler leaves open: a static partition is
// only as good as the cluster it was cut for. Per slot, before delegating the
// decision to the wrapped CellScheduler, it
//
//   1. feeds the slot's liveness mask to a HealthTracker (consecutive-miss
//      detection with hysteresis — see health.hpp), which yields a debounced
//      live set and per-outage FailureEvents for MTTR accounting;
//   2. evaluates the repartition triggers against that debounced view:
//        * a cell's live fraction (vs. its live membership when the current
//          partition was cut) fell below kMinCellLiveFraction (one half), or
//        * the debounced live set churned by at least churn_threshold edges
//          since the cut (covers mass recovery as well as mass failure), or
//        * the balancer's smoothed shed-pressure spread across cells exceeds
//          kPressureSpreadThreshold (0.35; the partition is fighting the
//          load);
//      all gated by a cooldown so storms cannot thrash the partitioner;
//   3. on trigger, live-repartitions: the partitioner re-runs on the
//      surviving subgraph, dead edges are attached to their highest-affinity
//      live neighbor's cell (they must live somewhere — demand in their
//      region keeps arriving), the partition is canonicalized, and, unless
//      the cut is unchanged, CellScheduler::repartition re-cuts the cells in
//      place. That is the whole handoff: per-edge TIR/MAB estimators move to
//      the new cells, the balancer's pressure EMAs carry over
//      membership-weighted, the cell pool stays, and each new cell's first
//      solve is cold (new subclusters have no basis yet; slower, never
//      wrong). The control plane keeps only what it owns: health, triggers,
//      the cut, and a per-re-cut log of latency and requests at risk.
//
// Determinism: health state, triggers, and the new partition are pure
// functions of the slot inputs in fixed edge/cell order; wall clock is
// measured for the repartition-latency metric but never steers a decision.
// Decisions are therefore bit-identical at any cell_threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "birp/cluster/cell_scheduler.hpp"
#include "birp/cluster/health.hpp"
#include "birp/cluster/partition.hpp"
#include "birp/device/cluster.hpp"
#include "birp/metrics/run_metrics.hpp"
#include "birp/sim/scheduler.hpp"
#include "birp/util/grid.hpp"

namespace birp::cluster {

struct ControlPlaneConfig {
  /// Configuration for the wrapped CellScheduler.
  CellSchedulerConfig cell;
  /// How to cut (and re-cut) the partition.
  PartitionConfig partition;
  HealthConfig health;
  /// Trigger: debounced live-set churn (downs + recoveries) since the cut.
  int churn_threshold = 2;
  /// Minimum slots between repartitions.
  int cooldown_slots = 8;
  std::string name_override;
};

class ControlPlane : public sim::Scheduler {
 public:
  /// `links` is the optional pairwise inter-edge bandwidth graph (copied);
  /// null falls back to the complete min-uplink graph, as in partition.hpp.
  ControlPlane(const device::ClusterSpec& cluster,
               const util::Grid2<double>* links, ControlPlaneConfig config = {});

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] sim::SlotDecision decide(const sim::SlotState& state) override;
  void observe(const sim::SlotFeedback& feedback) override;
  [[nodiscard]] std::int64_t fallback_count() const noexcept override;

  [[nodiscard]] const HealthTracker& health() const noexcept {
    return health_;
  }
  [[nodiscard]] const CellScheduler& scheduler() const noexcept {
    return inner_;
  }
  [[nodiscard]] const Partition& partition() const noexcept {
    return inner_.partition();
  }
  [[nodiscard]] std::int64_t repartitions() const noexcept {
    return static_cast<std::int64_t>(recuts_.size());
  }
  /// Total slot demand at edges whose cell changed, summed over handoffs.
  [[nodiscard]] std::int64_t requests_at_risk() const noexcept;

  /// Folds the run's control-plane measurements into `metrics`: one
  /// record_failure_event per *closed* health event (MTTR), one
  /// record_repartition per handoff. Call once, after the run.
  void export_metrics(metrics::RunMetrics& metrics) const;

 private:
  [[nodiscard]] bool should_repartition(int slot) const;
  void repartition(const sim::SlotState& state);
  /// Partition of the debounced-live subgraph with dead edges attached to
  /// their highest-affinity live neighbor's cell, canonicalized.
  [[nodiscard]] Partition plan_partition() const;
  /// Snapshot of the debounced view the current partition was cut against.
  void snapshot_baseline();

  const device::ClusterSpec& cluster_;
  ControlPlaneConfig config_;
  util::Grid2<double> affinity_;  ///< full-cluster affinity matrix, fixed
  HealthTracker health_;
  CellScheduler inner_;
  /// Debounced live mask at the last cut, per edge, and per-cell live counts
  /// at the cut (the live-fraction trigger's denominator).
  std::vector<std::uint8_t> live_at_cut_;
  std::vector<int> cell_live_at_cut_;
  int last_repartition_slot_ = 0;
  /// One record per re-cut: wall-clock latency and this slot's demand at
  /// edges that changed cells.
  struct Recut {
    double latency_ms = 0.0;
    std::int64_t at_risk = 0;
  };
  std::vector<Recut> recuts_;
};

}  // namespace birp::cluster
