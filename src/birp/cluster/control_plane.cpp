#include "birp/cluster/control_plane.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "birp/util/check.hpp"

namespace birp::cluster {
namespace {

/// Trigger: any cell's live members / live-members-at-cut below this.
constexpr double kMinCellLiveFraction = 0.5;
/// Trigger: max - min balancer shed EMA across cells above this.
constexpr double kPressureSpreadThreshold = 0.35;

}  // namespace

ControlPlane::ControlPlane(const device::ClusterSpec& cluster,
                           const util::Grid2<double>* links,
                           ControlPlaneConfig config)
    : cluster_(cluster),
      config_(std::move(config)),
      health_(cluster.num_devices(), config_.health) {
  util::check(config_.churn_threshold >= 1,
              "ControlPlane: churn_threshold must be >= 1");
  util::check(config_.cooldown_slots >= 0,
              "ControlPlane: cooldown_slots must be >= 0");
  affinity_ = build_affinity(cluster_, links, config_.partition.objective);
  inner_ = std::make_unique<CellScheduler>(cluster_, plan_partition(),
                                           config_.cell);
  snapshot_baseline();
}

std::string ControlPlane::name() const {
  if (!config_.name_override.empty()) return config_.name_override;
  return "BIRP-CP/" + std::to_string(inner_->cells());
}

Partition ControlPlane::plan_partition() const {
  const int K = cluster_.num_devices();
  std::vector<int> live;
  live.reserve(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) {
    if (health_.is_live(k)) live.push_back(k);
  }
  // A fully dead cluster has nothing to optimize; partition as if healthy so
  // the scheduler object stays well-formed (every decision drops anyway).
  if (live.empty()) {
    for (int k = 0; k < K; ++k) live.push_back(k);
  }
  const int n = static_cast<int>(live.size());

  // Cut the surviving subgraph only: dead edges must not anchor cells.
  util::Grid2<double> sub(n, n, 0.0);
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      sub(a, b) = affinity_(live[static_cast<std::size_t>(a)],
                            live[static_cast<std::size_t>(b)]);
    }
  }
  PartitionConfig sub_config = config_.partition;
  sub_config.cells = std::max(1, std::min(config_.partition.cells, n));
  const Partition on_live = partition_affinity(sub, sub_config);

  // Lift back to the full device set: live edges keep their sub-cell; each
  // dead edge is attached to its highest-affinity live neighbor's cell (its
  // region's demand keeps arriving, so it must live somewhere — and when it
  // recovers it wakes next to the edges it collaborates best with).
  std::vector<int> cell_of(static_cast<std::size_t>(K), -1);
  for (int a = 0; a < n; ++a) {
    cell_of[static_cast<std::size_t>(live[static_cast<std::size_t>(a)])] =
        on_live.cell_of[static_cast<std::size_t>(a)];
  }
  for (int k = 0; k < K; ++k) {
    if (cell_of[static_cast<std::size_t>(k)] >= 0) continue;
    int best = live.front();
    double best_w = -1.0;
    for (const int l : live) {
      const double w = affinity_(k, l);
      if (w > best_w) {  // ties -> lowest live id (fixed scan order)
        best_w = w;
        best = l;
      }
    }
    cell_of[static_cast<std::size_t>(k)] =
        cell_of[static_cast<std::size_t>(best)];
  }

  // Re-canonicalize (members sorted, cells ordered by smallest member): the
  // dead-edge attachment can move a cell's smallest device.
  const int cells = on_live.cells();
  std::vector<std::vector<int>> members(static_cast<std::size_t>(cells));
  for (int k = 0; k < K; ++k) {
    members[static_cast<std::size_t>(cell_of[static_cast<std::size_t>(k)])]
        .push_back(k);
  }
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(cells));
  for (int c = 0; c < cells; ++c) order.push_back(c);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return members[static_cast<std::size_t>(a)].front() <
           members[static_cast<std::size_t>(b)].front();
  });
  Partition result;
  result.cell_of.assign(static_cast<std::size_t>(K), -1);
  result.members.reserve(static_cast<std::size_t>(cells));
  for (const int c : order) {
    const int id = static_cast<int>(result.members.size());
    for (const int k : members[static_cast<std::size_t>(c)]) {
      result.cell_of[static_cast<std::size_t>(k)] = id;
    }
    result.members.push_back(std::move(members[static_cast<std::size_t>(c)]));
  }
  return result;
}

void ControlPlane::snapshot_baseline() {
  live_at_cut_ = health_.live_mask();
  const Partition& partition = inner_->partition();
  cell_live_at_cut_.assign(static_cast<std::size_t>(partition.cells()), 0);
  for (int c = 0; c < partition.cells(); ++c) {
    for (const int k : partition.members[static_cast<std::size_t>(c)]) {
      if (live_at_cut_[static_cast<std::size_t>(k)] != 0) {
        ++cell_live_at_cut_[static_cast<std::size_t>(c)];
      }
    }
  }
}

bool ControlPlane::should_repartition(int slot) const {
  if (slot - last_repartition_slot_ < config_.cooldown_slots) return false;
  const Partition& partition = inner_->partition();

  // Trigger 1: a cell lost too much of the live membership it was cut with.
  for (int c = 0; c < partition.cells(); ++c) {
    const int at_cut = cell_live_at_cut_[static_cast<std::size_t>(c)];
    if (at_cut == 0) continue;
    int live_now = 0;
    for (const int k : partition.members[static_cast<std::size_t>(c)]) {
      if (health_.is_live(k)) ++live_now;
    }
    if (static_cast<double>(live_now) <
        kMinCellLiveFraction * static_cast<double>(at_cut)) {
      return true;
    }
  }

  // Trigger 2: the debounced live set churned (downs or recoveries) — a mass
  // recovery deserves a re-cut as much as a mass failure does.
  int churn = 0;
  for (int k = 0; k < health_.edges(); ++k) {
    const bool was = live_at_cut_[static_cast<std::size_t>(k)] != 0;
    if (health_.is_live(k) != was) ++churn;
  }
  if (churn >= config_.churn_threshold) return true;

  // Trigger 3: the balancer's smoothed shed pressure is lopsided — the cut
  // no longer matches where the load lands.
  if (partition.cells() >= 2) {
    double lo = inner_->balancer().pressure(0).shed;
    double hi = lo;
    for (int c = 1; c < partition.cells(); ++c) {
      const double shed = inner_->balancer().pressure(c).shed;
      lo = std::min(lo, shed);
      hi = std::max(hi, shed);
    }
    if (hi - lo > kPressureSpreadThreshold) return true;
  }
  return false;
}

void ControlPlane::repartition(const sim::SlotState& state) {
  const auto start = std::chrono::steady_clock::now();
  Partition next = plan_partition();
  const Partition& current = inner_->partition();
  if (next.cell_of == current.cell_of) {
    // Same cut — nothing to hand off. Re-arm against the current live view
    // so the same stale baseline cannot re-fire every cooldown window.
    snapshot_baseline();
    last_repartition_slot_ = state.slot;
    return;
  }

  // Requests at risk: this slot's demand homed at edges changing cells.
  std::int64_t at_risk = 0;
  for (int k = 0; k < cluster_.num_devices(); ++k) {
    if (next.cell_of[static_cast<std::size_t>(k)] ==
        current.cell_of[static_cast<std::size_t>(k)]) {
      continue;
    }
    for (int i = 0; i < state.demand.rows(); ++i) {
      at_risk += state.demand(i, k);
    }
  }

  auto rebuilt =
      std::make_unique<CellScheduler>(cluster_, std::move(next), config_.cell);

  // State handoff, in fixed device order. TIR/MAB observations are the
  // expensive thing to lose — they carry over per edge. Warm-start bases
  // describe the old subclusters; the fresh cells start cold (and we make
  // that explicit), which costs one slow solve per cell, never a wrong one.
  for (int k = 0; k < cluster_.num_devices(); ++k) {
    const int old_cell = current.cell_of[static_cast<std::size_t>(k)];
    const int new_cell =
        rebuilt->partition().cell_of[static_cast<std::size_t>(k)];
    rebuilt->cell_mutable(new_cell).import_device_estimators(
        rebuilt->local_index(k),
        inner_->cell(old_cell).export_device_estimators(inner_->local_index(k)));
  }
  for (int c = 0; c < rebuilt->cells(); ++c) {
    rebuilt->cell_mutable(c).invalidate_warm_start();
    rebuilt->cell_mutable(c).set_slot(state.slot);
  }
  // Balancer pressure carries over membership-weighted, so the smoothed
  // shed/busy signals keep steering instead of restarting from zero.
  for (int c = 0; c < rebuilt->cells(); ++c) {
    const auto& members =
        rebuilt->partition().members[static_cast<std::size_t>(c)];
    CellPressure blended;
    for (const int k : members) {
      const auto& old = inner_->balancer().pressure(
          current.cell_of[static_cast<std::size_t>(k)]);
      blended.shed += old.shed;
      blended.busy += old.busy;
    }
    blended.shed /= static_cast<double>(members.size());
    blended.busy /= static_cast<double>(members.size());
    rebuilt->balancer_mutable().set_pressure(c, blended);
  }

  inner_ = std::move(rebuilt);
  snapshot_baseline();
  last_repartition_slot_ = state.slot;
  ++repartitions_;
  requests_at_risk_ += at_risk;
  const double latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  repartition_latency_ms_.push_back(latency_ms);
  repartition_at_risk_.push_back(at_risk);
}

sim::SlotDecision ControlPlane::decide(const sim::SlotState& state) {
  health_.observe(state.slot, state.edge_up);
  if (should_repartition(state.slot)) repartition(state);
  return inner_->decide(state);
}

void ControlPlane::observe(const sim::SlotFeedback& feedback) {
  inner_->observe(feedback);
}

std::int64_t ControlPlane::fallback_count() const noexcept {
  return inner_->fallback_count();
}

void ControlPlane::export_metrics(metrics::RunMetrics& metrics) const {
  for (const FailureEvent& e : health_.events()) {
    if (e.closed()) metrics.record_failure_event(e.mttr_slots());
  }
  for (std::size_t r = 0; r < repartition_latency_ms_.size(); ++r) {
    metrics.record_repartition(repartition_latency_ms_[r],
                               repartition_at_risk_[r]);
  }
}

}  // namespace birp::cluster
