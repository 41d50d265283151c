#include "probe.hpp"

#include <chrono>

#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

CellCounters read_cell(const birp::core::BirpScheduler& s) {
  return {s.total_pivots(),    s.total_factor_pivots(), s.total_nodes(),
          s.warm_lp_solves(),  s.cold_lp_solves(),      s.fallback_count()};
}

}  // namespace

Probe::Probe(birp::sim::Scheduler& inner,
             const birp::device::ClusterSpec& cluster, bool traced,
             const birp::core::BirpScheduler* beliefs)
    : inner_(inner), cluster_(cluster), traced_(traced), beliefs_(beliefs) {}

birp::sim::SlotDecision Probe::decide(const birp::sim::SlotState& state) {
  demand_ = 0;
  for (const auto r : state.demand.raw()) demand_ += r;
  if (!traced_) return inner_.decide(state);

  const auto start = Clock::now();
  birp::sim::SlotDecision decision = inner_.decide(state);
  decide_ms_ = ms_since(start);

  const auto capture_start = Clock::now();
  DecideCapture capture;
  capture.demand = state.demand;
  capture.edge_up = state.edge_up;
  if (state.hints != nullptr) capture.hints = *state.hints;
  capture.decision = decision;
  if (beliefs_ != nullptr) {
    const int K = cluster_.num_devices();
    const int I = cluster_.num_apps();
    const int J = cluster_.zoo().max_variants();
    capture.believed.resize(static_cast<std::size_t>(K * I * J));
    for (int k = 0; k < K; ++k) {
      for (int i = 0; i < I; ++i) {
        for (int j = 0; j < cluster_.zoo().num_variants(i); ++j) {
          capture.believed[static_cast<std::size_t>((k * I + i) * J + j)] =
              beliefs_->believed_tir(k, i, j);
        }
      }
    }
  }
  captures_.push_back(std::move(capture));
  probe_ms_ = ms_since(capture_start);
  return decision;
}

void Probe::observe(const birp::sim::SlotFeedback& feedback) {
  if (!traced_) {
    inner_.observe(feedback);
    return;
  }
  const auto start = Clock::now();
  inner_.observe(feedback);
  observe_ms_ = ms_since(start);
}

CounterSnapshot snapshot(const Instance& in) {
  CounterSnapshot s;
  if (in.birp_scheduler != nullptr) {
    s.cells.push_back(read_cell(*in.birp_scheduler));
  }
  if (in.plane != nullptr) {
    const auto& cells = in.plane->scheduler();
    s.repartitions = in.plane->repartitions();
    for (int c = 0; c < cells.cells(); ++c) {
      s.cells.push_back(read_cell(cells.cell(c)));
    }
    s.watchdog_trips = cells.watchdog_trips();
    s.degraded_cell_slots = cells.degraded_cell_slots();
    s.moved = cells.balancer().moved_total();
  }
  return s;
}

SlotCounters slot_delta(const CounterSnapshot& before,
                        const CounterSnapshot& after) {
  // After a rebuild every counter of the new CellScheduler counts from zero,
  // so the slot's work is the new value itself.
  static const CounterSnapshot kZero;
  const bool rebuilt = after.repartitions != before.repartitions;
  const CounterSnapshot& base = rebuilt ? kZero : before;

  SlotCounters d;
  d.rebuilt = rebuilt;
  d.cells = static_cast<int>(after.cells.size());
  std::vector<double> cell_pivots;
  for (std::size_t c = 0; c < after.cells.size(); ++c) {
    const CellCounters zero;
    const CellCounters& b = c < base.cells.size() ? base.cells[c] : zero;
    const CellCounters& a = after.cells[c];
    d.total.pivots += a.pivots - b.pivots;
    d.total.factor_pivots += a.factor_pivots - b.factor_pivots;
    d.total.nodes += a.nodes - b.nodes;
    d.total.warm_lps += a.warm_lps - b.warm_lps;
    d.total.cold_lps += a.cold_lps - b.cold_lps;
    d.total.fallbacks += a.fallbacks - b.fallbacks;
    if (a.fallbacks > b.fallbacks) ++d.fallback_cells;
    cell_pivots.push_back(static_cast<double>(a.pivots - b.pivots));
  }
  d.watchdog_trips = after.watchdog_trips - base.watchdog_trips;
  d.degraded_cell_slots = after.degraded_cell_slots - base.degraded_cell_slots;
  d.moved = after.moved - base.moved;
  d.fallback_cells += static_cast<int>(d.degraded_cell_slots);
  d.pivot_skew = skew(cell_pivots);
  return d;
}

}  // namespace perfbench
