#include "birp/cluster/cell_scheduler.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "birp/util/check.hpp"

namespace birp::cluster {

std::vector<int> longest_first(const std::vector<std::int64_t>& pivots) {
  std::vector<int> order(pivots.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&pivots](int a, int b) {
    return pivots[static_cast<std::size_t>(a)] >
           pivots[static_cast<std::size_t>(b)];
  });
  return order;
}

CellScheduler::CellScheduler(const device::ClusterSpec& cluster,
                             Partition partition, CellSchedulerConfig config)
    : cluster_(cluster),
      partition_(std::move(partition)),
      config_(std::move(config)),
      balancer_(cluster, config_.balancer, partition_.cells()) {
  build_cells();
}

void CellScheduler::build_cells() {
  const int K = cluster_.num_devices();
  const int cells = partition_.cells();
  util::check(partition_.devices() == K,
              "CellScheduler: partition does not cover the cluster");
  local_of_.assign(static_cast<std::size_t>(K), -1);
  for (int c = 0; c < cells; ++c) {
    const auto& members = partition_.members[static_cast<std::size_t>(c)];
    util::check(!members.empty(), "CellScheduler: empty cell");
    for (int local = 0; local < static_cast<int>(members.size()); ++local) {
      const int k = members[static_cast<std::size_t>(local)];
      util::check(k >= 0 && k < K && local_of_[static_cast<std::size_t>(k)] < 0,
                  "CellScheduler: partition is not a partition");
      local_of_[static_cast<std::size_t>(k)] = local;
    }
  }
  for (int k = 0; k < K; ++k) {
    util::check(local_of_[static_cast<std::size_t>(k)] >= 0,
                "CellScheduler: orphan device outside every cell");
  }

  specs_.clear();
  cells_.clear();
  for (int c = 0; c < cells; ++c) {
    specs_.push_back(std::make_unique<device::ClusterSpec>(cluster_.subcluster(
        partition_.members[static_cast<std::size_t>(c)])));
    cells_.push_back(
        std::make_unique<core::BirpScheduler>(*specs_.back(), config_.birp));
  }
  if (pool_ == nullptr && config_.cell_threads > 0 && cells > 1) {
    pool_ = std::make_unique<runtime::ThreadPool>(
        static_cast<std::size_t>(config_.cell_threads));
  }
  const auto n = static_cast<std::size_t>(cells);
  prev_scratch_.assign(n, sim::SlotDecision{});
  hints_scratch_.assign(n, sim::SchedulerHints{});
  last_pivots_.assign(n, 0);
  slot_pivots_.assign(n, 0);
  last_fallbacks_.assign(n, 0);
  strikes_.assign(n, 0);
  degraded_until_.assign(n, 0);
  watchdog_trips_ = 0;
  degraded_cell_slots_ = 0;
}

void CellScheduler::repartition(Partition next) {
  // The old cells, and the sub-specs they reference, stay alive until every
  // device's estimators have moved to its new cell.
  const auto old_specs = std::move(specs_);
  const auto old_cells = std::move(cells_);
  const auto old_local_of = std::move(local_of_);
  const Partition old = std::exchange(partition_, std::move(next));
  build_cells();
  for (int k = 0; k < cluster_.num_devices(); ++k) {
    const auto dk = static_cast<std::size_t>(k);
    cells_[static_cast<std::size_t>(partition_.cell_of[dk])]
        ->import_device_estimators(
            local_of_[dk],
            old_cells[static_cast<std::size_t>(old.cell_of[dk])]
                ->export_device_estimators(old_local_of[dk]));
  }
  for (const auto& cell : old_cells) {
    retired_fallbacks_ += cell->fallback_count();
  }
  balancer_.recut(old.cell_of, partition_);
}

std::string CellScheduler::name() const {
  if (!config_.name_override.empty()) return config_.name_override;
  return (config_.birp.online ? std::string("BIRP-CLUSTER/")
                              : std::string("BIRP-OFF-CLUSTER/")) +
         std::to_string(partition_.cells());
}

sim::SlotDecision CellScheduler::restrict_decision(
    const sim::SlotDecision& full, const std::vector<int>& members) const {
  sim::SlotDecision local(full.apps(), full.max_variants(),
                          static_cast<int>(members.size()));
  for (int i = 0; i < full.apps(); ++i) {
    for (int j = 0; j < full.max_variants(); ++j) {
      for (int lk = 0; lk < static_cast<int>(members.size()); ++lk) {
        const int k = members[static_cast<std::size_t>(lk)];
        local.served(i, j, lk) = full.served(i, j, k);
        local.kernel(i, j, lk) = full.kernel(i, j, k);
      }
    }
    for (int lk = 0; lk < static_cast<int>(members.size()); ++lk) {
      local.drops(i, lk) =
          full.drops(i, members[static_cast<std::size_t>(lk)]);
    }
  }
  const int cell =
      partition_.cell_of[static_cast<std::size_t>(members.front())];
  for (const auto& flow : full.flows) {
    if (partition_.cell_of[static_cast<std::size_t>(flow.from)] != cell ||
        partition_.cell_of[static_cast<std::size_t>(flow.to)] != cell) {
      continue;  // crosses cells, or belongs to another cell
    }
    local.flows.push_back(
        sim::Flow{flow.app, local_of_[static_cast<std::size_t>(flow.from)],
                  local_of_[static_cast<std::size_t>(flow.to)], flow.count});
  }
  local.pad_partial_launches = full.pad_partial_launches;
  return local;
}

sim::SlotDecision CellScheduler::decide(const sim::SlotState& state) {
  const int I = cluster_.num_apps();
  const int K = cluster_.num_devices();
  const int cells = partition_.cells();
  util::check(state.demand.rows() == I && state.demand.cols() == K,
              "CellScheduler: demand does not match cluster");

  // 1. Top-level balancing: bounded demand moves between cells, planned on
  //    the calling thread so it is independent of cell_threads.
  const std::vector<Move> moves = balancer_.plan(state, partition_);
  util::Grid2<std::int64_t> adjusted = state.demand;
  for (const auto& move : moves) {
    adjusted(move.app, move.from) -= move.count;
    adjusted(move.app, move.to) += move.count;
  }

  // 2. Slice the slot state per cell.
  std::vector<sim::SlotState> cell_states(static_cast<std::size_t>(cells));
  for (int c = 0; c < cells; ++c) {
    const auto& members = partition_.members[static_cast<std::size_t>(c)];
    const int Kc = static_cast<int>(members.size());
    auto& cs = cell_states[static_cast<std::size_t>(c)];
    cs.slot = state.slot;
    cs.demand = util::Grid2<std::int64_t>(I, Kc, 0);
    for (int i = 0; i < I; ++i) {
      for (int lk = 0; lk < Kc; ++lk) {
        cs.demand(i, lk) = adjusted(i, members[static_cast<std::size_t>(lk)]);
      }
    }
    if (state.previous != nullptr) {
      // Restrict the *simulator-repaired* previous decision: cells must see
      // the same deployment history the runtime actually executed, which is
      // also what makes k = 1 a byte-identical pass-through.
      prev_scratch_[static_cast<std::size_t>(c)] =
          restrict_decision(*state.previous, members);
      cs.previous = &prev_scratch_[static_cast<std::size_t>(c)];
    }
    if (!state.edge_up.empty()) {
      cs.edge_up.resize(static_cast<std::size_t>(Kc));
      for (int lk = 0; lk < Kc; ++lk) {
        cs.edge_up[static_cast<std::size_t>(lk)] =
            state.edge_up[static_cast<std::size_t>(
                members[static_cast<std::size_t>(lk)])];
      }
    }
    if (state.hints != nullptr) {
      auto& hints = hints_scratch_[static_cast<std::size_t>(c)];
      hints.variant_cap = state.hints->variant_cap;
      if (state.hints->avoid_import.rows() > 0) {
        hints.avoid_import = util::Grid2<std::uint8_t>(I, Kc, 0);
        for (int i = 0; i < I; ++i) {
          for (int lk = 0; lk < Kc; ++lk) {
            hints.avoid_import(i, lk) = state.hints->avoid_import(
                i, members[static_cast<std::size_t>(lk)]);
          }
        }
      } else {
        hints.avoid_import = util::Grid2<std::uint8_t>();
      }
      cs.hints = &hints;
    }
  }

  // 3. Solve cells: the pool workers and the calling thread claim them
  //    longest-first by last slot's pivots. Each result lands in its own
  //    cell's slot, so the merge below is order-deterministic.
  //    Watchdog-degraded cells skip their MILP and answer with the fallback
  //    planner.
  std::vector<std::uint8_t> degraded(static_cast<std::size_t>(cells), 0);
  if (config_.watchdog.enabled) {
    for (int c = 0; c < cells; ++c) {
      degraded[static_cast<std::size_t>(c)] =
          state.slot < degraded_until_[static_cast<std::size_t>(c)] ? 1 : 0;
    }
  }
  std::vector<sim::SlotDecision> cell_decisions(
      static_cast<std::size_t>(cells));
  const auto solve_cell = [this, &cell_states, &degraded,
                           &cell_decisions](int c) {
    auto& cell = *cells_[static_cast<std::size_t>(c)];
    const auto& cell_state = cell_states[static_cast<std::size_t>(c)];
    cell_decisions[static_cast<std::size_t>(c)] =
        degraded[static_cast<std::size_t>(c)] != 0
            ? cell.plan_without_solver(cell_state)
            : cell.decide(cell_state);
  };
  const std::vector<int> order = longest_first(slot_pivots_);
  if (pool_ != nullptr) {
    pool_->run_claimed(order, solve_cell);
  } else {
    for (const int c : order) solve_cell(c);
  }

  // 4. Merge in fixed cell order.
  sim::SlotDecision merged(I, cluster_.zoo().max_variants(), K);
  for (int c = 0; c < cells; ++c) {
    const auto& members = partition_.members[static_cast<std::size_t>(c)];
    const auto& dec = cell_decisions[static_cast<std::size_t>(c)];
    std::int64_t cell_demand = 0;
    for (int i = 0; i < I; ++i) {
      for (int j = 0; j < dec.max_variants(); ++j) {
        for (int lk = 0; lk < dec.devices(); ++lk) {
          const int k = members[static_cast<std::size_t>(lk)];
          merged.served(i, j, k) = dec.served(i, j, lk);
          merged.kernel(i, j, k) = dec.kernel(i, j, lk);
        }
      }
      for (int lk = 0; lk < dec.devices(); ++lk) {
        const int k = members[static_cast<std::size_t>(lk)];
        merged.drops(i, k) = dec.drops(i, lk);
        cell_demand += cell_states[static_cast<std::size_t>(c)].demand(i, lk);
      }
    }
    for (const auto& flow : dec.flows) {
      merged.flows.push_back(sim::Flow{
          flow.app, members[static_cast<std::size_t>(flow.from)],
          members[static_cast<std::size_t>(flow.to)], flow.count});
    }
    merged.pad_partial_launches =
        merged.pad_partial_launches || dec.pad_partial_launches;
    balancer_.record_decision(c, cell_demand, dec.total_dropped());
  }
  // Balancer moves become real inter-cell flows, which keeps global
  // conservation exact: the donor already solved without the moved demand
  // (export covered), the recipient solved with it (import covers it).
  for (const auto& move : moves) {
    merged.flows.push_back(sim::Flow{move.app, move.from, move.to, move.count});
  }

  // 5. Pivot and watchdog bookkeeping, in fixed cell order after every
  //    solve joined. The deltas come from the solver's deterministic
  //    counters, so the next claim order and the watchdog's trip/recover
  //    schedule are bit-identical at any cell_threads.
  for (int c = 0; c < cells; ++c) {
    const std::int64_t pivots =
        cells_[static_cast<std::size_t>(c)]->total_pivots();
    slot_pivots_[static_cast<std::size_t>(c)] =
        pivots - last_pivots_[static_cast<std::size_t>(c)];
    last_pivots_[static_cast<std::size_t>(c)] = pivots;
    if (!config_.watchdog.enabled) continue;
    if (degraded[static_cast<std::size_t>(c)] != 0) {
      ++degraded_cell_slots_;  // no solve, so no pivots either
      continue;
    }
    const std::int64_t fallbacks =
        cells_[static_cast<std::size_t>(c)]->fallback_count();
    const bool overrun =
        slot_pivots_[static_cast<std::size_t>(c)] >
            config_.watchdog.pivot_budget ||
        fallbacks > last_fallbacks_[static_cast<std::size_t>(c)];
    last_fallbacks_[static_cast<std::size_t>(c)] = fallbacks;
    if (!overrun) {
      strikes_[static_cast<std::size_t>(c)] = 0;
      continue;
    }
    if (++strikes_[static_cast<std::size_t>(c)] >=
        config_.watchdog.strike_threshold) {
      degraded_until_[static_cast<std::size_t>(c)] =
          state.slot + 1 + config_.watchdog.degraded_slots;
      strikes_[static_cast<std::size_t>(c)] = 0;
      ++watchdog_trips_;
    }
  }
  return merged;
}

void CellScheduler::observe(const sim::SlotFeedback& feedback) {
  const int cells = partition_.cells();
  std::vector<sim::SlotFeedback> cell_feedback(
      static_cast<std::size_t>(cells));
  for (int c = 0; c < cells; ++c) {
    cell_feedback[static_cast<std::size_t>(c)].slot = feedback.slot;
  }
  for (const auto& obs : feedback.observations) {
    const int c = partition_.cell_of[static_cast<std::size_t>(obs.device)];
    auto local = obs;
    local.device = local_of_[static_cast<std::size_t>(obs.device)];
    cell_feedback[static_cast<std::size_t>(c)].observations.push_back(local);
  }
  if (!feedback.busy_s.empty()) {
    for (int c = 0; c < cells; ++c) {
      const auto& members = partition_.members[static_cast<std::size_t>(c)];
      auto& busy = cell_feedback[static_cast<std::size_t>(c)].busy_s;
      busy.resize(members.size(), 0.0);
      double total = 0.0;
      for (std::size_t lk = 0; lk < members.size(); ++lk) {
        busy[lk] = feedback.busy_s[static_cast<std::size_t>(members[lk])];
        total += busy[lk];
      }
      balancer_.record_busy(
          c, total / (static_cast<double>(members.size()) * cluster_.tau_s()));
    }
  }
  for (int c = 0; c < cells; ++c) {
    cells_[static_cast<std::size_t>(c)]->observe(
        cell_feedback[static_cast<std::size_t>(c)]);
  }
}

std::int64_t CellScheduler::fallback_count() const noexcept {
  std::int64_t total = retired_fallbacks_;
  for (const auto& cell : cells_) total += cell->fallback_count();
  return total;
}

}  // namespace birp::cluster
