#include "birp/guard/controller.hpp"

#include <algorithm>

#include "birp/guard/sojourn.hpp"
#include "birp/util/check.hpp"

namespace birp::guard {

void validate(const GuardConfig& config) {
  util::check(config.admission.slack > 0.0,
              "guard config: admission slack must be > 0");
  util::check(config.breaker.window_slots >= 1,
              "guard config: breaker window must be >= 1 slot");
  util::check(config.breaker.min_samples >= 1,
              "guard config: breaker min samples must be >= 1");
  util::check(config.breaker.trip_threshold >= 0.0 &&
                  config.breaker.trip_threshold <= 1.0,
              "guard config: breaker trip threshold outside [0, 1]");
  util::check(config.breaker.open_slots >= 1,
              "guard config: breaker open window must be >= 1 slot");
  util::check(config.degradation.stress_shed_fraction >= 0.0 &&
                  config.degradation.stress_shed_fraction <= 1.0,
              "guard config: stress shed fraction outside [0, 1]");
  util::check(config.degradation.recovery_slots >= 1,
              "guard config: recovery window must be >= 1 slot");
}

GuardController::GuardController(const device::ClusterSpec& cluster,
                                 const GuardConfig& config)
    : config_(config),
      apps_(cluster.num_apps()),
      devices_(cluster.num_devices()),
      max_variants_(cluster.zoo().max_variants()) {
  validate(config_);
  gamma_s_.assign(static_cast<std::size_t>(apps_) *
                      static_cast<std::size_t>(devices_) *
                      static_cast<std::size_t>(max_variants_),
                  0.0);
  for (int k = 0; k < devices_; ++k) {
    for (int i = 0; i < apps_; ++i) {
      const int J = cluster.zoo().num_variants(i);
      for (int j = 0; j < J; ++j) {
        gamma_s_[gamma_index(k, i, j)] = cluster.gamma_s(k, i, j);
      }
    }
  }
  slo_s_.resize(static_cast<std::size_t>(apps_));
  num_variants_.resize(static_cast<std::size_t>(apps_));
  for (int i = 0; i < apps_; ++i) {
    slo_s_[static_cast<std::size_t>(i)] =
        cluster.zoo().app(i).slo_fraction * cluster.tau_s();
    num_variants_[static_cast<std::size_t>(i)] = cluster.zoo().num_variants(i);
  }
  breakers_.assign(static_cast<std::size_t>(apps_) *
                       static_cast<std::size_t>(devices_),
                   CircuitBreaker(config_.breaker));
  level_.assign(static_cast<std::size_t>(apps_), 0);
  calm_slots_.assign(static_cast<std::size_t>(apps_), 0);
  hints_.avoid_import = util::Grid2<std::uint8_t>(apps_, devices_, 0);
  rebuild_hints();
}

void GuardController::rebuild_hints() {
  hints_.avoid_import.fill(0);
  hints_.variant_cap.assign(static_cast<std::size_t>(apps_), -1);
  if (config_.breaker.enabled) {
    for (int i = 0; i < apps_; ++i) {
      for (int k = 0; k < devices_; ++k) {
        if (breakers_[cell(i, k)].avoid()) hints_.avoid_import(i, k) = 1;
      }
    }
  }
  if (config_.degradation.enabled) {
    for (int i = 0; i < apps_; ++i) {
      const int level = level_[static_cast<std::size_t>(i)];
      if (level > 0) {
        // Level L removes the L most expensive variants; the cheapest
        // variant (index 0) always survives, so the app stays servable.
        const int J = num_variants_[static_cast<std::size_t>(i)];
        hints_.variant_cap[static_cast<std::size_t>(i)] =
            std::max(0, J - 1 - level);
      }
    }
  }
}

const sim::SchedulerHints& GuardController::begin_slot(int slot) {
  (void)slot;
  rebuild_hints();
  return hints_;
}

bool GuardController::admit(int edge, int app, int variant, int kernel,
                            double arrival_s, double available_s,
                            double accel_free_s, std::int64_t buffered) const {
  if (!config_.admission.enabled) return true;
  const double gamma = gamma_s_[gamma_index(edge, app, variant)];
  const double batch_latency = batch_latency_s(gamma, kernel);
  const double predicted_sojourn = predicted_sojourn_s(
      arrival_s, available_s, accel_free_s, buffered, kernel, batch_latency);
  return predicted_sojourn <=
         config_.admission.slack * slo_s_[static_cast<std::size_t>(app)];
}

GuardController::SlotSummary GuardController::end_slot(
    const util::Grid2<CellStats>& cells,
    const std::vector<std::int64_t>& app_demand,
    const std::vector<std::int64_t>& app_shed) {
  util::check(cells.rows() == apps_ && cells.cols() == devices_,
              "GuardController: cell stats shape mismatch");
  util::check(static_cast<int>(app_demand.size()) == apps_ &&
                  static_cast<int>(app_shed.size()) == apps_,
              "GuardController: per-app totals shape mismatch");
  SlotSummary summary;

  if (config_.breaker.enabled) {
    for (int i = 0; i < apps_; ++i) {
      for (int k = 0; k < devices_; ++k) {
        auto& breaker = breakers_[cell(i, k)];
        const auto& stats = cells(i, k);
        breaker.record(stats.total, stats.failed);
        const auto transition = breaker.advance();
        summary.trips += transition.tripped ? 1 : 0;
        summary.reopens += transition.reopened ? 1 : 0;
        summary.probes += transition.probed ? 1 : 0;
        summary.recoveries += transition.recovered ? 1 : 0;
      }
    }
  }

  if (config_.degradation.enabled) {
    for (int i = 0; i < apps_; ++i) {
      const auto demand = app_demand[static_cast<std::size_t>(i)];
      const auto shed = app_shed[static_cast<std::size_t>(i)];
      const bool shed_stress =
          demand > 0 &&
          static_cast<double>(shed) >=
              config_.degradation.stress_shed_fraction *
                  static_cast<double>(demand);
      bool breaker_stress = false;
      if (config_.breaker.enabled) {
        for (int k = 0; k < devices_ && !breaker_stress; ++k) {
          breaker_stress = breakers_[cell(i, k)].state() == BreakerState::kOpen;
        }
      }
      auto& level = level_[static_cast<std::size_t>(i)];
      auto& calm = calm_slots_[static_cast<std::size_t>(i)];
      if ((shed_stress && shed > 0) || breaker_stress) {
        // One rung per stressed slot, never past "cheapest variant only".
        const int max_level =
            std::max(0, num_variants_[static_cast<std::size_t>(i)] - 1);
        level = std::min(level + 1, max_level);
        calm = 0;
      } else if (level > 0) {
        if (++calm >= config_.degradation.recovery_slots) {
          --level;
          calm = 0;
        }
      } else {
        calm = 0;
      }
    }
  }

  for (int i = 0; i < apps_; ++i) {
    const int level = level_[static_cast<std::size_t>(i)];
    summary.degraded_apps += level > 0 ? 1 : 0;
    summary.max_level = std::max(summary.max_level, level);
  }
  return summary;
}

BreakerState GuardController::breaker_state(int app, int edge) const {
  return breakers_[cell(app, edge)].state();
}

int GuardController::degradation_level(int app) const {
  return level_[static_cast<std::size_t>(app)];
}

}  // namespace birp::guard
