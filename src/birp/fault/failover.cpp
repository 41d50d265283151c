#include "birp/fault/failover.hpp"

#include <algorithm>
#include <cmath>

#include "birp/util/check.hpp"

namespace birp::fault {

FailoverPolicy::FailoverPolicy(const FailoverConfig& config, int apps,
                               int devices)
    : config_(config),
      apps_(apps),
      devices_(devices),
      jitter_rng_(config.backoff_seed) {
  util::check(apps >= 0 && devices >= 0,
              "FailoverPolicy: negative dimensions");
  util::check(config.retry_budget >= 0,
              "FailoverPolicy: negative retry budget");
  util::check(config.backoff_base_slots >= 0,
              "FailoverPolicy: negative backoff base");
  util::check(config.backoff_base_slots <= kBackoffMaxSlots,
              "FailoverPolicy: backoff base above the ceiling");
  util::check(config.backoff_jitter >= 0.0 && config.backoff_jitter <= 1.0,
              "FailoverPolicy: backoff jitter outside [0, 1]");
  injected_.assign(static_cast<std::size_t>(config.retry_budget) + 1,
                   util::Grid2<std::int64_t>(apps, devices));
  readmit_ = util::Grid2<std::int64_t>(apps, devices);
}

int FailoverPolicy::delay_slots(int attempt) {
  if (config_.backoff_base_slots <= 0) return 1;  // legacy: next slot
  double raw = static_cast<double>(config_.backoff_base_slots);
  for (int a = 1; a < attempt; ++a) raw *= kBackoffMultiplier;
  raw = std::min(raw, static_cast<double>(kBackoffMaxSlots));
  if (config_.backoff_jitter > 0.0) {
    raw *= jitter_rng_.uniform(1.0 - config_.backoff_jitter,
                               1.0 + config_.backoff_jitter);
  }
  const auto rounded = static_cast<int>(std::llround(raw));
  return std::clamp(rounded, 1, kBackoffMaxSlots);
}

const util::Grid2<std::int64_t>& FailoverPolicy::begin_slot(
    int slot, const std::vector<std::uint8_t>& up,
    const util::Grid2<std::uint8_t>* avoid) {
  slot_ = slot;
  readmit_.fill(0);
  for (auto& grid : injected_) grid.fill(0);
  if (!config_.enabled) return readmit_;

  std::vector<int> up_edges;
  for (int k = 0; k < devices_ && k < static_cast<int>(up.size()); ++k) {
    if (up[static_cast<std::size_t>(k)] != 0) up_edges.push_back(k);
  }
  // Nowhere to go: orphans stay pending until an edge recovers (they are
  // flushed as drops at the horizon if none ever does).
  if (up_edges.empty()) return readmit_;

  // Merge the cohorts whose backoff window has elapsed into per-(attempt,
  // app) counts, so the round-robin split below is independent of cohort
  // arrival order (and byte-identical to the pre-backoff bookkeeping when
  // backoff_base_slots == 0, where every cohort is eligible next slot).
  std::vector<std::vector<std::int64_t>> eligible(
      static_cast<std::size_t>(config_.retry_budget) + 1,
      std::vector<std::int64_t>(static_cast<std::size_t>(apps_), 0));
  std::vector<PendingCohort> still_waiting;
  for (const auto& cohort : pending_) {
    if (cohort.eligible_slot <= slot) {
      eligible[static_cast<std::size_t>(cohort.attempt)]
              [static_cast<std::size_t>(cohort.app)] += cohort.count;
    } else {
      still_waiting.push_back(cohort);
    }
  }
  pending_ = std::move(still_waiting);

  const bool have_avoid = avoid != nullptr && avoid->rows() > 0;
  std::vector<int> candidates;
  for (std::size_t a = 1; a < eligible.size(); ++a) {
    for (int i = 0; i < apps_; ++i) {
      const std::int64_t count = eligible[a][static_cast<std::size_t>(i)];
      if (count == 0) continue;
      // Circuit breakers steer retries away from tripped (app, edge) pairs,
      // but availability wins: with every survivor avoided, use them all.
      const std::vector<int>* targets = &up_edges;
      if (have_avoid) {
        candidates.clear();
        for (const int k : up_edges) {
          if ((*avoid)(i, k) == 0) candidates.push_back(k);
        }
        if (!candidates.empty()) targets = &candidates;
      }
      const auto n_up = static_cast<std::int64_t>(targets->size());
      const std::int64_t base = count / n_up;
      const std::int64_t extra = count % n_up;
      const std::int64_t start = (static_cast<std::int64_t>(slot) + i) % n_up;
      for (std::int64_t j = 0; j < n_up; ++j) {
        const int k =
            (*targets)[static_cast<std::size_t>((start + j) % n_up)];
        const std::int64_t share = base + (j < extra ? 1 : 0);
        if (share == 0) continue;
        injected_[a](i, k) += share;
        readmit_(i, k) += share;
      }
      total_retries_ += count;
    }
  }
  return readmit_;
}

FailoverPolicy::OrphanOutcome FailoverPolicy::on_orphans(int app, int edge,
                                                         std::int64_t count) {
  util::check(count >= 0, "FailoverPolicy: negative orphan count");
  if (count == 0) return {};
  if (!config_.enabled) return {.retried = 0, .dropped = count};
  util::check(app >= 0 && app < apps_ && edge >= 0 && edge < devices_,
              "FailoverPolicy: orphan index out of range");

  const auto queue_retry = [&](int attempt, std::int64_t n) {
    const int eligible = slot_ + delay_slots(attempt);
    // Merge into an existing cohort when possible to bound the list.
    for (auto& cohort : pending_) {
      if (cohort.attempt == attempt && cohort.app == app &&
          cohort.eligible_slot == eligible) {
        cohort.count += n;
        return;
      }
    }
    pending_.push_back({attempt, app, n, eligible});
  };

  OrphanOutcome outcome;
  std::int64_t remaining = count;
  // Pessimistic attribution: charge the highest-attempt cohort first so no
  // request can be re-admitted more than retry_budget times.
  for (std::size_t a = injected_.size(); a-- > 1 && remaining > 0;) {
    const std::int64_t take = std::min(remaining, injected_[a](app, edge));
    if (take == 0) continue;
    injected_[a](app, edge) -= take;
    remaining -= take;
    if (static_cast<int>(a) + 1 <= config_.retry_budget) {
      queue_retry(static_cast<int>(a) + 1, take);
      outcome.retried += take;
    } else {
      outcome.dropped += take;
    }
  }
  // The rest are fresh demand on their first failure.
  if (remaining > 0) {
    if (config_.retry_budget >= 1) {
      queue_retry(1, remaining);
      outcome.retried += remaining;
    } else {
      outcome.dropped += remaining;
    }
  }
  return outcome;
}

std::int64_t FailoverPolicy::drain_pending() {
  std::int64_t total = 0;
  for (const auto& cohort : pending_) total += cohort.count;
  pending_.clear();
  return total;
}

}  // namespace birp::fault
