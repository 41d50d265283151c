// Failover re-admission of orphaned requests after edge failures.
//
// When an edge goes down mid-horizon, every request that was routed to it —
// buffered locally, in transit from a peer, or newly arrived in its region —
// is *orphaned*: the runtime can no longer serve it where the scheduler put
// it. FailoverPolicy decides what happens next. With failover disabled the
// orphans are terminal drops (charged the worst-model loss plus an SLO
// failure, like any other drop). With failover enabled each orphan is
// re-admitted into a later slot's demand at a surviving edge, at most
// `retry_budget` times; a request whose re-admission target fails again past
// the budget is dropped.
//
// Re-admission timing follows seeded exponential backoff with jitter: the
// a-th retry waits ~ backoff_base_slots * kBackoffMultiplier^(a-1) slots
// (capped at kBackoffMaxSlots), scaled by a uniform jitter factor in
// [1 - backoff_jitter, 1 + backoff_jitter] drawn from an explicitly seeded
// generator — deterministic across runs and thread counts because orphans
// are always reported from the single-threaded merge path in slot order.
// backoff_base_slots == 0 (the default) reproduces the original immediate
// next-slot re-admission byte for byte and draws nothing from the RNG.
//
// Bookkeeping mirrors the simulator's carryover mode: re-admitted cohorts
// are tracked per attempt level, and when orphans occur at an (app, edge)
// cell they are attributed to the highest-attempt cohort first (pessimistic —
// never lets a request exceed the budget). Distribution across survivors is
// deterministic: a round-robin split whose starting edge rotates with
// (slot + app), so repeated failures do not pile every retry on one edge.
// An optional avoid mask (from the guard layer's circuit breakers) removes
// tripped (app, edge) targets from the candidate set; if every survivor is
// avoided for an app, availability wins and all up edges are used.
#pragma once

#include <cstdint>
#include <vector>

#include "birp/util/grid.hpp"
#include "birp/util/rng.hpp"

namespace birp::fault {

/// Backoff growth factor per attempt.
inline constexpr double kBackoffMultiplier = 2.0;
/// Ceiling on the (pre-jitter) backoff delay in slots.
inline constexpr int kBackoffMaxSlots = 16;

struct FailoverConfig {
  /// Disabled: orphans are terminal drops.
  bool enabled = false;
  /// Maximum re-admissions per request before it is dropped.
  int retry_budget = 1;
  /// First-retry delay in slots, at most kBackoffMaxSlots. 0 = legacy
  /// immediate re-admission at the next slot (no backoff, no RNG draws);
  /// >= 1 enables exponential backoff.
  int backoff_base_slots = 0;
  /// Jitter amplitude in [0, 1]: the delay is scaled by a uniform factor in
  /// [1 - jitter, 1 + jitter]. 0 disables jitter (and any RNG draw).
  double backoff_jitter = 0.0;
  /// Seed for the jitter stream.
  std::uint64_t backoff_seed = 0x0ffbacc5ULL;
};

class FailoverPolicy {
 public:
  FailoverPolicy() = default;
  FailoverPolicy(const FailoverConfig& config, int apps, int devices);

  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }

  /// Starts a slot: distributes backoff-eligible pending orphans across the
  /// edges that are up this slot and returns the per-(app, edge) counts to
  /// add to the slot's demand. Cohorts still inside their backoff window
  /// stay pending; if no edge is up everything stays pending. `avoid`
  /// (optional, from circuit breakers) removes tripped (app, edge) targets
  /// unless that would leave an app with no candidate. The returned
  /// reference is valid until the next begin_slot call.
  const util::Grid2<std::int64_t>& begin_slot(
      int slot, const std::vector<std::uint8_t>& up,
      const util::Grid2<std::uint8_t>* avoid = nullptr);

  struct OrphanOutcome {
    std::int64_t retried = 0;  ///< queued for re-admission after backoff
    std::int64_t dropped = 0;  ///< retry budget exhausted (or disabled)
  };

  /// Reports `count` orphaned requests of app `app` at edge `edge` in the
  /// current slot. Splits them into retried vs terminally dropped.
  OrphanOutcome on_orphans(int app, int edge, std::int64_t count);

  /// Flushes requests still awaiting re-admission (end of horizon); returns
  /// how many were pending. They become terminal drops at the caller.
  std::int64_t drain_pending();

  /// Cumulative re-admissions injected into demand so far.
  [[nodiscard]] std::int64_t total_retries() const noexcept {
    return total_retries_;
  }

  /// The backoff delay (slots) ahead of a request's attempt-`attempt`
  /// re-admission. Advances the jitter stream when jitter is active;
  /// exposed for the determinism tests.
  [[nodiscard]] int delay_slots(int attempt);

 private:
  /// One batch of orphans waiting out its backoff window.
  struct PendingCohort {
    int attempt = 1;        ///< re-admission attempt number (1-based)
    int app = 0;
    std::int64_t count = 0;
    int eligible_slot = 0;  ///< first slot this cohort may re-enter demand
  };

  FailoverConfig config_;
  int apps_ = 0;
  int devices_ = 0;
  int slot_ = 0;
  std::vector<PendingCohort> pending_;
  /// injected_[a]: cohort currently in demand on its a-th re-admission.
  std::vector<util::Grid2<std::int64_t>> injected_;
  util::Grid2<std::int64_t> readmit_;
  util::Xoshiro256StarStar jitter_rng_{0x0ffbacc5ULL};
  std::int64_t total_retries_ = 0;
};

}  // namespace birp::fault
