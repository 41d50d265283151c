// Overload-protection configuration: deadline-aware admission, per-edge
// circuit breakers, and the graceful-degradation ladder. Every feature is
// off by default; an all-default GuardConfig leaves the serving runtime
// byte-identical to a build without the guard layer.
#pragma once

#include <cstdint>

namespace birp::guard {

/// Deadline-aware admission control: shed a request at enqueue time when its
/// predicted completion (transfer arrival + queued batches ahead of it ×
/// predicted batch latency) already exceeds its SLO budget. Shedding is
/// cheap-to-reject work done early, instead of spending accelerator time on
/// a request that is doomed to miss and delaying everything behind it.
struct AdmissionConfig {
  bool enabled = false;
  /// Budget multiplier: admit while predicted sojourn <= slack * slo.
  /// > 1 is permissive (tolerates prediction error), < 1 is aggressive.
  double slack = 1.0;
};

/// Per-(app, edge) circuit breaker over the observed SLO-failure rate of the
/// serving path, evaluated once per slot on a sliding window of slots:
///
///   closed    — normal operation; window accumulates outcomes.
///   open      — failure rate tripped the threshold: redistribution and
///               failover retries route around this (app, edge) pair.
///   half-open — after open_slots of quarantine, probe traffic (local
///               arrivals keep flowing) decides: recovered -> closed,
///               still failing -> open again.
struct BreakerConfig {
  bool enabled = false;
  /// Sliding window length in slots.
  int window_slots = 8;
  /// Minimum outcomes inside the window before the breaker may trip
  /// (prevents tripping on a handful of unlucky requests).
  std::int64_t min_samples = 16;
  /// SLO-failure rate in [0, 1] at/above which a closed breaker opens and a
  /// half-open breaker re-opens.
  double trip_threshold = 0.5;
  /// Slots an open breaker waits before probing (half-open).
  int open_slots = 4;
};

/// Graceful-degradation ladder: under sustained overload for an app (its
/// shed rate above the threshold, or any of its breakers open), step the
/// app's variant cap down one rung — forbidding its most expensive variant —
/// before shedding more load. Each calm recovery window restores one rung.
struct DegradationConfig {
  bool enabled = false;
  /// Per-slot shed fraction (deadline sheds / demand) in [0, 1] at/above
  /// which the app is considered stressed.
  double stress_shed_fraction = 0.1;
  /// Consecutive calm slots required to climb back one rung.
  int recovery_slots = 3;
};

struct GuardConfig {
  AdmissionConfig admission;
  BreakerConfig breaker;
  DegradationConfig degradation;

  [[nodiscard]] bool any_enabled() const noexcept {
    return admission.enabled || breaker.enabled || degradation.enabled;
  }
};

/// Fails fast (util::check) on out-of-range values: non-positive windows,
/// thresholds outside [0, 1], negative slacks. Called by GuardController
/// and by ServeEngine's config validation.
void validate(const GuardConfig& config);

}  // namespace birp::guard
