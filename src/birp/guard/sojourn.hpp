// Shared sojourn-prediction model for the serving runtime's protective and
// adaptive layers.
//
// Both the deadline-aware admission gate (guard::GuardController::admit) and
// the SLO-aware adaptive batcher (serve::AdaptiveBatcher) need the same two
// estimates:
//   * how long a launch of b members takes under the believed latency curve
//     gamma * (1 + kMarginalBatchCost * (b - 1)) — the marginal-cost
//     stand-in for the full TIR belief, and
//   * how long a request will have been in the system when its launch
//     completes, given the accelerator backlog and the batches queued ahead.
// Keeping the formulas in one place means the gate's shed decisions and the
// batcher's seal decisions can never drift apart.
#pragma once

#include <algorithm>
#include <cstdint>

namespace birp::guard {

/// Believed marginal cost of a follower request inside a batch, as a
/// fraction of the serial latency gamma. Mirrors the TIR curve's diminishing
/// per-request cost without needing the full eta/beta belief.
inline constexpr double kMarginalBatchCost = 0.4;

/// Believed execution latency of one launch of `b` members whose serial
/// latency is `gamma_s`: gamma * (1 + kMarginalBatchCost * (b - 1)).
[[nodiscard]] inline double batch_latency_s(double gamma_s, int b) {
  const auto members = static_cast<double>(std::max(1, b));
  return gamma_s * (1.0 + kMarginalBatchCost * (members - 1.0));
}

/// Predicted end-to-end sojourn of a request that entered the system at
/// `arrival_s`, becomes executable at `available_s`, and joins behind
/// `buffered` same-app requests batched `b` at a time, on an accelerator
/// whose already-dispatched launches finish at `accel_free_s`. The request
/// rides in batch number buffered / b + 1 (1-based) of the deployment's
/// launch sequence, which cannot start before both the request is available
/// and the backlog has drained.
[[nodiscard]] inline double predicted_sojourn_s(double arrival_s,
                                                double available_s,
                                                double accel_free_s,
                                                std::int64_t buffered, int b,
                                                double batch_latency) {
  const auto batch = static_cast<std::int64_t>(std::max(1, b));
  const double batches_ahead = static_cast<double>(buffered / batch + 1);
  return (std::max(accel_free_s, available_s) - arrival_s) +
         batches_ahead * batch_latency;
}

}  // namespace birp::guard
