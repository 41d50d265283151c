// SLO-aware adaptive batch assembly (ROADMAP item 1, the BCEdge direction).
//
// The slot MILP fixes one batch size per (app, edge) per slot, and
// seal_batch just fills to it — between slot boundaries the engine can
// neither seal early under deadline pressure nor grow under backlog. The
// AdaptiveBatcher treats the MILP decision as a per-slot *prior* instead of
// a hard rule:
//
//   * grow — when the per-app backlog (buffered + upstream requests) is at
//     least kGrowthBacklogFactor (1.5) times the prior, the launch target grows
//     toward the backlog, up to max_batch, so bursts drain in fewer, more
//     TIR-efficient launches;
//   * seal early — when the predicted completion of the held batch (the
//     timeout rule's launch point plus the believed batch latency, the same
//     sojourn model birp/guard's admission gate uses via guard/sojourn.hpp)
//     would breach the oldest buffered request's deadline, and some
//     immediate seal meets it, the batch launches now instead of waiting;
//   * utility seal — among the member counts available right now, plan()
//     picks the count maximizing goodput-under-SLO: predicted members
//     meeting their deadline per second of believed accelerator time,
//     restricted to counts that meet the oldest member's deadline whenever
//     any count does (so a smaller viable seal is never passed over for a
//     doomed larger one — the property-tested deadline invariant).
//
// With the feature disabled plan() delegates to seal_batch verbatim, so the
// engine stays byte-identical to the fill-to-target rule (property-tested
// in tests/property_test.cpp).
#pragma once

#include <span>

#include "birp/device/cluster.hpp"
#include "birp/serve/batcher.hpp"
#include "birp/serve/request.hpp"
#include "birp/sim/validate.hpp"

namespace birp::serve {

/// Why a batch sealed; recorded per launch into RunMetrics so the seal-rule
/// mix is observable (bench_serve prints the distribution).
enum class SealReason : int {
  kFull = 0,     ///< reached the launch target (fill-to-target)
  kTimeout,      ///< partial batch sealed by the max-wait timeout
  kExhausted,    ///< request stream exhausted; launched immediately
  kDeadline,     ///< sealed early: waiting would breach the oldest deadline
  kGrowth,       ///< sealed at a target grown beyond the MILP prior
  kUtility,      ///< sealed smaller than available by the goodput utility
};
inline constexpr int kNumSealReasons = 6;

/// Grow the launch target beyond the MILP prior when the per-app backlog is
/// at least this multiple of the prior.
inline constexpr double kGrowthBacklogFactor = 1.5;

struct AdaptiveBatcherConfig {
  /// Off by default: plan() delegates to seal_batch and the serving engine
  /// is byte-identical to the fill-to-target build.
  bool enabled = false;
  /// Deadline budget multiplier: a request's deadline is slack * slo.
  /// > 1 tolerates prediction error, < 1 seals more aggressively.
  double slack = 1.0;
  /// Hard cap on any launch; growth never exceeds it and the engine clamps
  /// it to sim::kMaxKernelBatch (the validator's kernel cap).
  int max_batch = sim::kMaxKernelBatch;
};

/// Fails fast (util::check) on out-of-range values: non-positive slack or
/// cap. Called by the batcher and by ServeEngine's
/// config validation.
void validate(const AdaptiveBatcherConfig& config);

/// One planned launch: the seal itself plus why and what it aimed at.
struct BatchPlan {
  BatchSeal seal;
  SealReason reason = SealReason::kFull;
  /// Effective launch target the plan aimed at (prior, possibly grown).
  int target = 0;
  /// Predicted completion of the sealed launch under the believed latency
  /// curve (launch start + batch latency); what the deadline invariant is
  /// stated against. 0 when the batcher is disabled.
  double predicted_completion_s = 0.0;
};

class AdaptiveBatcher {
 public:
  /// Believed serial latencies come from the cluster's gamma table, as in
  /// the guard layer's admission gate.
  AdaptiveBatcher(const device::ClusterSpec& cluster,
                  AdaptiveBatcherConfig config);

  [[nodiscard]] const AdaptiveBatcherConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }

  /// Believed latency of a launch of `b` members of (app, variant) on
  /// `edge`: gamma * (1 + guard::kMarginalBatchCost * (b - 1)).
  [[nodiscard]] double predicted_latency_s(int edge, int app, int variant,
                                           int b) const;

  /// Effective launch target for one job: the MILP prior `prior`, grown
  /// toward `backlog` when the backlog threshold is met, clamped to
  /// [1, max_batch]. Returns max(1, prior) when disabled.
  [[nodiscard]] int effective_target(int prior, std::int64_t backlog) const;

  /// Plans the next launch of one job on `edge`.
  ///   candidates      buffered requests of the job's app, oldest first —
  ///                   exactly the first min(waiting, need) queue entries
  ///                   (sorted by available_s; a prefix take preserves FIFO)
  ///   prior           the MILP decision's kernel size (pre-growth)
  ///   need            launch target: min(requests left, effective target)
  ///   cursor_s        time the accelerator becomes free
  ///   max_wait_s      partial-batch timeout; negative = wait for full
  ///   more_may_arrive false when the job's request stream is exhausted
  ///   avail_scratch   optional reusable buffer for the member-availability
  ///                   working set; hot-path callers pass a persistent
  ///                   vector so plan() allocates nothing in steady state
  /// Disabled: the returned seal is seal_batch's, field for field.
  [[nodiscard]] BatchPlan plan(int edge, int app, int variant,
                               std::span<const ServeItem> candidates,
                               int prior, int need, double cursor_s,
                               double max_wait_s, bool more_may_arrive,
                               std::vector<double>* avail_scratch =
                                   nullptr) const;

 private:
  [[nodiscard]] std::size_t gamma_index(int edge, int app, int variant) const {
    return (static_cast<std::size_t>(edge) * static_cast<std::size_t>(apps_) +
            static_cast<std::size_t>(app)) *
               static_cast<std::size_t>(max_variants_) +
           static_cast<std::size_t>(variant);
  }

  AdaptiveBatcherConfig config_;
  int apps_ = 0;
  int devices_ = 0;
  int max_variants_ = 0;
  std::vector<double> gamma_s_;  ///< believed gamma per (k, i, j)
  std::vector<double> slo_s_;    ///< SLO budget per app (seconds)
};

}  // namespace birp::serve
