#include "birp/serve/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "birp/guard/sojourn.hpp"
#include "birp/util/check.hpp"

namespace birp::serve {

void validate(const AdaptiveBatcherConfig& config) {
  util::check(config.slack > 0.0, "adaptive config: slack must be > 0");
  util::check(config.max_batch >= 1, "adaptive config: max_batch must be >= 1");
}

AdaptiveBatcher::AdaptiveBatcher(const device::ClusterSpec& cluster,
                                 AdaptiveBatcherConfig config)
    : config_(config),
      apps_(cluster.num_apps()),
      devices_(cluster.num_devices()),
      max_variants_(cluster.zoo().max_variants()) {
  validate(config_);
  // The validator never lets a kernel exceed kMaxKernelBatch, so neither
  // may a grown launch — the TIR belief is only calibrated up to there.
  config_.max_batch = std::min(config_.max_batch, sim::kMaxKernelBatch);
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
  for (int i = 0; i < apps_; ++i) {
    slo_s_[static_cast<std::size_t>(i)] =
        cluster.zoo().app(i).slo_fraction * cluster.tau_s();
  }
}

double AdaptiveBatcher::predicted_latency_s(int edge, int app, int variant,
                                            int b) const {
  return guard::batch_latency_s(gamma_s_[gamma_index(edge, app, variant)], b);
}

int AdaptiveBatcher::effective_target(int prior,
                                      std::int64_t backlog) const {
  const int base = std::max(1, prior);
  if (!config_.enabled) return base;
  int target = base;
  if (static_cast<double>(backlog) >=
      kGrowthBacklogFactor * static_cast<double>(base)) {
    target = static_cast<int>(std::min<std::int64_t>(
        backlog, static_cast<std::int64_t>(config_.max_batch)));
  }
  return std::clamp(std::max(target, base), 1, config_.max_batch);
}

BatchPlan AdaptiveBatcher::plan(int edge, int app, int variant,
                                std::span<const ServeItem> candidates,
                                int prior, int need, double cursor_s,
                                double max_wait_s, bool more_may_arrive,
                                std::vector<double>* avail_scratch) const {
  util::check(!candidates.empty(), "AdaptiveBatcher: no candidates");
  util::check(need >= 1, "AdaptiveBatcher: need at least one member");
  util::check(candidates.size() <= static_cast<std::size_t>(need),
              "AdaptiveBatcher: more candidates than the launch target");

  std::vector<double> local_avails;
  std::vector<double>& avails =
      avail_scratch != nullptr ? *avail_scratch : local_avails;
  avails.clear();
  avails.reserve(candidates.size());
  for (const auto& item : candidates) avails.push_back(item.available_s);

  // The fill-to-target rule is always the starting point: with the feature
  // disabled it IS the plan (byte-identical delegation), enabled it is the
  // "wait" alternative the adaptive rules improve on.
  const BatchSeal base =
      seal_batch(avails, need, cursor_s, max_wait_s, more_may_arrive);
  BatchPlan plan;
  plan.seal = base;
  plan.target = need;
  if (base.timed_out) {
    plan.reason = SealReason::kTimeout;
  } else if (base.count == need) {
    plan.reason = need > std::max(1, prior) ? SealReason::kGrowth
                                            : SealReason::kFull;
  } else {
    plan.reason = SealReason::kExhausted;
  }
  if (!config_.enabled) return plan;  // seal_batch verbatim

  const double slo = slo_s_[static_cast<std::size_t>(app)];
  const auto deadline_of = [&](std::size_t r) {
    return candidates[r].arrival_s + config_.slack * slo;
  };
  const double oldest_deadline = deadline_of(0);
  const auto latency_of = [&](int m) {
    return predicted_latency_s(edge, app, variant, m);
  };
  // Sealing m members right now: the launch starts once the accelerator is
  // free and the m-th member is available (members are availability-sorted).
  const auto start_of = [&](int m) {
    return std::max(cursor_s, avails[static_cast<std::size_t>(m - 1)]);
  };
  const auto completion_of = [&](int m) { return start_of(m) + latency_of(m); };
  // Goodput-under-SLO utility of sealing m members now: predicted members
  // meeting their own deadline per second of believed accelerator time.
  const auto utility_of = [&](int m) {
    const double done = completion_of(m);
    int meets = 0;
    for (int r = 0; r < m; ++r) {
      if (done <= deadline_of(static_cast<std::size_t>(r))) ++meets;
    }
    return static_cast<double>(meets) / latency_of(m);
  };
  // Best immediate seal among 1..limit. Counts meeting the oldest member's
  // deadline are preferred whenever any exists — the deadline invariant: a
  // viable smaller seal is never passed over for a doomed larger one. Ties
  // break toward the larger count (throughput).
  const auto choose = [&](int limit, bool feasible_only) {
    int best = 0;
    double best_utility = 0.0;
    bool best_feasible = false;
    for (int m = 1; m <= limit; ++m) {
      const bool feasible = completion_of(m) <= oldest_deadline;
      if (feasible_only && !feasible) continue;
      const double utility = utility_of(m);
      const bool wins = best == 0 || (feasible && !best_feasible) ||
                        (feasible == best_feasible && utility >= best_utility);
      if (wins) {
        best = m;
        best_utility = utility;
        best_feasible = feasible;
      }
    }
    return best;
  };
  const auto seal_now = [&](int m, SealReason reason) {
    plan.seal.count = m;
    plan.seal.formation_end_s = avails[static_cast<std::size_t>(m - 1)];
    plan.seal.start_s = start_of(m);
    plan.seal.timed_out = false;
    plan.reason = reason;
    plan.predicted_completion_s = completion_of(m);
  };

  if (!base.timed_out) {
    // Seal-now path: the target is full (or nothing more can arrive). The
    // utility may still prefer launching fewer members when the full batch
    // would blow early members' deadlines.
    const int best = choose(base.count, /*feasible_only=*/false);
    if (best > 0 && best < base.count) {
      seal_now(best, SealReason::kUtility);
    } else {
      plan.predicted_completion_s = completion_of(base.count);
    }
    return plan;
  }

  // Timeout path: the fill-to-target rule would hold the launch until
  // oldest + max_wait hoping for more members. Predict that outcome with
  // the members actually held (a lower bound — more members only lengthen
  // the believed launch); when even it breaches the oldest deadline and an
  // immediate seal meets it, launch now instead of waiting.
  const double wait_completion = base.start_s + latency_of(base.count);
  plan.predicted_completion_s = wait_completion;
  if (wait_completion > oldest_deadline) {
    const int best = choose(base.count, /*feasible_only=*/true);
    if (best > 0) seal_now(best, SealReason::kDeadline);
  }
  return plan;
}

}  // namespace birp::serve
