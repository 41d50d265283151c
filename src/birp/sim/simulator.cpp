#include "birp/sim/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "birp/sim/launch.hpp"
#include "birp/util/check.hpp"
#include "birp/util/rng.hpp"

namespace birp::sim {
namespace {

/// One executable job on an edge: a (app, variant) deployment with its
/// request count and kernel batch size.
struct Job {
  int app = 0;
  int variant = 0;
  std::int64_t served = 0;
  int kernel = 1;
  std::int64_t imported = 0;  ///< how many of `served` arrived via flows
};

}  // namespace

Simulator::Simulator(const device::ClusterSpec& cluster,
                     const workload::Trace& trace, SimulatorConfig config)
    : cluster_(cluster), trace_(trace), config_(config) {
  util::check(trace.apps() == cluster.num_apps(),
              "Simulator: trace apps != cluster apps");
  util::check(trace.devices() == cluster.num_devices(),
              "Simulator: trace devices != cluster devices");
  util::check(config_.noise_sigma >= 0.0, "Simulator: negative noise");
  carried_ = util::Grid2<std::int64_t>(cluster.num_apps(),
                                       cluster.num_devices(), 0);
  failover_ = fault::FailoverPolicy(config_.failover, cluster.num_apps(),
                                    cluster.num_devices());
}

double Simulator::execute_edge(int k, int slot,
                               const EdgeFaultEffects& faults,
                               SlotResult& result,
                               metrics::RunMetrics* metrics) const {
  const double tau = cluster_.tau_s();
  const SlotDecision& decision = result.decision;
  util::Xoshiro256StarStar rng(edge_slot_seed(config_.seed, slot, k));
  double loss = 0.0;

  // Collect jobs. Imports are attributed per app, then spread over that
  // app's jobs (largest kernel last so padded batches absorb stragglers).
  std::vector<Job> jobs;
  std::vector<std::int64_t> imports_left(
      static_cast<std::size_t>(cluster_.num_apps()));
  std::vector<double> import_bytes_mb(
      static_cast<std::size_t>(cluster_.num_apps()), 0.0);
  double total_import_mb = 0.0;
  std::int64_t total_imports = 0;
  for (int i = 0; i < cluster_.num_apps(); ++i) {
    // Imports whose origin edge died this slot never arrive: they fill no
    // batch slots and are billed no transfer time (orphan accounting happens
    // in step()).
    const std::int64_t lost =
        faults.lost_imports.empty()
            ? 0
            : faults.lost_imports[static_cast<std::size_t>(i)];
    imports_left[static_cast<std::size_t>(i)] = decision.imports(i, k) - lost;
    total_imports += imports_left[static_cast<std::size_t>(i)];
    import_bytes_mb[static_cast<std::size_t>(i)] =
        cluster_.zoo().app(i).request_mb;
    total_import_mb += import_bytes_mb[static_cast<std::size_t>(i)] *
                       static_cast<double>(imports_left[static_cast<std::size_t>(i)]);
    const int variants = cluster_.zoo().num_variants(i);
    for (int j = 0; j < variants; ++j) {
      const auto served = decision.served(i, j, k);
      if (served <= 0) continue;
      Job job;
      job.app = i;
      job.variant = j;
      job.served = served;
      job.kernel = std::max(1, decision.kernel(i, j, k));
      jobs.push_back(job);
    }
  }

  // Lost imports shrink the jobs that would have hosted them (same reverse
  // order as import attribution below, so exactly the import-backed batch
  // slots go away).
  if (!faults.lost_imports.empty()) {
    auto lost = faults.lost_imports;
    for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) {
      auto& left = lost[static_cast<std::size_t>(it->app)];
      const auto take = std::min(left, it->served);
      it->served -= take;
      left -= take;
    }
  }

  // Attribute imported requests to jobs (later jobs of the same app first so
  // early launches run on local data while transfers are still in flight).
  for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) {
    auto& left = imports_left[static_cast<std::size_t>(it->app)];
    const auto take = std::min(left, it->served);
    it->imported = take;
    left -= take;
  }

  // Transfer schedule: imported requests stream over the edge's wireless
  // link back-to-back; request q of Q arrives at (q/Q) * total transfer time.
  // Bandwidth-degradation faults stretch the schedule.
  const double bw_mbps =
      cluster_.device(k).bandwidth_mbps * faults.bandwidth_factor;
  const double transfer_total_s = total_import_mb * 8.0 / bw_mbps;

  // Deterministic execution order.
  rng.shuffle(jobs);

  double cursor_s = 0.0;
  std::int64_t imports_scheduled = 0;
  for (const auto& job : jobs) {
    std::int64_t remaining = job.served;
    std::int64_t imported_remaining = job.imported;
    bool first_launch = true;
    while (remaining > 0) {
      const auto in_launch =
          std::min<std::int64_t>(remaining, job.kernel);
      // Local requests fill the launch first; imports go in what remains.
      const std::int64_t local_in_launch =
          std::min(in_launch, remaining - imported_remaining);
      const std::int64_t imported_in_launch = in_launch - local_in_launch;

      // The launch cannot start before its last imported member arrives.
      double ready_s = 0.0;
      if (imported_in_launch > 0 && total_imports > 0) {
        const std::int64_t last_import_index =
            imports_scheduled + imported_in_launch;
        ready_s = transfer_total_s * static_cast<double>(last_import_index) /
                  static_cast<double>(total_imports);
      }

      // Launch size: static-shape padding (MAX) bills the full kernel even
      // for a partial tail; otherwise the runtime right-sizes the launch.
      const int launch_size =
          decision.pad_partial_launches
              ? job.kernel
              : static_cast<int>(std::min<std::int64_t>(job.kernel, remaining));
      const double duration_s = launch_duration_s(
          cluster_, rng, config_.noise_sigma, k, job.app, job.variant,
          launch_size, faults.straggler_factor);

      const double start_s = std::max(cursor_s, ready_s);
      cursor_s = start_s + duration_s;

      const double completion_tau = cursor_s / tau;
      const double slo =
          cluster_.zoo().app(job.app).slo_fraction;
      for (std::int64_t r = 0; r < in_launch; ++r) {
        const bool met_slo = completion_tau <= slo + 1e-12;
        if (metrics != nullptr) {
          metrics->record_request(completion_tau, met_slo);
        }
        result.slo_failures += met_slo ? 0 : 1;
        ++result.served;
      }
      loss += cluster_.zoo().variant(job.app, job.variant).loss *
              static_cast<double>(in_launch);

      if (first_launch && config_.report_observations) {
        result.feedback.observations.push_back(observe_launch(
            cluster_, k, job.app, job.variant, launch_size, duration_s));
        first_launch = false;
      }

      imports_scheduled += imported_in_launch;
      imported_remaining -= imported_in_launch;
      remaining -= in_launch;
    }
  }

  // Dropped requests at this edge are charged in step().
  result.feedback.busy_s[static_cast<std::size_t>(k)] = cursor_s;
  if (metrics != nullptr) {
    metrics->record_edge_busy(cursor_s / tau);
    metrics->record_energy(cluster_.device(k).slot_energy_j(cursor_s, tau));
  }
  return loss;
}

SlotResult Simulator::step(Scheduler& scheduler, metrics::RunMetrics* metrics) {
  util::check(slot_ < trace_.slots(), "Simulator: horizon exhausted");
  const int t = slot_;
  const int I = cluster_.num_apps();
  const int K = cluster_.num_devices();

  // Resolve this slot's fault picture. With an empty plan every branch below
  // degenerates to the fault-free path (all edges up, unit factors).
  const bool have_faults = !config_.fault_plan.empty();
  const std::vector<std::uint8_t> up =
      have_faults ? config_.fault_plan.up_mask(K, t)
                  : std::vector<std::uint8_t>(static_cast<std::size_t>(K), 1);
  const auto is_up = [&up](int k) {
    return up[static_cast<std::size_t>(k)] != 0;
  };

  SlotState state;
  state.slot = t;
  state.demand = util::Grid2<std::int64_t>(I, K, 0);
  for (int i = 0; i < I; ++i) {
    for (int k = 0; k < K; ++k) {
      // Carryover mode: requests deferred from the previous slot retry here.
      state.demand(i, k) = trace_.at(t, i, k) + carried_(i, k);
    }
  }
  if (have_faults) {
    // Heartbeat view: schedulers learn the liveness mask at the slot
    // boundary. Fault-free runs keep edge_up empty (all up).
    state.edge_up = up;
    if (failover_.enabled()) {
      // Orphans queued by earlier failures re-enter demand at survivors.
      const auto& readmit = failover_.begin_slot(t, up);
      for (int i = 0; i < I; ++i) {
        for (int k = 0; k < K; ++k) state.demand(i, k) += readmit(i, k);
      }
    }
  }
  state.previous = previous_.has_value() ? &previous_.value() : nullptr;

  SlotResult result;
  result.decision = scheduler.decide(state);
  result.repairs = validate_and_repair(cluster_, state.demand,
                                       state.previous, result.decision);

  // Per-edge fault effects: factors plus imports lost to dead origins.
  std::vector<EdgeFaultEffects> effects(static_cast<std::size_t>(K));
  if (have_faults) {
    for (int k = 0; k < K; ++k) {
      auto& e = effects[static_cast<std::size_t>(k)];
      e.bandwidth_factor = config_.fault_plan.bandwidth_factor(k, t);
      e.straggler_factor = config_.fault_plan.straggler_factor(k, t);
    }
    for (const Flow& flow : result.decision.flows) {
      if (!is_up(flow.from) && is_up(flow.to)) {
        auto& lost = effects[static_cast<std::size_t>(flow.to)].lost_imports;
        if (lost.empty()) lost.assign(static_cast<std::size_t>(I), 0);
        lost[static_cast<std::size_t>(flow.app)] += flow.count;
      }
    }
  }

  // Execute the live edges in edge order. Each has its own cursor inside
  // the slot, so they run side by side in simulated time. Down edges
  // execute nothing this slot: zero busy, no energy, no samples.
  result.feedback.slot = t;
  result.feedback.busy_s.resize(static_cast<std::size_t>(K), 0.0);
  double slot_loss = 0.0;
  for (int k = 0; k < K; ++k) {
    if (have_faults && metrics != nullptr) {
      metrics->record_edge_slot(k, is_up(k));
    }
    if (!is_up(k)) continue;
    slot_loss += execute_edge(k, t, effects[static_cast<std::size_t>(k)],
                              result, metrics);
  }

  // Orphans: everything in a dead edge's region this slot (local serving,
  // exports, planned drops — the radio is down, nothing gets in or out) plus
  // requests a live edge shipped toward a dead one (lost in transit,
  // attributed to their origin so failover's retry-budget bookkeeping stays
  // pessimistic). The failover policy splits them into retries and terminal
  // drops.
  if (have_faults) {
    util::Grid2<std::int64_t> orphans(I, K, 0);
    for (int i = 0; i < I; ++i) {
      for (int k = 0; k < K; ++k) {
        if (!is_up(k)) orphans(i, k) = state.demand(i, k);
      }
    }
    for (const Flow& flow : result.decision.flows) {
      if (is_up(flow.from) && !is_up(flow.to)) {
        orphans(flow.app, flow.from) += flow.count;
      }
    }
    for (int i = 0; i < I; ++i) {
      const double worst = cluster_.zoo().worst_loss(i);
      for (int k = 0; k < K; ++k) {
        if (orphans(i, k) == 0) continue;
        const auto outcome = failover_.on_orphans(i, k, orphans(i, k));
        result.retried += outcome.retried;
        result.orphaned += outcome.dropped;
        result.slo_failures += outcome.dropped;
        slot_loss += worst * static_cast<double>(outcome.dropped);
        if (metrics != nullptr) {
          metrics->record_retries(outcome.retried);
          for (std::int64_t d = 0; d < outcome.dropped; ++d) {
            metrics->record_orphan_drop();
          }
        }
        // Carryover mode: a dead edge's deferred requests are orphans now,
        // not carryover candidates.
        if (!is_up(k)) carried_(i, k) = 0;
      }
    }
  }

  // Dropped requests. Paper semantics: every unserved request fails this
  // slot (worst-model loss, SLO failure). Carryover mode (retry-once
  // extension): fresh unserved requests defer to the next slot with a
  // renewed deadline; requests already deferred once fail for good. Down
  // edges are excluded: their whole demand was already orphaned above.
  for (int i = 0; i < I; ++i) {
    const double worst = cluster_.zoo().worst_loss(i);
    for (int k = 0; k < K; ++k) {
      if (!is_up(k)) continue;
      const auto dropped = result.decision.drops(i, k);
      std::int64_t failed = dropped;
      if (config_.carryover_unserved) {
        // Pessimistic FIFO: drops consume the aged (already-deferred)
        // requests first; only the fresh remainder gets a retry.
        const auto aged = std::min(dropped, carried_(i, k));
        failed = aged;
        carried_(i, k) = dropped - aged;
      }
      if (failed <= 0) continue;
      slot_loss += worst * static_cast<double>(failed);
      result.dropped += failed;
      result.slo_failures += failed;
      if (metrics != nullptr) {
        for (std::int64_t d = 0; d < failed; ++d) metrics->record_dropped();
      }
    }
  }
  result.slot_loss = slot_loss;
  if (metrics != nullptr) metrics->record_slot_loss(slot_loss);

  // Busy-time feedback always flows (capacity learning); only the TIR
  // observations are gated by report_observations (set inside execute_edge).
  scheduler.observe(result.feedback);

  previous_ = result.decision;
  ++slot_;
  return result;
}

void Simulator::finish(Scheduler& scheduler, metrics::RunMetrics& metrics) {
  if (config_.carryover_unserved) {
    // Flush: requests still deferred at the horizon never get their retry.
    for (int i = 0; i < cluster_.num_apps(); ++i) {
      for (int k = 0; k < cluster_.num_devices(); ++k) {
        for (std::int64_t d = 0; d < carried_(i, k); ++d) {
          metrics.record_dropped();
        }
        carried_(i, k) = 0;
      }
    }
  }
  // Flush failover: orphans still awaiting re-admission at the horizon are
  // terminal losses.
  for (std::int64_t d = failover_.drain_pending(); d > 0; --d) {
    metrics.record_orphan_drop();
  }
  metrics.set_solver_fallbacks(scheduler.fallback_count());
}

metrics::RunMetrics Simulator::run(Scheduler& scheduler, int max_slots) {
  const int horizon = max_slots > 0 ? std::min(max_slots, trace_.slots())
                                    : trace_.slots();
  metrics::RunMetrics metrics(horizon);
  while (slot_ < horizon) step(scheduler, &metrics);
  finish(scheduler, metrics);
  return metrics;
}

}  // namespace birp::sim
