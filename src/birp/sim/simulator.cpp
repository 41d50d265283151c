#include "birp/sim/simulator.hpp"

#include <algorithm>
#include <numeric>

#include "birp/sim/launch.hpp"
#include "birp/util/check.hpp"
#include "birp/util/rng.hpp"

namespace birp::sim {

Simulator::Simulator(const device::ClusterSpec& cluster,
                     const workload::Trace& trace, SimulatorConfig config)
    : cluster_(cluster),
      trace_(trace),
      config_(config),
      driver_(cluster, trace, config_.fault_plan, config_.failover) {
  util::check(config_.noise_sigma >= 0.0, "Simulator: negative noise");
  carried_ = util::Grid2<std::int64_t>(cluster.num_apps(),
                                       cluster.num_devices(), 0);
}

double Simulator::execute_edge(int k,
                               const std::vector<std::int64_t>& lost_imports,
                               SlotResult& result,
                               metrics::RunMetrics* metrics) const {
  const double tau = cluster_.tau_s();
  const SlotDecision& decision = result.decision;
  util::Xoshiro256StarStar rng(
      edge_slot_seed(config_.seed, driver_.slot(), k));
  double loss = 0.0;

  // Imports are attributed per app, then spread over that app's jobs
  // (largest kernel last so padded batches absorb stragglers). Imports whose
  // origin edge died this slot never arrive: they fill no batch slots and
  // are billed no transfer time (their origin orphans them in step()).
  std::vector<Job> jobs;
  collect_jobs(cluster_, decision, k, jobs);
  std::vector<std::int64_t> imports_left(
      static_cast<std::size_t>(cluster_.num_apps()));
  double total_import_mb = 0.0;
  std::int64_t total_imports = 0;
  for (int i = 0; i < cluster_.num_apps(); ++i) {
    auto& left = imports_left[static_cast<std::size_t>(i)];
    left = decision.imports(i, k) -
           (lost_imports.empty() ? 0 : lost_imports[static_cast<std::size_t>(i)]);
    total_imports += left;
    total_import_mb +=
        cluster_.zoo().app(i).request_mb * static_cast<double>(left);
  }

  // Walk the jobs backwards (later jobs of an app first, so early launches
  // run on local data while transfers are still in flight): imports lost to
  // a dead origin remove exactly the import-backed batch slots they would
  // have filled, then the arriving imports are attributed.
  auto lost = lost_imports;
  std::vector<std::int64_t> imported(jobs.size(), 0);
  for (std::size_t at = jobs.size(); at-- > 0;) {
    Job& job = jobs[at];
    const auto app = static_cast<std::size_t>(job.app);
    if (!lost.empty()) {
      const auto take = std::min(lost[app], job.served);
      job.served -= take;
      lost[app] -= take;
    }
    imported[at] = std::min(imports_left[app], job.served);
    imports_left[app] -= imported[at];
  }

  // Transfer schedule: imported requests stream over the edge's wireless
  // link back-to-back; request q of Q arrives at (q/Q) * total transfer time.
  // Bandwidth-degradation faults stretch the schedule.
  const double bw_mbps =
      cluster_.device(k).bandwidth_mbps * driver_.bandwidth_scale(k);
  const double transfer_total_s = total_import_mb * 8.0 / bw_mbps;

  // Deterministic execution order.
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);

  double cursor_s = 0.0;
  double busy_s = 0.0;  // launch durations only, not idle import waits
  std::int64_t imports_scheduled = 0;
  for (const std::size_t at : order) {
    const Job& job = jobs[at];
    std::int64_t remaining = job.served;
    std::int64_t imported_remaining = imported[at];
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
          launch_size, driver_.straggler_scale(k));

      const double start_s = std::max(cursor_s, ready_s);
      cursor_s = start_s + duration_s;
      busy_s += duration_s;

      const double completion_tau = cursor_s / tau;
      const double slo = cluster_.zoo().app(job.app).slo_fraction;
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
  result.feedback.busy_s[static_cast<std::size_t>(k)] = busy_s;
  return loss;
}

SlotResult Simulator::step(Scheduler& scheduler, metrics::RunMetrics* metrics) {
  SlotState& state = driver_.begin_slot();
  const int t = state.slot;
  const int I = cluster_.num_apps();
  const int K = cluster_.num_devices();
  const auto is_up = [this](int k) { return driver_.is_up(k); };

  // Carryover mode: requests deferred from the previous slot retry here,
  // next to the orphans failover re-admits at survivors.
  const auto* readmit = driver_.readmissions();
  for (int i = 0; i < I; ++i) {
    for (int k = 0; k < K; ++k) {
      state.demand(i, k) = trace_.at(t, i, k) + carried_(i, k) +
                           (readmit != nullptr ? (*readmit)(i, k) : 0);
    }
  }

  SlotResult result;
  driver_.decide(scheduler, state, result);

  // Fault casualties. Orphans: everything in a dead edge's region this slot
  // (local serving, exports, planned drops — the radio is down, nothing gets
  // in or out) plus requests a live edge ships toward a dead one (lost in
  // transit, attributed to their origin so failover's retry-budget
  // bookkeeping stays pessimistic). Imports a live edge expects from a dead
  // origin never arrive (per receiving edge and app).
  std::vector<std::vector<std::int64_t>> lost_imports(
      static_cast<std::size_t>(K));
  util::Grid2<std::int64_t> orphans;
  if (driver_.have_faults()) {
    orphans = util::Grid2<std::int64_t>(I, K, 0);
    for (int i = 0; i < I; ++i) {
      for (int k = 0; k < K; ++k) {
        if (!is_up(k)) orphans(i, k) = state.demand(i, k);
      }
    }
    for (const Flow& flow : result.decision.flows) {
      if (is_up(flow.from) == is_up(flow.to)) continue;
      if (is_up(flow.from)) {
        orphans(flow.app, flow.from) += flow.count;
        continue;
      }
      auto& lost = lost_imports[static_cast<std::size_t>(flow.to)];
      if (lost.empty()) lost.assign(static_cast<std::size_t>(I), 0);
      lost[static_cast<std::size_t>(flow.app)] += flow.count;
    }
  }

  // Execute the live edges in edge order. Each has its own cursor inside
  // the slot, so they run side by side in simulated time. Down edges
  // execute nothing this slot.
  for (int k = 0; k < K; ++k) {
    if (!is_up(k)) continue;
    result.slot_loss += execute_edge(
        k, lost_imports[static_cast<std::size_t>(k)], result, metrics);
  }

  // The failover policy splits the orphans into retries and terminal drops.
  if (driver_.have_faults()) {
    const auto& drops = driver_.resolve_orphans(orphans, result, metrics);
    for (int i = 0; i < I; ++i) {
      const double worst = cluster_.zoo().worst_loss(i);
      for (int k = 0; k < K; ++k) {
        result.slot_loss += worst * static_cast<double>(drops(i, k));
      }
    }
  }

  // Dropped requests. Paper semantics: every unserved request fails this
  // slot (worst-model loss, SLO failure). Carryover mode (retry-once
  // extension): fresh unserved requests defer to the next slot with a
  // renewed deadline; requests already deferred once fail for good. Down
  // edges are excluded: their whole demand, carryover included, was
  // orphaned above.
  for (int i = 0; i < I; ++i) {
    const double worst = cluster_.zoo().worst_loss(i);
    for (int k = 0; k < K; ++k) {
      if (!is_up(k)) {
        carried_(i, k) = 0;
        continue;
      }
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
      result.slot_loss += worst * static_cast<double>(failed);
      result.dropped += failed;
      result.slo_failures += failed;
      if (metrics != nullptr) metrics->record_dropped(failed);
    }
  }

  driver_.end_slot(scheduler, result, metrics);
  return result;
}

void Simulator::finish(Scheduler& scheduler, metrics::RunMetrics& metrics) {
  // Carryover requests still deferred at the horizon never get their retry
  // (always none outside carryover mode).
  for (const auto carried : carried_.raw()) metrics.record_dropped(carried);
  carried_.fill(0);
  driver_.finish(scheduler, metrics);
}

metrics::RunMetrics Simulator::run(Scheduler& scheduler, int max_slots) {
  const int horizon = max_slots > 0 ? std::min(max_slots, trace_.slots())
                                    : trace_.slots();
  metrics::RunMetrics metrics(horizon);
  while (driver_.slot() < horizon) step(scheduler, &metrics);
  finish(scheduler, metrics);
  return metrics;
}

}  // namespace birp::sim
