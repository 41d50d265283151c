#include "birp/serve/engine.hpp"

#include <algorithm>
#include <future>
#include <span>

#include "birp/serve/batcher.hpp"
#include "birp/util/alloc_count.hpp"
#include "birp/util/check.hpp"
#include "birp/util/rng.hpp"

namespace birp::serve {
namespace {

/// Appends one record per item that left the slot unserved with `outcome`;
/// `served_on` is the edge that turned it away (-1: never routed).
void append_unserved(std::vector<RequestRecord>& records,
                     std::span<const ServeItem> items, Outcome outcome,
                     int served_on = -1) {
  for (const auto& item : items) {
    RequestRecord record;
    record.item = item;
    record.outcome = outcome;
    record.served_on = served_on;
    records.push_back(record);
  }
}

/// An edge's admission order: (available_s, app, origin, seq) is unique per
/// request, so the sorted stream does not depend on how it was assembled.
bool by_availability(const ServeItem& a, const ServeItem& b) {
  if (a.available_s != b.available_s) return a.available_s < b.available_s;
  if (a.app != b.app) return a.app < b.app;
  if (a.origin != b.origin) return a.origin < b.origin;
  return a.seq < b.seq;
}

}  // namespace

ServeEngine::ServeEngine(const device::ClusterSpec& cluster,
                         const workload::Trace& trace, ServeConfig config)
    : cluster_(cluster),
      trace_(trace),
      config_(config),
      batcher_(cluster, config.adaptive),
      pool_(config.threads <= 0 ? 0 : static_cast<std::size_t>(config.threads)),
      driver_(cluster, trace, config_.fault_plan, config_.failover) {
  util::check(config_.noise_sigma >= 0.0, "ServeEngine: negative noise");
  util::check(config_.threads >= 0, "ServeEngine: negative thread count");
  util::check(config_.queue_capacity >= 0,
              "ServeEngine: negative queue capacity (0 = unbounded)");
  guard::validate(config_.guard);
  if (config_.guard.any_enabled()) {
    guard_.emplace(cluster, config_.guard);
  }
  const auto I = static_cast<std::size_t>(cluster.num_apps());
  const auto K = static_cast<std::size_t>(cluster.num_devices());
  shards_ = std::vector<EdgeShard>(K);
  inputs_.resize(K);
  cells_scratch_.resize(I * K);
  cursor_scratch_.resize(I * K, 0);
  imports_scratch_.resize(K);
  orphan_scratch_.resize(I * K);
  orphan_counts_ = util::Grid2<std::int64_t>(cluster.num_apps(),
                                             cluster.num_devices(), 0);

  // Construction-time warmup: pre-carve every per-edge container to the
  // trace's worst slot, so the hot path never allocates — not even while
  // random burst timing nudges per-launch high-water marks around. An
  // edge's slot stream (local + imports) is bounded by the slot's total
  // demand; failover re-admissions can exceed it, in which case the grow-
  // only containers absorb the difference once and go quiet again.
  std::int64_t worst_slot = 0;
  for (int t = 0; t < trace.slots(); ++t) {
    worst_slot = std::max(worst_slot, trace.slot_total(t));
  }
  const auto per_edge = static_cast<std::size_t>(worst_slot);
  const auto max_batch = static_cast<std::size_t>(sim::kMaxKernelBatch);
  for (auto& shard : shards_) {
    shard.queue.reserve(cluster.num_apps(), per_edge);
    shard.outcome.records.reserve(per_edge);
    shard.outcome.observations.reserve(per_edge);
    shard.members.reserve(std::max(per_edge, max_batch));
    shard.candidates.reserve(max_batch);
    shard.avail_scratch.reserve(max_batch);
    shard.jobs.reserve(I * static_cast<std::size_t>(
                               cluster.zoo().max_variants()));
    shard.gate_variant.reserve(I);
    shard.gate_kernel.reserve(I);
  }
}

bool ServeEngine::admission_gate_thunk(const void* ctx, const ServeItem& item,
                                       std::int64_t buffered_ahead) {
  const auto& gc = *static_cast<const GateContext*>(ctx);
  const EdgeShard& shard = *gc.shard;
  const int variant = shard.gate_variant[static_cast<std::size_t>(item.app)];
  if (variant < 0) return true;  // no deployment: stranded path anyway
  return gc.engine->guard_->admit(
      gc.edge, item.app, variant,
      shard.gate_kernel[static_cast<std::size_t>(item.app)], item.arrival_s,
      item.available_s, shard.cursor_s, buffered_ahead);
}

void ServeEngine::build_edge_inputs(const sim::SlotDecision& decision) {
  const int I = cluster_.num_apps();
  const int K = cluster_.num_devices();
  auto& cells = cells_scratch_;

  for (auto& input : inputs_) {
    input.stream.clear();
    input.planned_drops.clear();
  }

  // Serve-local portions: the earliest arrivals stay home; the repaired
  // decision guarantees serve_local + exports + drops == demand per cell.
  auto& cursor = cursor_scratch_;
  std::fill(cursor.begin(), cursor.end(), 0);
  for (int i = 0; i < I; ++i) {
    for (int k = 0; k < K; ++k) {
      auto& list = cells[cell(i, k)];
      std::int64_t serve_local = 0;
      for (int j = 0; j < decision.max_variants(); ++j) {
        serve_local += decision.served(i, j, k);
      }
      serve_local -= decision.imports(i, k);
      serve_local = std::clamp<std::int64_t>(
          serve_local, 0, static_cast<std::int64_t>(list.size()));
      for (std::int64_t r = 0; r < serve_local; ++r) {
        inputs_[static_cast<std::size_t>(k)].stream.push_back(
            list[static_cast<std::size_t>(r)]);
      }
      cursor[cell(i, k)] = static_cast<std::size_t>(serve_local);
    }
  }

  // Redistribution: flows consume the next arrivals of their source cell in
  // decision order; the serving edge sees them after the wireless transfer.
  auto& imports = imports_scratch_;
  for (auto& in : imports) in.clear();
  for (const auto& flow : decision.flows) {
    if (flow.count <= 0 || flow.from == flow.to) continue;
    auto& list = cells[cell(flow.app, flow.from)];
    auto& at = cursor[cell(flow.app, flow.from)];
    for (std::int64_t c = 0; c < flow.count && at < list.size(); ++c, ++at) {
      imports[static_cast<std::size_t>(flow.to)].push_back(list[at]);
    }
  }
  for (int k = 0; k < K; ++k) {
    auto& in = imports[static_cast<std::size_t>(k)];
    if (in.empty()) continue;
    // Transfer schedule (same model as the simulator): all imports stream
    // back-to-back over the edge's wireless link; import q of Q lands at
    // ((q+1)/Q) * total transfer time, and never before it left its origin.
    double total_mb = 0.0;
    for (const auto& item : in) {
      total_mb += cluster_.zoo().app(item.app).request_mb;
    }
    const double transfer_total_s =
        total_mb * 8.0 /
        (cluster_.device(k).bandwidth_mbps * driver_.bandwidth_scale(k));
    const auto total = static_cast<double>(in.size());
    for (std::size_t q = 0; q < in.size(); ++q) {
      auto& item = in[q];
      item.available_s =
          std::max(item.arrival_s,
                   transfer_total_s * static_cast<double>(q + 1) / total);
      inputs_[static_cast<std::size_t>(k)].stream.push_back(item);
    }
  }

  // Whatever the decision did not serve or move is shed at the origin.
  for (int i = 0; i < I; ++i) {
    for (int k = 0; k < K; ++k) {
      const auto& list = cells[cell(i, k)];
      for (auto at = cursor[cell(i, k)]; at < list.size(); ++at) {
        inputs_[static_cast<std::size_t>(k)].planned_drops.push_back(list[at]);
      }
    }
  }
}

void ServeEngine::execute_edge(int k, const sim::SlotDecision& decision,
                               const std::vector<ServeItem>& stream) {
  const double tau = cluster_.tau_s();
  EdgeShard& shard = shards_[static_cast<std::size_t>(k)];
  EdgeOutcome& outcome = shard.outcome;
  outcome.records.clear();
  outcome.observations.clear();
  outcome.seals.fill(0);
  outcome.depth_stats = util::RunningStats{};
  outcome.busy_s = 0.0;
  outcome.loss = 0.0;
  outcome.hot_allocs = 0;
  // Thread-local allocation odometer for this edge's hot path; stays 0
  // unless a BIRP_COUNT_ALLOCS hook is linked into the binary.
  const std::int64_t allocs_before = util::alloc_counts().allocs;

  // Deterministic per-(slot, edge) noise stream (sim/launch.hpp), so thread
  // count can never change results.
  util::Xoshiro256StarStar rng(
      sim::edge_slot_seed(config_.seed, driver_.slot(), k));

  auto& jobs = shard.jobs;
  sim::collect_jobs(cluster_, decision, k, jobs);
  rng.shuffle(jobs);

  const double max_wait_s = config_.max_batch_wait_fraction < 0.0
                                ? -1.0
                                : config_.max_batch_wait_fraction * tau;

  // Accelerator-free time on this edge. Lives in the shard so the admission
  // gate can fold the execution backlog into its sojourn prediction
  // (admissions interleave with launches on this one worker, so the read is
  // always current and race-free).
  shard.cursor_s = 0.0;

  // Deadline-aware admission: predict each arrival's sojourn against the
  // deployment the decision planned for its app on this edge (the variant
  // serving the most requests; ties to the cheaper one). GuardController::
  // admit is const and reads only immutable tables, so calling it from
  // concurrent per-edge workers is safe.
  AdmissionGate gate;
  if (guard_.has_value() && guard_->config().admission.enabled) {
    const int I = cluster_.num_apps();
    shard.gate_variant.assign(static_cast<std::size_t>(I), -1);
    shard.gate_kernel.assign(static_cast<std::size_t>(I), 1);
    for (int i = 0; i < I; ++i) {
      std::int64_t best = 0;
      for (int j = 0; j < cluster_.zoo().num_variants(i); ++j) {
        const auto served = decision.served(i, j, k);
        if (served > best) {
          best = served;
          shard.gate_variant[static_cast<std::size_t>(i)] = j;
          shard.gate_kernel[static_cast<std::size_t>(i)] =
              std::max(1, decision.kernel(i, j, k));
        }
      }
    }
    shard.gate_ctx = GateContext{this, &shard, k};
    gate = AdmissionGate(&shard.gate_ctx, &ServeEngine::admission_gate_thunk);
  }

  // Re-arm the persistent queue and stage this slot's stream (already
  // merged and sorted). This worker owns the shard, so it is the queue's
  // only user for the whole slot.
  auto& queue = shard.queue;
  queue.reset(cluster_.num_apps(), config_.queue_capacity,
              config_.queue_policy, gate);
  queue.stage(stream);

  for (const auto& job : jobs) {
    std::int64_t remaining = job.served;
    bool first_launch = true;
    const double slo_s = cluster_.zoo().app(job.app).slo_fraction * tau;
    while (remaining > 0) {
      queue.fill(job.app, 1);
      const auto fifo = queue.waiting(job.app);  // live view
      if (fifo.empty()) break;  // stream eaten by backpressure drops

      // Launch target: the MILP decision's kernel is a prior the adaptive
      // batcher may grow toward the job's backlog (a no-op when disabled).
      const auto backlog = static_cast<std::int64_t>(fifo.size()) +
                           queue.upstream(job.app);
      const auto need = static_cast<int>(std::min<std::int64_t>(
          remaining, batcher_.effective_target(job.kernel, backlog)));

      if (max_wait_s < 0.0) {
        queue.fill(job.app, static_cast<std::size_t>(need));
      } else {
        const double threshold =
            std::max(shard.cursor_s, fifo.front().available_s + max_wait_s);
        queue.fill_until(job.app, static_cast<std::size_t>(need), threshold);
      }
      // Guard against planning a launch from a drained queue: when a slot
      // boundary lands exactly on a queue drain (every buffered request
      // gone, e.g. shed by the admission gate mid-fill), sealing would ask
      // seal_batch for an empty batch and trip its contract check.
      if (fifo.empty()) break;

      auto& candidates = shard.candidates;
      candidates.clear();
      const auto considered =
          std::min<std::size_t>(fifo.size(), static_cast<std::size_t>(need));
      std::size_t taken = 0;
      for (auto it = fifo.begin(); taken < considered; ++it, ++taken) {
        candidates.push_back(*it);
      }
      // More members can only come from requests still upstream in the
      // stream; everything already buffered is in `considered`.
      const bool more = queue.upstream(job.app) > 0;
      const auto plan = batcher_.plan(k, job.app, job.variant, candidates,
                                      job.kernel, need, shard.cursor_s,
                                      max_wait_s, more, &shard.avail_scratch);
      const auto& seal = plan.seal;
      ++outcome.seals[static_cast<std::size_t>(plan.reason)];

      auto& members = shard.members;
      queue.take_into(job.app, static_cast<std::size_t>(seal.count), members);
      queue.on_dispatch(seal.start_s, members.size());

      // Launch size: static-shape padding (MAX) bills the full kernel even
      // for a partial batch; otherwise the runtime right-sizes the launch.
      // A batch grown beyond the kernel is billed at its real size.
      const int launch_size =
          decision.pad_partial_launches ? std::max(job.kernel, seal.count)
                                        : seal.count;
      // Straggler faults stretch the launch; visible downstream as longer
      // busy time and a depressed observed TIR.
      const double duration_s = sim::launch_duration_s(
          cluster_, rng, config_.noise_sigma, k, job.app, job.variant,
          launch_size, driver_.straggler_scale(k));
      const double completion_s = seal.start_s + duration_s;
      // The accelerator is serial: the next launch on this edge cannot start
      // before this one completes (batcher.hpp's cursor contract; the slot
      // simulator advances its cursor the same way).
      shard.cursor_s = completion_s;
      outcome.busy_s += duration_s;
      outcome.loss += cluster_.zoo().variant(job.app, job.variant).loss *
                      static_cast<double>(seal.count);

      for (const auto& member : members) {
        RequestRecord record;
        record.item = member;
        record.outcome = Outcome::kServed;
        record.served_on = k;
        record.variant = job.variant;
        record.batch = seal.count;
        record.formation_end_s = seal.formation_end_s;
        record.start_s = seal.start_s;
        record.completion_s = completion_s;
        record.met_slo = record.sojourn_s() <= slo_s + 1e-12;
        outcome.records.push_back(record);
      }

      // With adaptive batching every launch reports an observation, so the
      // TIR tuner sees the realized batch-size distribution (grown and
      // early-sealed launches included), not just the decided kernel; the
      // fixed rule keeps the first-launch-only behavior bit for bit.
      if (first_launch || batcher_.enabled()) {
        outcome.observations.push_back(sim::observe_launch(
            cluster_, k, job.app, job.variant, launch_size, duration_s));
        first_launch = false;
      }

      remaining -= seal.count;
    }
  }

  // Backpressure drops, deadline-aware admission sheds, then stranded
  // requests (stream larger than the decision's serve counts — only
  // possible on a malformed repair), shed like planned drops so every
  // arrival is accounted exactly once.
  append_unserved(outcome.records, queue.dropped(), Outcome::kQueueDrop, k);
  append_unserved(outcome.records, queue.deadline_shed(),
                  Outcome::kDeadlineShed, k);
  queue.drain_waiting_into(shard.members);
  append_unserved(outcome.records, shard.members, Outcome::kPlannedDrop, k);
  queue.drain_unprocessed_into(shard.members);
  append_unserved(outcome.records, shard.members, Outcome::kPlannedDrop, k);
  outcome.depth_stats = queue.depth_stats();
  outcome.hot_allocs = util::alloc_counts().allocs - allocs_before;
}

SlotServeResult ServeEngine::step(sim::Scheduler& scheduler,
                                  metrics::RunMetrics* metrics) {
  const int K = cluster_.num_devices();
  const int I = cluster_.num_apps();
  const double tau = cluster_.tau_s();
  const auto is_up = [this](int k) { return driver_.is_up(k); };

  // Overload protection: hints derived from earlier slots' outcomes steer
  // this slot's decision (breaker avoid mask, ladder variant caps) and the
  // failover re-admission targets.
  const sim::SchedulerHints* hints =
      guard_.has_value() ? &guard_->begin_slot(driver_.slot()) : nullptr;
  sim::SlotState state = driver_.begin_slot(hints);
  const int t = state.slot;

  // Per-(app, origin) arrival lists, copied from slot_arrivals' runs in
  // (arrival_s, seq) order; demand is counted from them, so the scheduler
  // sees exactly what the request stream contains. Persistent scratch:
  // cleared, never shrunk.
  auto& cells = cells_scratch_;
  for (auto& list : cells) list.clear();
  for (const auto& a : workload::slot_arrivals(trace_, t, tau, config_.seed)) {
    ++state.demand(a.app, a.device);
    cells[cell(a.app, a.device)].push_back(
        ServeItem{a.app, a.device, a.seq, a.offset_s, a.offset_s});
  }
  if (const auto* readmit = driver_.readmissions()) {
    // Orphans whose backoff window elapsed re-enter as synthetic arrivals:
    // available at the slot start (they have been waiting since their
    // failure), with fresh sequence numbers after the cell's real arrivals.
    // Rotated in behind any real arrival at exactly 0, they lead the cell.
    for (int i = 0; i < I; ++i) {
      for (int k = 0; k < K; ++k) {
        const std::int64_t count = (*readmit)(i, k);
        if (count <= 0) continue;
        auto& list = cells[cell(i, k)];
        const auto real = static_cast<std::ptrdiff_t>(list.size());
        for (std::int64_t r = 0; r < count; ++r) {
          list.push_back(ServeItem{i, k, state.demand(i, k) + r, 0.0, 0.0});
        }
        const auto cohort = list.begin() + real;
        const auto lead = std::partition_point(
            list.begin(), cohort,
            [](const ServeItem& item) { return item.arrival_s <= 0.0; });
        std::rotate(lead, cohort, list.end());
        state.demand(i, k) += count;
      }
    }
  }

  SlotServeResult result;
  driver_.decide(scheduler, state, result);
  build_edge_inputs(result.decision);

  // Orphans: a down edge loses its whole stream (nothing executes there) and
  // its region's planned drops (the region is dark, not shed); a live edge
  // loses the imports whose origin died (lost in transit). Attribution is by
  // origin cell, which is also where failover injects retries.
  if (driver_.have_faults()) {
    for (auto& items : orphan_scratch_) items.clear();
    orphan_counts_.fill(0);
    const auto orphan = [&](const ServeItem& item) {
      orphan_scratch_[cell(item.app, item.origin)].push_back(item);
      ++orphan_counts_(item.app, item.origin);
    };
    for (int k = 0; k < K; ++k) {
      auto& input = inputs_[static_cast<std::size_t>(k)];
      if (!is_up(k)) {
        std::for_each(input.stream.begin(), input.stream.end(), orphan);
        std::for_each(input.planned_drops.begin(), input.planned_drops.end(),
                      orphan);
        input.stream.clear();
        input.planned_drops.clear();
        continue;
      }
      // Live edge: strip imports from dead origins out of the stream.
      auto it = std::stable_partition(
          input.stream.begin(), input.stream.end(),
          [&](const ServeItem& item) { return is_up(item.origin); });
      std::for_each(it, input.stream.end(), orphan);
      input.stream.erase(it, input.stream.end());
    }
  }

  // Execute the live edges concurrently, each into its own shard; outcomes
  // merge deterministically below. Down edges execute nothing this slot.
  // Each task sorts its edge's stream first; the key is unique per request,
  // so sorting after the dead-origin strip gives the order sorting before it
  // would. inputs_ is not touched again until every future has completed.
  std::vector<std::future<void>> futures(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) {
    if (!is_up(k)) continue;
    futures[static_cast<std::size_t>(k)] = pool_.submit([this, k, &result] {
      auto& stream = inputs_[static_cast<std::size_t>(k)].stream;
      std::sort(stream.begin(), stream.end(), by_availability);
      execute_edge(k, result.decision, stream);
    });
  }

  // Serving-path outcome tallies feeding the guard's breakers and ladder.
  util::Grid2<guard::GuardController::CellStats> guard_cells;
  std::vector<std::int64_t> app_demand;
  std::vector<std::int64_t> app_shed;
  if (guard_.has_value()) {
    guard_cells = util::Grid2<guard::GuardController::CellStats>(I, K);
    app_demand.assign(static_cast<std::size_t>(I), 0);
    app_shed.assign(static_cast<std::size_t>(I), 0);
    for (int i = 0; i < I; ++i) {
      for (int k = 0; k < K; ++k) {
        app_demand[static_cast<std::size_t>(i)] += state.demand(i, k);
      }
    }
  }
  for (int k = 0; k < K; ++k) {
    if (!is_up(k)) continue;  // dead edge: zero busy, no energy, no samples
    futures[static_cast<std::size_t>(k)].get();
    const EdgeOutcome& outcome = shards_[static_cast<std::size_t>(k)].outcome;
    result.hot_allocs += outcome.hot_allocs;
    result.feedback.busy_s[static_cast<std::size_t>(k)] = outcome.busy_s;
    result.feedback.observations.insert(result.feedback.observations.end(),
                                        outcome.observations.begin(),
                                        outcome.observations.end());
    for (std::size_t r = 0; r < outcome.seals.size(); ++r) {
      result.seals[r] += outcome.seals[r];
      if (metrics != nullptr && outcome.seals[r] > 0) {
        metrics->record_batch_seals(static_cast<int>(r), outcome.seals[r]);
      }
    }
    result.slot_loss += outcome.loss;
    for (const auto& record : outcome.records) {
      switch (record.outcome) {
        case Outcome::kServed:
          ++result.served;
          if (!record.met_slo) ++result.slo_failures;
          if (metrics != nullptr) {
            metrics->record_request(record.sojourn_s() / tau, record.met_slo);
            metrics->record_request_waits(record.queue_wait_s() / tau,
                                          record.dispatch_wait_s() / tau,
                                          record.exec_s() / tau);
            metrics->record_admit_to_launch(
                (record.start_s - record.item.available_s) / tau);
          }
          break;
        case Outcome::kQueueDrop:
          ++result.queue_drops;
          ++result.slo_failures;
          result.slot_loss += cluster_.zoo().worst_loss(record.item.app);
          if (metrics != nullptr) metrics->record_queue_drop();
          break;
        case Outcome::kPlannedDrop:
          ++result.planned_drops;
          ++result.slo_failures;
          result.slot_loss += cluster_.zoo().worst_loss(record.item.app);
          if (metrics != nullptr) metrics->record_dropped();
          break;
        case Outcome::kDeadlineShed:
          ++result.deadline_sheds;
          ++result.slo_failures;
          result.slot_loss += cluster_.zoo().worst_loss(record.item.app);
          if (metrics != nullptr) metrics->record_deadline_shed();
          break;
        case Outcome::kOrphaned:
          // Orphans are resolved below, never inside execute_edge.
          break;
      }
      // Breaker food: serving-path verdicts only (served / backpressure /
      // deadline shed). Planned drops are the scheduler's doing, not the
      // serving edge's, and feed the ladder's shed signal instead.
      if (guard_.has_value() && (record.outcome == Outcome::kServed ||
                                 record.outcome == Outcome::kQueueDrop ||
                                 record.outcome == Outcome::kDeadlineShed)) {
        auto& cell_stats = guard_cells(record.item.app, k);
        ++cell_stats.total;
        if (record.outcome != Outcome::kServed || !record.met_slo) {
          ++cell_stats.failed;
        }
        if (record.outcome == Outcome::kDeadlineShed) {
          ++app_shed[static_cast<std::size_t>(record.item.app)];
        }
      }
    }
    if (metrics != nullptr) metrics->merge_queue_depth(outcome.depth_stats);
    if (config_.keep_records) {
      result.records.insert(result.records.end(), outcome.records.begin(),
                            outcome.records.end());
    }
  }

  // Requests the decision shed at their origin (never routed anywhere).
  for (int k = 0; k < K; ++k) {
    const auto& drops = inputs_[static_cast<std::size_t>(k)].planned_drops;
    for (const auto& item : drops) {
      ++result.planned_drops;
      ++result.slo_failures;
      result.slot_loss += cluster_.zoo().worst_loss(item.app);
      if (metrics != nullptr) metrics->record_dropped();
    }
    if (config_.keep_records) {
      append_unserved(result.records, drops, Outcome::kPlannedDrop);
    }
  }

  // Resolve orphans: the failover policy splits each origin cell's losses
  // into retries (vanish here, reappear as synthetic arrivals after their
  // backoff) and terminal drops (worst-model loss + SLO failure). The
  // oldest requests get the retry slots.
  if (driver_.have_faults()) {
    const auto& drops = driver_.resolve_orphans(orphan_counts_, result, metrics);
    for (int i = 0; i < I; ++i) {
      const double worst = cluster_.zoo().worst_loss(i);
      for (int k = 0; k < K; ++k) {
        const std::int64_t dropped = drops(i, k);
        for (std::int64_t d = 0; d < dropped; ++d) result.slot_loss += worst;
        if (!config_.keep_records || dropped == 0) continue;
        auto& items = orphan_scratch_[cell(i, k)];
        std::sort(items.begin(), items.end(),
                  [](const ServeItem& a, const ServeItem& b) {
                    return a.seq < b.seq;
                  });
        append_unserved(result.records, std::span(items).last(static_cast<std::size_t>(dropped)),
                        Outcome::kOrphaned);
      }
    }
  }
  // Slot-boundary guard bookkeeping: breakers fold this slot's outcomes
  // into their windows, the ladder reacts to shed pressure and open
  // breakers; transitions land in the metrics.
  if (guard_.has_value()) {
    const auto summary = guard_->end_slot(guard_cells, app_demand, app_shed);
    if (metrics != nullptr) {
      metrics->record_breaker_events(summary.trips, summary.reopens,
                                     summary.probes, summary.recoveries);
      metrics->record_degradation(summary.degraded_apps, summary.max_level);
    }
  }

  driver_.end_slot(scheduler, result, metrics);
  return result;
}

void ServeEngine::finish(sim::Scheduler& scheduler,
                         metrics::RunMetrics& metrics) {
  driver_.finish(scheduler, metrics);
}

metrics::RunMetrics ServeEngine::run(sim::Scheduler& scheduler, int max_slots) {
  const int horizon = max_slots > 0 ? std::min(max_slots, trace_.slots())
                                    : trace_.slots();
  metrics::RunMetrics metrics(horizon);
  while (driver_.slot() < horizon) step(scheduler, &metrics);
  finish(scheduler, metrics);
  return metrics;
}

}  // namespace birp::serve
