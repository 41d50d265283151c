#include "birp/serve/engine.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <span>
#include <thread>

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

/// The request an arrival becomes, ready at its serving edge at
/// `available_s`.
ServeItem item_of(const workload::Arrival& a, double available_s) {
  return ServeItem{a.app, a.device, a.seq, a.offset_s, available_s};
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

ServeEngine::ReleaseFreePages::~ReleaseFreePages() {
#if defined(__GLIBC__)
  if (armed) malloc_trim(0);
#endif
}

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
  const int apps = cluster.num_apps();
  const int devices = cluster.num_devices();
  const auto I = static_cast<std::size_t>(apps);
  const auto K = static_cast<std::size_t>(devices);
  shards_ = std::vector<EdgeShard>(K);
  cell_begin_.resize(I * K + 1, 0);
  local_.resize(I * K, 0);
  drop_begin_.resize(I * K, 0);
  import_runs_.reserve(I * K);
  stream_begin_.resize(K, 0);
  apps_.resize(I);
  for (int i = 0; i < apps; ++i) apps_[static_cast<std::size_t>(i)] = i;
  live_edges_.reserve(K);
  guard_cells_ = util::Grid2<guard::GuardController::CellStats>(apps, devices);
  guard_sheds_ = util::Grid2<std::int64_t>(apps, devices, 0);
  app_demand_.resize(I, 0);
  app_shed_.resize(I, 0);
  orphan_scratch_.resize(I * K);
  orphan_counts_ = util::Grid2<std::int64_t>(apps, devices, 0);

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
  // Per request, a shard reserves a record, an observation, its stream and
  // the queue's stream, drop and shed copies.
  constexpr std::size_t kShardBytesPerRequest = sizeof(RequestRecord) +
                                                sizeof(sim::TirObservation) +
                                                4 * sizeof(ServeItem);
  release_free_pages_.armed = per_edge * K * kShardBytesPerRequest >
                              ReleaseFreePages::kReleaseAboveBytes;
  // The slot-wide buffers hold the worst slot once, not once per edge.
  arrivals_.reserve(per_edge);
  samples_.reserve(kNumSamples * per_edge);
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

void ServeEngine::expand_app(int t, int app) {
  for (int k = 0; k < cluster_.num_devices(); ++k) {
    const std::size_t c = cell(app, k);
    const std::span cell_run(arrivals_.data() + cell_begin_[c],
                             cell_begin_[c + 1] - cell_begin_[c]);
    const auto real = static_cast<std::size_t>(trace_.at(t, app, k));
    workload::expand_cell(t, app, k, cluster_.tau_s(), config_.seed,
                          cell_run.first(real));
    if (real == cell_run.size()) continue;
    // Orphans whose backoff window elapsed re-enter as synthetic arrivals:
    // available at the slot start (they have been waiting since their
    // failure), with fresh sequence numbers after the cell's real arrivals.
    // Rotated in behind any real arrival at exactly 0, they lead the cell.
    for (std::size_t r = real; r < cell_run.size(); ++r) {
      cell_run[r] = workload::Arrival{t, app, k, static_cast<std::int64_t>(r),
                                      0.0};
    }
    const auto cohort = cell_run.begin() + static_cast<std::ptrdiff_t>(real);
    const auto lead = std::partition_point(
        cell_run.begin(), cohort,
        [](const workload::Arrival& a) { return a.offset_s <= 0.0; });
    std::rotate(lead, cohort, cell_run.end());
  }
}

void ServeEngine::route(const sim::SlotDecision& decision) {
  const int I = cluster_.num_apps();
  const int K = cluster_.num_devices();

  // Serve-local portions: the earliest arrivals stay home; the repaired
  // decision guarantees serve_local + exports + drops == demand per cell.
  std::fill(local_.begin(), local_.end(), 0);
  for (const auto& flow : decision.flows) {
    local_[cell(flow.app, flow.to)] -= flow.count;  // imports, as counted
  }
  for (int i = 0; i < I; ++i) {
    for (int j = 0; j < decision.max_variants(); ++j) {
      const auto served = decision.served.run(i, j);
      for (int k = 0; k < K; ++k) {
        local_[cell(i, k)] += served[static_cast<std::size_t>(k)];
      }
    }
    for (int k = 0; k < K; ++k) {
      const std::size_t c = cell(i, k);
      local_[c] = std::clamp<std::int64_t>(
          local_[c], 0,
          static_cast<std::int64_t>(cell_begin_[c + 1] - cell_begin_[c]));
      drop_begin_[c] = cell_begin_[c] + static_cast<std::size_t>(local_[c]);
    }
  }

  // Redistribution: flows consume the next arrivals of their source cell in
  // decision order; drop_begin_ ends as the first arrival nothing took.
  import_runs_.clear();
  for (const auto& flow : decision.flows) {
    if (flow.count <= 0 || flow.from == flow.to) continue;
    const std::size_t c = cell(flow.app, flow.from);
    auto& at = drop_begin_[c];
    const auto take = std::min(static_cast<std::size_t>(flow.count),
                               cell_begin_[c + 1] - at);
    if (take == 0) continue;  // the source cell is spent
    import_runs_.push_back(ImportRun{at, take, flow.to});
    at += take;
  }

  // Each live edge's stream: its serve-local portions plus the imports
  // whose origin is up.
  for (int k = 0; k < K; ++k) {
    auto& size = stream_begin_[static_cast<std::size_t>(k)];
    size = 0;
    for (int i = 0; driver_.is_up(k) && i < I; ++i) {
      size += static_cast<std::size_t>(local_[cell(i, k)]);
    }
  }
  for (const auto& run : import_runs_) {
    if (driver_.is_up(run.to) && driver_.is_up(arrivals_[run.begin].device)) {
      stream_begin_[static_cast<std::size_t>(run.to)] += run.count;
    }
  }
  stream_total_ = 0;
  for (auto& begin : stream_begin_) {
    const std::size_t size = begin;
    begin = stream_total_;
    stream_total_ += size;
  }
}

template <typename Fn>
void ServeEngine::for_each_import(int k, Fn&& fn) const {
  double total_mb = 0.0;
  std::size_t total = 0;
  for (const auto& run : import_runs_) {
    if (run.to != k) continue;
    for (std::size_t r = 0; r < run.count; ++r) {
      total_mb += cluster_.zoo().app(arrivals_[run.begin + r].app).request_mb;
    }
    total += run.count;
  }
  if (total == 0) return;
  // Transfer schedule (same model as the simulator), never before the
  // request left its origin.
  const double transfer_total_s =
      total_mb * 8.0 /
      (cluster_.device(k).bandwidth_mbps * driver_.bandwidth_scale(k));
  std::size_t q = 0;
  for (const auto& run : import_runs_) {
    if (run.to != k) continue;
    for (std::size_t r = 0; r < run.count; ++r, ++q) {
      const auto& a = arrivals_[run.begin + r];
      fn(a, std::max(a.offset_s,
                     transfer_total_s * static_cast<double>(q + 1) /
                         static_cast<double>(total)));
    }
  }
}

void ServeEngine::serve_edge(int k, const sim::SlotDecision& decision,
                             bool sampled) {
  EdgeShard& shard = shards_[static_cast<std::size_t>(k)];
  const int I = cluster_.num_apps();

  // The stream: serve-local portions, then the imports whose origin is up,
  // sorted by availability.
  auto& stream = shard.members;
  stream.clear();
  for (int i = 0; i < I; ++i) {
    const std::size_t c = cell(i, k);
    const std::size_t end =
        cell_begin_[c] + static_cast<std::size_t>(local_[c]);
    for (std::size_t r = cell_begin_[c]; r < end; ++r) {
      const auto& a = arrivals_[r];
      stream.push_back(item_of(a, a.offset_s));
    }
  }
  for_each_import(k, [&](const workload::Arrival& a, double available_s) {
    if (driver_.is_up(a.device)) {
      stream.push_back(item_of(a, available_s));
    }
  });
  std::sort(stream.begin(), stream.end(), by_availability);
  execute_edge(k, decision, stream);

  // Tally the records for the merge: counters, the guard's per-(app, edge)
  // verdicts, each unserved record's worst-model loss in record order, and
  // the served requests' samples (units of tau).
  EdgeOutcome& outcome = shard.outcome;
  const double tau = cluster_.tau_s();
  const std::size_t at = stream_begin_[static_cast<std::size_t>(k)];
  const auto section = [&](Sample sample) {
    return samples_.data() + sample * stream_total_ + at;
  };
  const bool guarded = guard_.has_value();
  if (guarded) {
    for (int i = 0; i < I; ++i) {
      guard_cells_(i, k) = {};
      guard_sheds_(i, k) = 0;
    }
  }
  std::size_t unserved = 0;
  for (const auto& record : outcome.records) {
    const int app = record.item.app;
    if (record.outcome == Outcome::kServed) {
      if (sampled) {
        const auto n = static_cast<std::size_t>(outcome.served);
        section(kSojourn)[n] = record.sojourn_s() / tau;
        section(kQueueWait)[n] = record.queue_wait_s() / tau;
        section(kAdmitToLaunch)[n] =
            (record.start_s - record.item.available_s) / tau;
      }
      ++outcome.served;
      if (!record.met_slo) ++outcome.slo_misses;
    } else {
      section(kLossTerm)[unserved++] = cluster_.zoo().worst_loss(app);
      switch (record.outcome) {
        case Outcome::kQueueDrop: ++outcome.queue_drops; break;
        case Outcome::kDeadlineShed: ++outcome.deadline_sheds; break;
        default: ++outcome.stranded; break;  // orphans never occur here
      }
    }
    // Breaker food: serving-path verdicts only (served / backpressure /
    // deadline shed). Planned drops are the scheduler's doing, not the
    // serving edge's, and feed the ladder's shed signal instead.
    if (guarded && record.outcome != Outcome::kPlannedDrop) {
      auto& cell_stats = guard_cells_(app, k);
      ++cell_stats.total;
      if (record.outcome != Outcome::kServed || !record.met_slo) {
        ++cell_stats.failed;
      }
      if (record.outcome == Outcome::kDeadlineShed) ++guard_sheds_(app, k);
    }
  }
}

void ServeEngine::execute_edge(int k, const sim::SlotDecision& decision,
                               std::span<const ServeItem> stream) {
  const double tau = cluster_.tau_s();
  EdgeShard& shard = shards_[static_cast<std::size_t>(k)];
  EdgeOutcome& outcome = shard.outcome;
  outcome.records.clear();
  outcome.observations.clear();
  outcome.seals.fill(0);
  outcome.depth_stats = util::RunningStats{};
  outcome.busy_s = 0.0;
  outcome.loss = 0.0;
  outcome.served = 0;
  outcome.slo_misses = 0;
  outcome.queue_drops = 0;
  outcome.deadline_sheds = 0;
  outcome.stranded = 0;

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
  // merged and sorted; `stream` is not read after this). This worker owns
  // the shard, so it is the queue's only user for the whole slot.
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
}

SlotServeResult ServeEngine::step(sim::Scheduler& scheduler,
                                  metrics::RunMetrics* metrics) {
  const int K = cluster_.num_devices();
  const int I = cluster_.num_apps();
  const auto is_up = [this](int k) { return driver_.is_up(k); };
  // Heap allocations of the serve half: this thread's odometer (decide
  // excluded) plus the tasks pool workers run for it.
  const auto step_thread = std::this_thread::get_id();
  const std::int64_t allocs_before = util::alloc_counts().allocs;
  std::int64_t decide_allocs = 0;
  std::atomic<std::int64_t> worker_allocs{0};
  const auto worker_delta = [step_thread](std::int64_t before) {
    return std::this_thread::get_id() == step_thread
               ? 0
               : util::alloc_counts().allocs - before;
  };

  // Overload protection: hints derived from earlier slots' outcomes steer
  // this slot's decision (breaker avoid mask, ladder variant caps) and the
  // failover re-admission targets.
  const sim::SchedulerHints* hints =
      guard_.has_value() ? &guard_->begin_slot(driver_.slot()) : nullptr;
  sim::SlotState& state = driver_.begin_slot(hints);
  const int t = state.slot;

  // Demand is the trace's counts plus this slot's failover re-admissions,
  // which is exactly what the cells' arrival runs will hold.
  const auto* readmit = driver_.readmissions();
  std::size_t total = 0;
  for (int i = 0; i < I; ++i) {
    for (int k = 0; k < K; ++k) {
      std::int64_t demand = trace_.at(t, i, k);
      if (readmit != nullptr) {
        demand += std::max<std::int64_t>((*readmit)(i, k), 0);
      }
      state.demand(i, k) = demand;
      cell_begin_[cell(i, k)] = total;
      total += static_cast<std::size_t>(demand);
    }
  }
  cell_begin_.back() = total;
  if (arrivals_.size() < total) arrivals_.resize(total);

  // The pool expands the arrivals, one app's cells per claim, while this
  // thread decides and repairs.
  SlotServeResult result;
  pool_.run_claimed_alongside(
      apps_,
      [&] {
        const std::int64_t before = util::alloc_counts().allocs;
        driver_.decide(scheduler, state, result);
        decide_allocs = util::alloc_counts().allocs - before;
      },
      [&](int i) {
        const std::int64_t before = util::alloc_counts().allocs;
        expand_app(t, i);
        worker_allocs += worker_delta(before);
      });
  route(result.decision);

  // Orphans: a down edge loses its whole stream (nothing executes there) and
  // its region's planned drops (the region is dark, not shed); a live edge
  // loses the imports whose origin died (lost in transit). Attribution is by
  // origin cell, which is also where failover injects retries.
  if (driver_.have_faults()) {
    for (auto& items : orphan_scratch_) items.clear();
    orphan_counts_.fill(0);
    const auto orphan = [&](const workload::Arrival& a, double available_s) {
      orphan_scratch_[cell(a.app, a.device)].push_back(item_of(a, available_s));
      ++orphan_counts_(a.app, a.device);
    };
    for (int k = 0; k < K; ++k) {
      const bool up = is_up(k);
      for (int i = 0; i < I && !up; ++i) {
        // Everything of the cell but its exports: serve-local and dropped.
        const std::size_t c = cell(i, k);
        for (std::size_t r = cell_begin_[c]; r < cell_begin_[c + 1]; ++r) {
          const bool exported =
              r >= cell_begin_[c] + static_cast<std::size_t>(local_[c]) &&
              r < drop_begin_[c];
          if (!exported) orphan(arrivals_[r], arrivals_[r].offset_s);
        }
      }
      for_each_import(k, [&](const workload::Arrival& a, double available_s) {
        if (!up || !is_up(a.device)) orphan(a, available_s);
      });
    }
  }

  // Serve the live edges: each task builds, sorts and executes its own
  // stream and tallies its records; this thread claims edges too. Down
  // edges execute nothing this slot.
  const bool sampled = metrics != nullptr;
  if (samples_.size() < kNumSamples * stream_total_) {
    samples_.resize(kNumSamples * stream_total_);
  }
  live_edges_.clear();
  for (int k = 0; k < K; ++k) {
    if (is_up(k)) live_edges_.push_back(k);
  }
  pool_.run_claimed(live_edges_, [&](int k) {
    const std::int64_t before = util::alloc_counts().allocs;
    serve_edge(k, result.decision, sampled);
    shards_[static_cast<std::size_t>(k)].outcome.hot_allocs =
        worker_delta(before);
  });
  result.hot_allocs = util::alloc_counts().allocs - allocs_before -
                      decide_allocs + worker_allocs.load();

  // Merge in edge order, so every sample vector, counter and loss sum is
  // the same at any thread count.
  for (const int k : live_edges_) {
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
    const std::size_t at = stream_begin_[static_cast<std::size_t>(k)];
    const auto section = [&](Sample sample, std::int64_t count) {
      return std::span<const double>(
          samples_.data() + sample * stream_total_ + at,
          static_cast<std::size_t>(count));
    };
    const std::int64_t unserved =
        outcome.queue_drops + outcome.deadline_sheds + outcome.stranded;
    result.slot_loss += outcome.loss;
    for (const double term : section(kLossTerm, unserved)) {
      result.slot_loss += term;
    }
    result.served += outcome.served;
    result.queue_drops += outcome.queue_drops;
    result.deadline_sheds += outcome.deadline_sheds;
    result.planned_drops += outcome.stranded;
    result.slo_failures += outcome.slo_misses + unserved;
    if (metrics != nullptr) {
      metrics->record_served(section(kSojourn, outcome.served),
                             section(kQueueWait, outcome.served),
                             section(kAdmitToLaunch, outcome.served),
                             outcome.slo_misses);
      metrics->record_queue_drop(outcome.queue_drops);
      metrics->record_dropped(outcome.stranded);
      metrics->record_deadline_shed(outcome.deadline_sheds);
      metrics->merge_queue_depth(outcome.depth_stats);
    }
    if (config_.keep_records) {
      result.records.insert(result.records.end(), outcome.records.begin(),
                            outcome.records.end());
    }
  }

  // Requests the decision shed at their origin (never routed anywhere); a
  // down edge's went dark with it instead.
  for (const int k : live_edges_) {
    for (int i = 0; i < I; ++i) {
      const std::size_t c = cell(i, k);
      const auto drops =
          static_cast<std::int64_t>(cell_begin_[c + 1] - drop_begin_[c]);
      if (drops == 0) continue;
      const double worst = cluster_.zoo().worst_loss(i);
      for (std::int64_t d = 0; d < drops; ++d) result.slot_loss += worst;
      result.planned_drops += drops;
      result.slo_failures += drops;
      if (metrics != nullptr) metrics->record_dropped(drops);
      if (!config_.keep_records) continue;
      for (std::size_t r = drop_begin_[c]; r < cell_begin_[c + 1]; ++r) {
        RequestRecord record;
        record.item = item_of(arrivals_[r], arrivals_[r].offset_s);
        record.outcome = Outcome::kPlannedDrop;
        result.records.push_back(record);
      }
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
    for (int i = 0; i < I; ++i) {
      auto& demand = app_demand_[static_cast<std::size_t>(i)];
      auto& shed = app_shed_[static_cast<std::size_t>(i)];
      demand = 0;
      shed = 0;
      for (int k = 0; k < K; ++k) {
        demand += state.demand(i, k);
        if (!is_up(k)) {
          guard_cells_(i, k) = {};  // a dark edge reached no verdicts
          continue;
        }
        shed += guard_sheds_(i, k);
      }
    }
    const auto summary = guard_->end_slot(guard_cells_, app_demand_, app_shed_);
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
