// Request-level asynchronous serving engine.
//
// Where sim::Simulator scores a slot decision on merged per-slot batches,
// the ServeEngine replays the trace as timestamped request arrivals inside
// each slot and follows every request through admission, redistribution,
// batch assembly, dispatch, and execution. Both runtimes share the slot's
// other half through sim::SlotDriver (liveness and fault factors, failover
// re-admission, decide + validate/repair, orphan resolution, observe, the
// horizon flush); the engine owns its execute half:
//
//   1. copy the slot's cell-major arrival runs (workload::slot_arrivals)
//      into per-(app, origin) lists, rotate failover re-admissions to the
//      front of theirs, and derive SlotState.demand from the lists; the
//      guard's hints steer the decision and serve as the failover avoid mask;
//   2. split each cell's arrivals into serve-local / redistribute / shed
//      streams according to the repaired decision; redistributed requests
//      reach their serving edge after the wireless transfer schedule;
//   3. per edge, on its own worker, sort the edge's stream by availability,
//      admit requests chronologically into a bounded admission queue
//      (drop/backpressure policy), assemble batches of the decided kernel
//      size with a max-wait timeout for partial batches, and execute them
//      on the edge's accelerator using ground-truth TIR plus noise;
//   4. record per-request queueing delay, batch-formation wait, execution
//      latency, and SLO hit/miss, fold the outcomes into the guard, and
//      hand busy-time + TIR observations back through the driver.
//
// Edges execute concurrently on runtime::ThreadPool. Determinism matches
// the simulator's standard: all randomness comes from per-(slot, edge)
// forked RNG streams and per-edge computation is sequential, so results
// are bit-identical at any thread count.
//
// Hot-path layout: every piece of per-edge working state — the
// single-owner admission queue, batch scratch buffers, gate tables, and the
// outcome accumulators — lives in a cache-line-aligned EdgeShard owned by
// exactly one worker per slot. Shards persist across slots with grow-only
// capacity, so steady-state serving performs zero heap allocations per
// request on the admission→seal→launch path (asserted in serve_test via
// the BIRP_COUNT_ALLOCS hook, tracked in BENCH_serve.json); cross-edge
// workers never share a cache line or a lock.
//
// SLO semantics differ deliberately from the simulator: the simulator
// checks completion within the slot (slot-relative), the engine checks each
// request's end-to-end sojourn (arrival to completion) against
// slo_fraction * tau — the quantity per-request SLOs are written against.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "birp/device/cluster.hpp"
#include "birp/fault/failover.hpp"
#include "birp/fault/fault_plan.hpp"
#include "birp/guard/controller.hpp"
#include "birp/metrics/run_metrics.hpp"
#include "birp/runtime/thread_pool.hpp"
#include "birp/serve/adaptive.hpp"
#include "birp/serve/queue.hpp"
#include "birp/serve/request.hpp"
#include "birp/sim/launch.hpp"
#include "birp/sim/scheduler.hpp"
#include "birp/sim/slot_driver.hpp"
#include "birp/util/stats.hpp"
#include "birp/workload/arrivals.hpp"
#include "birp/workload/trace.hpp"

namespace birp::serve {

struct ServeConfig {
  /// Lognormal sigma applied to every batch execution time.
  double noise_sigma = 0.04;
  /// Seeds both the arrival-timestamp expansion and the execution noise.
  std::uint64_t seed = 0x51beef;
  /// Worker threads for per-edge execution; 0 = hardware concurrency.
  int threads = 0;
  /// Admission-queue capacity per edge (buffered requests); 0 = unbounded.
  /// Negative is rejected by config validation.
  std::int64_t queue_capacity = 0;
  QueuePolicy queue_policy = QueuePolicy::kRejectNewest;
  /// Partial-batch timeout as a fraction of tau; negative = wait for full
  /// batches (launch early only when the request stream is exhausted).
  double max_batch_wait_fraction = 0.05;
  /// Retain per-request records in SlotServeResult (tests / deep dives).
  bool keep_records = false;
  /// Fault injection: edge outages orphan the requests routed to them,
  /// bandwidth faults stretch transfer schedules, stragglers stretch
  /// launches. Empty plan = the fault-free engine, bit for bit.
  fault::FaultPlan fault_plan;
  /// Orphan handling: terminal drops (disabled, default) or re-admission as
  /// fresh arrivals at surviving edges after seeded exponential backoff. A
  /// re-admitted request's sojourn clock restarts at re-admission (its
  /// deadline is renewed, like the simulator's carryover mode).
  fault::FailoverConfig failover;
  /// Overload protection (birp/guard): deadline-aware admission, per-edge
  /// circuit breakers, and the graceful-degradation ladder. All-default =
  /// disabled, and the engine is byte-identical to a guard-free build.
  guard::GuardConfig guard;
  /// SLO-aware adaptive batching (serve/adaptive.hpp): the MILP batch size
  /// becomes a per-slot prior the runtime seals early / grows around. All-
  /// default = disabled, and batch assembly is byte-identical to the
  /// fill-to-target rule. When enabled, every launch reports a TIR
  /// observation (not just the first per job), so the tuner sees the
  /// realized batch-size distribution the runtime actually ran.
  AdaptiveBatcherConfig adaptive;
};

/// Outcome of one served slot.
struct SlotServeResult : sim::SlotOutcome {
  std::int64_t planned_drops = 0;  ///< shed by the decision (worst-model loss)
  std::int64_t queue_drops = 0;    ///< backpressure drops (admission queue)
  std::int64_t deadline_sheds = 0; ///< shed by deadline-aware admission
  /// Heap allocations performed inside the per-edge hot path this slot
  /// (thread-local operator-new counts; 0 unless a BIRP_COUNT_ALLOCS hook
  /// is linked). Nonzero only while shards grow toward their high-water
  /// capacity — steady state is 0.
  std::int64_t hot_allocs = 0;
  /// Launches sealed this slot, bucketed by SealReason.
  std::array<std::int64_t, kNumSealReasons> seals{};
  /// All request records in deterministic order; only when keep_records.
  std::vector<RequestRecord> records;
};

class ServeEngine {
 public:
  ServeEngine(const device::ClusterSpec& cluster, const workload::Trace& trace,
              ServeConfig config = {});

  /// Runs the scheduler over the whole horizon (or `max_slots` if positive
  /// and smaller) and returns aggregated request-level metrics.
  metrics::RunMetrics run(sim::Scheduler& scheduler, int max_slots = -1);

  /// Serves a single slot, advancing internal state.
  SlotServeResult step(sim::Scheduler& scheduler,
                       metrics::RunMetrics* metrics = nullptr);

  /// Flushes terminal state into `metrics`: failover orphans still awaiting
  /// re-admission (terminal drops) and the scheduler's fallback count. run()
  /// calls this at the horizon; harnesses driving step() themselves must
  /// call it once after the last step for exact request conservation.
  void finish(sim::Scheduler& scheduler, metrics::RunMetrics& metrics);

  [[nodiscard]] int current_slot() const noexcept { return driver_.slot(); }
  [[nodiscard]] const device::ClusterSpec& cluster() const noexcept {
    return cluster_;
  }
  /// The guard controller, when any guard feature is enabled (tests/demos).
  [[nodiscard]] const guard::GuardController* guard() const noexcept {
    return guard_.has_value() ? &guard_.value() : nullptr;
  }

 private:
  /// The serve-here stream of one edge plus what the decision shed there.
  struct EdgeInput {
    std::vector<ServeItem> stream;        ///< sorted on the edge's worker
    std::vector<ServeItem> planned_drops; ///< rejected at arrival
  };

  /// Everything one edge produces in a slot; merged single-threaded.
  struct EdgeOutcome {
    std::vector<RequestRecord> records;  ///< served, queue drops, stranded
    std::vector<sim::TirObservation> observations;
    std::array<std::int64_t, kNumSealReasons> seals{};  ///< per SealReason
    util::RunningStats depth_stats;
    double busy_s = 0.0;
    double loss = 0.0;  ///< served-request loss only
    /// operator-new calls on this edge's worker during execute_edge (0
    /// without the BIRP_COUNT_ALLOCS hook; 0 in steady state with it).
    std::int64_t hot_allocs = 0;
  };

  struct EdgeShard;

  /// Context behind the non-owning admission gate: lives in the shard so
  /// its address is stable for the queue's lifetime.
  struct GateContext {
    const ServeEngine* engine = nullptr;
    const EdgeShard* shard = nullptr;
    int edge = 0;
  };

  /// All per-edge working state, owned by exactly one worker per slot.
  /// Cache-line aligned so neighboring edges' hot state never false-shares;
  /// every container is grow-only, making steady-state slots allocation-
  /// free on the admission→seal→launch path.
  struct alignas(64) EdgeShard {
    AdmissionQueue queue;
    EdgeOutcome outcome;
    std::vector<sim::Job> jobs;
    std::vector<ServeItem> members;     ///< take_into scratch per launch
    std::vector<ServeItem> candidates;  ///< batcher.plan input scratch
    std::vector<double> avail_scratch;  ///< batcher.plan working set
    std::vector<int> gate_variant;      ///< per-app gate deployment table
    std::vector<int> gate_kernel;
    GateContext gate_ctx;
    /// Accelerator-free time on this edge: launches dispatched so far end
    /// here, and the next one cannot start earlier. Read by the admission
    /// gate (execution backlog folds into its sojourn prediction).
    double cursor_s = 0.0;
  };

  /// Index of the (app, edge) cell in the per-cell scratch lists.
  [[nodiscard]] std::size_t cell(int app, int edge) const noexcept {
    return static_cast<std::size_t>(app) *
               static_cast<std::size_t>(cluster_.num_devices()) +
           static_cast<std::size_t>(edge);
  }

  /// AdmissionGate trampoline into GuardController::admit.
  static bool admission_gate_thunk(const void* ctx, const ServeItem& item,
                                   std::int64_t buffered_ahead);

  /// Fills inputs_ from cells_scratch_ (both reused across slots); the
  /// transfer schedule runs at each edge's bandwidth this slot.
  void build_edge_inputs(const sim::SlotDecision& decision);

  /// Serves one edge's slot into shards_[k].outcome (clearing it first).
  void execute_edge(int k, const sim::SlotDecision& decision,
                    const std::vector<ServeItem>& stream);

  const device::ClusterSpec& cluster_;
  const workload::Trace& trace_;
  ServeConfig config_;
  /// Batch-assembly rule: delegates to seal_batch when adaptation is
  /// disabled (the default), so that path stays byte-identical.
  AdaptiveBatcher batcher_;
  runtime::ThreadPool pool_;
  sim::SlotDriver driver_;
  /// Overload protection; engaged only when a guard feature is enabled, so
  /// the default path stays byte-identical to the guard-free engine.
  std::optional<guard::GuardController> guard_;

  /// Persistent per-edge hot-path state (one per device, reused per slot).
  std::vector<EdgeShard> shards_;
  /// Per-slot scratch for build_edge_inputs / step, reused across slots.
  std::vector<EdgeInput> inputs_;
  /// Arrivals per (app, origin) cell, in (arrival_s, seq) order.
  std::vector<std::vector<ServeItem>> cells_scratch_;
  std::vector<std::size_t> cursor_scratch_;
  std::vector<std::vector<ServeItem>> imports_scratch_;
  /// Orphaned requests per (app, origin) cell, and their counts.
  std::vector<std::vector<ServeItem>> orphan_scratch_;
  util::Grid2<std::int64_t> orphan_counts_;
};

}  // namespace birp::serve
