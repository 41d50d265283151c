// Request-level asynchronous serving engine.
//
// Where sim::Simulator scores a slot decision on merged per-slot batches,
// the ServeEngine replays the trace as timestamped request arrivals inside
// each slot and follows every request through admission, redistribution,
// batch assembly, dispatch, and execution. Both runtimes share the slot's
// other half through sim::SlotDriver (liveness and fault factors, failover
// re-admission, decide + validate/repair, orphan resolution, observe, the
// horizon flush); the engine owns its execute half. A slot is two
// fork-joins on runtime::ThreadPool, and the step thread does only what is
// serial:
//
//   step thread                          pool (workers + the step thread)
//   -----------                          --------------------------------
//   1. demand = trace counts + failover
//      re-admissions; each (app, origin)
//      cell's offset in the slot-wide
//      arrival buffer
//   2. decide + validate/repair (the     2. expand the arrivals, one app's
//      guard's hints steer it)              cells per claim
//                                           (workload::expand_cell), and
//                                           rotate each cell's re-admitted
//                                           cohort in behind any real
//                                           arrival at exactly 0
//   3. route: serve-local counts, the
//      import runs each flow moves (in
//      flow order), where each cell's
//      planned drops begin, each live
//      edge's stream offset; orphans
//      when a fault plan is set
//                                        4. per live edge: build its stream
//                                           (serve-local portions, imports
//                                           after the wireless transfer
//                                           schedule), sort it by
//                                           availability, admit into the
//                                           bounded queue, assemble and
//                                           launch batches on ground-truth
//                                           TIR plus noise, and tally the
//                                           records: counters, the guard's
//                                           per-(app, edge) verdicts, loss
//                                           terms and samples, written at
//                                           the edge's stream offset
//   5. merge in edge order (samples by
//      Ecdf::add_all, loss terms in
//      record order), origin drops,
//      orphan resolution, guard and
//      observe through the driver
//
// Determinism matches the simulator's standard: all randomness comes from
// per-(slot, cell) and per-(slot, edge) forked RNG streams, every task
// writes only its own cells, shard and buffer ranges, and the merge runs in
// a fixed order, so results are bit-identical at any thread count.
//
// Hot-path layout: every piece of per-edge working state — the
// single-owner admission queue, batch scratch buffers, gate tables, and the
// outcome accumulators — lives in a cache-line-aligned EdgeShard owned by
// exactly one task per slot. Shards persist across slots with grow-only
// capacity, and the slot-wide buffers (arrivals, samples) are reserved once
// for the trace's worst slot, so steady-state serving performs zero heap
// allocations per slot on the step thread outside decide and in every task
// (asserted in serve_test via the BIRP_COUNT_ALLOCS hook, tracked in
// BENCH_serve.json); cross-edge tasks never share a lock.
//
// SLO semantics differ deliberately from the simulator: the simulator
// checks completion within the slot (slot-relative), the engine checks each
// request's end-to-end sojourn (arrival to completion) against
// slo_fraction * tau — the quantity per-request SLOs are written against.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
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
  /// Pool worker threads for a slot's two fork-joins (arrival expansion
  /// while the step thread decides, then one task per live edge), which the
  /// step thread also claims work from; 0 = hardware concurrency.
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
  /// Heap allocations of the slot's serve half: the step thread outside
  /// decide and the merge into the result and metrics, plus every task the
  /// pool ran for it (thread-local operator-new counts; 0 unless a
  /// BIRP_COUNT_ALLOCS hook is linked). Nonzero only while buffers grow
  /// past the trace's worst slot (re-admissions) or orphan lists grow —
  /// steady state is 0.
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
  /// Everything one edge produces in a slot. Its task fills it; the step
  /// thread merges the edges in index order.
  struct EdgeOutcome {
    std::vector<RequestRecord> records;  ///< served, queue drops, stranded
    std::vector<sim::TirObservation> observations;
    std::array<std::int64_t, kNumSealReasons> seals{};  ///< per SealReason
    util::RunningStats depth_stats;
    double busy_s = 0.0;
    double loss = 0.0;  ///< served-request loss only
    /// Tallies of `records`: served (and how many missed their SLO), then
    /// the unserved kinds; each unserved record left one worst-model loss
    /// term in the slot's loss-term section, in record order.
    std::int64_t served = 0;
    std::int64_t slo_misses = 0;
    std::int64_t queue_drops = 0;
    std::int64_t deadline_sheds = 0;
    std::int64_t stranded = 0;  ///< stream left over: shed as planned drops
    /// operator-new calls by this edge's task when a pool worker ran it (0
    /// without the BIRP_COUNT_ALLOCS hook; 0 in steady state with it). The
    /// step thread counts the tasks it runs itself.
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
    /// Holds the edge's stream until the queue stages it, then serves as
    /// take_into scratch per launch.
    std::vector<ServeItem> members;
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

  /// A run of one source cell's arrivals that a flow moves to another edge.
  struct ImportRun {
    std::size_t begin = 0;  ///< index into arrivals_
    std::size_t count = 0;
    int to = 0;
  };

  /// Per-request sections of the slot-wide sample buffer.
  enum Sample : std::size_t {
    kSojourn,
    kQueueWait,
    kAdmitToLaunch,
    kLossTerm,
    kNumSamples
  };

  /// Index of the (app, edge) cell in the per-cell tables.
  [[nodiscard]] std::size_t cell(int app, int edge) const noexcept {
    return static_cast<std::size_t>(app) *
               static_cast<std::size_t>(cluster_.num_devices()) +
           static_cast<std::size_t>(edge);
  }

  /// AdmissionGate trampoline into GuardController::admit.
  static bool admission_gate_thunk(const void* ctx, const ServeItem& item,
                                   std::int64_t buffered_ahead);

  /// Expands app i's cells of slot t into arrivals_ and rotates each cell's
  /// re-admitted cohort in behind any real arrival at exactly 0.
  void expand_app(int t, int app);

  /// Splits the cells by the repaired decision on the step thread: serve-
  /// local counts, the import runs each flow moves (in flow order), where
  /// each cell's planned drops begin, and each live edge's stream offset.
  void route(const sim::SlotDecision& decision);

  /// Calls fn(arrival, available_s) for each request imported to edge k,
  /// in flow order: all of them stream back-to-back over k's wireless link
  /// and import q of Q lands at ((q+1)/Q) of the total transfer time.
  template <typename Fn>
  void for_each_import(int k, Fn&& fn) const;

  /// One live edge's task: builds its stream from its cells and imports,
  /// sorts and executes it, and tallies the records (samples into the
  /// slot-wide buffer when `sampled`).
  void serve_edge(int k, const sim::SlotDecision& decision, bool sampled);

  /// Serves one edge's slot into shards_[k].outcome (clearing it first).
  void execute_edge(int k, const sim::SlotDecision& decision,
                    std::span<const ServeItem> stream);

  /// Returns the heap's free pages to the OS when the engine goes, if its
  /// shards reserved more than kReleaseAboveBytes. Every shard reserves the
  /// trace's worst slot, so together they span up to K times what a slot
  /// touches, in pieces small enough to come from the heap. Freed, they
  /// stay there with the pages the slots touched, and the next engine's
  /// land elsewhere and touch more, so a process that builds such engines
  /// one after another would keep the union resident. Declared first, so
  /// destroyed last.
  struct ReleaseFreePages {
    /// glibc's ceiling on its mmap threshold: a single allocation this
    /// large is always mapped on its own and unmapped when freed.
    static constexpr std::size_t kReleaseAboveBytes = std::size_t{32} << 20;
    bool armed = false;
    ~ReleaseFreePages();
  };
  ReleaseFreePages release_free_pages_;

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

  // Slot-wide scratch, reused across slots (sizes only grow).
  /// The slot's arrivals, cell-major: cell c is [cell_begin_[c],
  /// cell_begin_[c + 1]), real arrivals first by offset, re-admissions
  /// rotated in.
  std::vector<workload::Arrival> arrivals_;
  std::vector<std::size_t> cell_begin_;
  std::vector<std::int64_t> local_;     ///< per cell: served where it arrived
  std::vector<std::size_t> drop_begin_; ///< per cell: first planned drop
  std::vector<ImportRun> import_runs_;  ///< in flow order
  /// Per live edge: its stream's offset; a section of samples_ has room for
  /// every request of every stream.
  std::vector<std::size_t> stream_begin_;
  std::size_t stream_total_ = 0;
  std::vector<double> samples_;  ///< kNumSamples sections of stream_total_
  std::vector<int> apps_;        ///< 0..I-1: the arrival fork's claim order
  std::vector<int> live_edges_;  ///< the edge fork's claim order
  /// Guard inputs: per-(app, edge) serving verdicts and deadline sheds,
  /// written by the edge's own task.
  util::Grid2<guard::GuardController::CellStats> guard_cells_;
  util::Grid2<std::int64_t> guard_sheds_;
  std::vector<std::int64_t> app_demand_;
  std::vector<std::int64_t> app_shed_;
  /// Orphaned requests per (app, origin) cell, and their counts.
  std::vector<std::vector<ServeItem>> orphan_scratch_;
  util::Grid2<std::int64_t> orphan_counts_;
};

}  // namespace birp::serve
