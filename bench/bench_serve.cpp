// Request-level serving comparison: BIRP vs the OAEI and MAX baselines on
// the asynchronous serving runtime (birp/serve) instead of the slot
// simulator. Every request is followed through admission, batch formation,
// dispatch, and execution, so the comparison surfaces what slot-level
// scoring hides: tail latency (p95/p99), queueing, and backpressure drops.
//
//   ./bench_serve [--slots N] [--target X] [--seed S] [--capacity C]
//                 [--wait F] [--burst M] [--quick] [--check] [--json PATH]
//
// --capacity bounds each edge's admission queue (0 = unbounded) and --wait
// sets the partial-batch timeout as a fraction of tau (negative = wait for
// full batches). Two drills close the run:
//
//   * The slot-boundary burst drill: demand bursts to M× the quiet level
//     (--burst, default 4) against a stale MILP prior, comparing the fixed
//     fill-to-target rule with the SLO-aware adaptive batcher on goodput
//     under SLO.
//   * The hot-path queue drill: the engine's per-(slot, edge) admission ->
//     batch -> dispatch lifecycle on one persistent AdmissionQueue re-armed
//     per slot (burst-shaped slots: spike/quiet arrival counts
//     alternating), measuring sustained req/s and heap allocations per
//     request (bench_serve links the counting operator-new hook, so the
//     alloc numbers are real).
//
// --json writes the report (the tracked BENCH_serve.json is the full
// 200-slot run: per-scheduler latency and admit-to-launch, burst-drill
// goodput, hot-path req/s and allocs/request). --quick shrinks every phase
// for CI; --check exits nonzero unless the adaptive batcher strictly
// improves goodput on the burst drill and the hot-path drill's steady state
// performs zero allocations per request, counted by the linked hook (a
// build without the hook fails that gate). The request-level CSV
// (metrics::write_latency_csv) is printed for external plotting.
#include <chrono>
#include <cmath>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "birp/metrics/report_csv.hpp"
#include "birp/serve/engine.hpp"
#include "birp/serve/queue.hpp"
#include "birp/util/alloc_count.hpp"
#include "common.hpp"

namespace {

/// Replays a fixed decision every slot — the stale-prior role in the drill.
class ReplayScheduler : public birp::sim::Scheduler {
 public:
  explicit ReplayScheduler(birp::sim::SlotDecision decision)
      : decision_(std::move(decision)) {}
  [[nodiscard]] std::string name() const override { return "replay"; }
  [[nodiscard]] birp::sim::SlotDecision decide(
      const birp::sim::SlotState&) override {
    return decision_;
  }

 private:
  birp::sim::SlotDecision decision_;
};

/// Burst drill: every other slot's demand spikes to `burst`× the quiet
/// level while the replayed plan (largest variant, small kernel prior —
/// the memory-bound shape that forces many launches per job) stays stale.
/// Runs one batching mode and adds its arm (goodput under SLO, seals).
birp::metrics::RunMetrics run_drill(birp::bench::Report& report,
                                    const std::string& name,
                                    const birp::device::ClusterSpec& cluster,
                                    const birp::workload::Trace& trace,
                                    const birp::sim::SlotDecision& decision,
                                    std::uint64_t seed, bool adaptive) {
  birp::serve::ServeConfig config;
  config.noise_sigma = 0.0;
  config.seed = seed;
  config.adaptive.enabled = adaptive;
  config.adaptive.max_batch = 16;
  ReplayScheduler scheduler(decision);
  birp::serve::ServeEngine engine(cluster, trace, config);
  auto m = engine.run(scheduler);
  const auto seals = [&](birp::serve::SealReason reason) {
    return m.batch_seals(static_cast<int>(reason));
  };
  const double horizon_s = cluster.tau_s() * trace.slots();
  report.arm()
      .add("name", name)
      .add("goodput_per_s", m.goodput_under_slo(horizon_s))
      .add("slo_attainment_percent", {m.slo_attainment_percent(), 2})
      .add("p95_tau", m.latency_quantile(0.95))
      .add("seals_full", seals(birp::serve::SealReason::kFull))
      .add("seals_timeout", seals(birp::serve::SealReason::kTimeout))
      .add("seals_deadline", seals(birp::serve::SealReason::kDeadline))
      .add("seals_growth", seals(birp::serve::SealReason::kGrowth))
      .add("seals_utility", seals(birp::serve::SealReason::kUtility));
  return m;
}

// ------------------------------------------------------ hot-path drill ----

/// Seeded arrival stream, sorted by (available_s, app, origin, seq).
std::vector<birp::serve::ServeItem> drill_stream(int apps, int count,
                                                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> when(0.0, 60.0);
  std::vector<birp::serve::ServeItem> stream;
  stream.reserve(static_cast<std::size_t>(count));
  for (int n = 0; n < count; ++n) {
    birp::serve::ServeItem item;
    item.app = static_cast<int>(rng() % static_cast<std::uint64_t>(apps));
    item.arrival_s = when(rng);
    item.available_s = item.arrival_s;
    stream.push_back(item);
  }
  std::sort(stream.begin(), stream.end(),
            [](const birp::serve::ServeItem& a,
               const birp::serve::ServeItem& b) {
              if (a.available_s != b.available_s)
                return a.available_s < b.available_s;
              return a.app < b.app;
            });
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i].seq = static_cast<std::int64_t>(i);
  }
  return stream;
}

/// Runs the drill and adds its results: sustained req/s and steady-state
/// heap allocations per request, which it returns.
double run_hot_path_drill(birp::bench::Report& report, bool quick,
                        std::uint64_t seed) {
  using birp::serve::AdmissionQueue;
  using birp::serve::QueuePolicy;
  using birp::serve::ServeItem;

  constexpr int kApps = 4;
  constexpr std::size_t kBatch = 8;
  // Burst-shaped slots, like the engine's per-(slot, edge) lifecycle: a
  // spike slot followed by a quiet slot, repeating. The quiet slots are
  // where per-slot fixed costs (reset + stage) show up; the spikes exercise
  // sustained admission.
  constexpr int kSpike = 192;
  constexpr int kQuiet = 8;
  const int count = quick ? 20000 : 120000;
  const int iters = quick ? 4 : 10;
  const auto stream = drill_stream(kApps, count, seed);

  // Pre-slice the stream into per-slot sub-streams (harness cost, outside
  // the measured region). Slots alternate spike/quiet sizes.
  std::vector<std::vector<ServeItem>> slots;
  for (std::size_t at = 0; at < stream.size();) {
    const std::size_t take = std::min<std::size_t>(
        slots.size() % 2 == 0 ? kSpike : kQuiet, stream.size() - at);
    slots.emplace_back(stream.begin() + static_cast<std::ptrdiff_t>(at),
                       stream.begin() + static_cast<std::ptrdiff_t>(at + take));
    at += take;
  }

  // Fill toward a batch, take it, release its buffer slots at the
  // (monotone) dispatch time — one persistent queue re-armed per slot, the
  // engine's steady-state discipline: every container is at capacity after
  // the warmup pass, so the measured region performs zero heap
  // allocations. `sink` keeps the loop's results observable so nothing is
  // optimized away.
  std::int64_t sink = 0;
  AdmissionQueue queue;
  queue.reserve(kApps, kSpike);
  std::vector<ServeItem> members;
  members.reserve(kBatch);
  const auto pass = [&] {
    for (const auto& slot : slots) {
      queue.reset(kApps, /*capacity=*/0, QueuePolicy::kRejectNewest, {});
      queue.stage(slot);
      double now_s = 0.0;
      bool work = true;
      while (work) {
        work = false;
        for (int app = 0; app < kApps; ++app) {
          queue.fill(app, kBatch);
          const auto waiting = queue.waiting(app).size();
          if (waiting == 0) continue;
          queue.take_into(app, std::min<std::size_t>(kBatch, waiting),
                          members);
          now_s = std::max(now_s, members.back().available_s);
          queue.on_dispatch(now_s, members.size());
          sink += static_cast<std::int64_t>(members.size());
          work = true;
        }
      }
    }
  };

  // One unmeasured warmup pass (containers reach their high-water
  // capacity), then `iters` timed passes with the thread's allocation
  // counters sampled around them.
  pass();
  const std::int64_t allocs_before = birp::util::alloc_counts().allocs;
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iters; ++it) pass();
  const auto stop = std::chrono::steady_clock::now();
  const std::int64_t allocs =
      birp::util::alloc_counts().allocs - allocs_before;

  const auto requests = static_cast<std::int64_t>(count) * iters;
  const double secs = std::chrono::duration<double>(stop - start).count();
  const double allocs_per_request =
      static_cast<double>(allocs) / static_cast<double>(requests);
  report.result("hot_path_requests", requests)
      .result("hot_path_req_per_s",
              {birp::bench::ratio(static_cast<double>(requests), secs), 0})
      .result("hot_path_allocs_per_request", {allocs_per_request, 4});
  if (sink != static_cast<std::int64_t>(stream.size()) * (iters + 1)) {
    std::cout << "(hot-path drill processed " << sink << " takes)\n";
  }
  return allocs_per_request;
}

}  // namespace

int main(int argc, char** argv) {
  birp::bench::Flags flags(/*default_slots=*/200, /*default_target=*/0.7);
  std::int64_t capacity = 0;
  double wait_fraction = 0.05;
  double burst = 4.0;
  flags.with_quick(30)
      .option("--check", flags.check)
      .option("--json", flags.json)
      .option("--capacity", capacity)
      .option("--wait", wait_fraction)
      .option("--burst", burst);
  flags.parse_or_exit(argc, argv);

  auto scenario = birp::bench::make_scenario(
      birp::device::ClusterSpec::paper_small(), flags);
  birp::bench::Report report("bench_serve");
  report.param("quick", flags.quick)
      .param("slots", flags.slots)
      .param("target", flags.target)
      .param("seed", flags.seed)
      .param("requests", scenario.trace.total())
      .param("queue_capacity", capacity)
      .param("batch_wait_tau", wait_fraction)
      .param("burst", burst);

  birp::serve::ServeConfig config;
  config.seed = flags.seed;
  config.queue_capacity = capacity;
  config.max_batch_wait_fraction = wait_fraction;

  birp::core::BirpScheduler birp(scenario.cluster);
  birp::sched::OaeiScheduler oaei(scenario.cluster);
  birp::sched::MaxScheduler max(scenario.cluster);

  // Per-request latency (incl. admit-to-launch, tau units), goodput under
  // SLO and the slot metrics, one arm per scheduler.
  const double horizon_s =
      scenario.cluster.tau_s() * static_cast<double>(flags.slots);
  const auto serve = [&](const std::string& name,
                         birp::sim::Scheduler& scheduler) {
    birp::serve::ServeEngine engine(scenario.cluster, scenario.trace, config);
    auto m = engine.run(scheduler);
    const auto& a2l = m.admit_to_launch();
    report.arm()
        .add("name", name)
        .add("goodput_per_s", m.goodput_under_slo(horizon_s))
        .add("p50_tau", m.latency_quantile(0.5))
        .add("p95_tau", m.latency_quantile(0.95))
        .add("p99_tau", m.latency_quantile(0.99))
        .add("a2l_p50_tau", a2l.empty() ? 0.0 : a2l.quantile(0.5))
        .add("a2l_p99_tau", a2l.empty() ? 0.0 : a2l.quantile(0.99))
        .add("slo_attainment_percent", {m.slo_attainment_percent(), 2})
        .add("failure_percent", {m.failure_percent(), 2})
        .add("total_loss", {m.total_loss(), 1})
        .add("dropped", m.dropped())
        .add("queue_drops", m.queue_dropped())
        .add("mean_queue_depth",
             {m.queue_depth().count() > 0 ? m.queue_depth().mean() : 0.0, 2})
        .add("mean_busy", m.edge_busy().mean())
        .add("j_per_request", {m.energy_per_request_j(), 2});
    return m;
  };
  const auto m_birp = serve("BIRP", birp);
  const auto m_oaei = serve("OAEI", oaei);
  const auto m_max = serve("MAX", max);

  // ------------------------------------------- slot-boundary burst drill ----
  // Bursty demand against a stale plan: the decision (largest variant,
  // kernel prior 2 — what a memory-bound MILP solve pins for big models)
  // was sized for the quiet slots; every other slot spikes to --burst times
  // that. Fixed fill-to-target pays one slow launch per kernel-load; the
  // adaptive batcher grows toward the backlog and seals early under
  // deadline pressure.
  const auto& cluster = scenario.cluster;
  const int drill_slots = flags.quick ? 6 : 12;
  const auto spike =
      static_cast<std::int64_t>(std::llround(12.0 * std::max(1.0, burst)));
  birp::workload::Trace drill_trace(drill_slots, cluster.num_apps(),
                                    cluster.num_devices());
  for (int t = 0; t < drill_slots; ++t) {
    for (int k = 0; k < cluster.num_devices(); ++k) {
      drill_trace.set(t, 0, k, t % 2 == 0 ? spike : 2);
    }
  }
  const int drill_variant = cluster.zoo().num_variants(0) - 1;
  birp::sim::SlotDecision stale(cluster.num_apps(),
                                cluster.zoo().max_variants(),
                                cluster.num_devices());
  for (int k = 0; k < cluster.num_devices(); ++k) {
    stale.served(0, drill_variant, k) = spike;
    stale.kernel(0, drill_variant, k) = 2;
  }
  report.param("drill_requests", drill_trace.total())
      .param("drill_slots", drill_slots)
      .param("drill_variant", drill_variant);
  const auto fixed = run_drill(report, "fixed-burst", cluster, drill_trace,
                               stale, flags.seed, /*adaptive=*/false);
  const auto adaptive = run_drill(report, "adaptive-burst", cluster,
                                  drill_trace, stale, flags.seed,
                                  /*adaptive=*/true);

  // ------------------------------------------------- hot-path queue drill ----
  const double allocs = run_hot_path_drill(report, flags.quick, flags.seed);
  const bool counting = birp::util::alloc_counting_active();
  report.result("alloc_counting_active", counting);

  std::cout << "CSV (metrics::write_latency_csv):\n";
  birp::metrics::write_latency_csv(
      std::cout, {{"BIRP", &m_birp},
                  {"OAEI", &m_oaei},
                  {"MAX", &m_max},
                  {"fixed-burst", &fixed},
                  {"adaptive-burst", &adaptive}});

  report.gate("burst drill adaptive goodput_per_s > fixed",
              report.find("adaptive-burst").number("goodput_per_s"), ">",
              report.find("fixed-burst").number("goodput_per_s"));
  report.gate("hot-path allocs/request == 0", counting && allocs == 0.0,
              counting ? std::to_string(allocs) + " allocs/request"
                       : "alloc counting INACTIVE: nothing was counted");
  return report.finish(flags);
}
