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
// --json writes the tracked BENCH_serve.json (hot-path req/s and
// allocs/request, admit-to-launch p50/p99, burst-drill goodput). --quick
// shrinks every phase for CI; --check exits nonzero unless the adaptive
// batcher strictly improves goodput on the burst drill and the hot-path
// drill's steady state performs zero allocations per request. The
// request-level CSV (metrics::write_latency_csv) is printed for external
// plotting.
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
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
/// Returns goodput under SLO for one batching mode.
struct DrillResult {
  birp::metrics::RunMetrics metrics;
  double goodput = 0.0;
};

DrillResult run_drill(const birp::device::ClusterSpec& cluster,
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
  DrillResult result{engine.run(scheduler), 0.0};
  const double horizon_s = cluster.tau_s() * trace.slots();
  result.goodput = result.metrics.goodput_under_slo(horizon_s);
  return result;
}

// ------------------------------------------------------ hot-path drill ----

struct HotPathResult {
  double req_per_s = 0.0;
  double allocs_per_request = 0.0;
  std::int64_t requests = 0;
};

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

HotPathResult run_hot_path_drill(bool quick, std::uint64_t seed) {
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

  HotPathResult result;
  result.requests = static_cast<std::int64_t>(count) * iters;
  const double secs = std::chrono::duration<double>(stop - start).count();
  result.req_per_s =
      secs > 0.0 ? static_cast<double>(result.requests) / secs : 0.0;
  result.allocs_per_request =
      static_cast<double>(allocs) / static_cast<double>(result.requests);
  if (sink != static_cast<std::int64_t>(stream.size()) * (iters + 1)) {
    std::cout << "(hot-path drill processed " << sink << " takes)\n";
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool check = false;
  std::int64_t capacity = 0;
  double wait_fraction = 0.05;
  double burst = 4.0;
  std::string json_path;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (flag == "--capacity" && a + 1 < argc) {
      capacity = std::strtoll(argv[++a], nullptr, 0);
    } else if (flag == "--wait" && a + 1 < argc) {
      wait_fraction = std::atof(argv[++a]);
    } else if (flag == "--burst" && a + 1 < argc) {
      burst = std::atof(argv[++a]);
    } else if (flag == "--json" && a + 1 < argc) {
      json_path = argv[++a];
    } else if (flag == "--quick") {
      quick = true;
    } else if (flag == "--check") {
      check = true;
    }
  }
  const auto cli = birp::bench::Cli::parse(
      argc, argv, /*default_slots=*/quick ? 30 : 200, /*default_target=*/0.7);

  auto scenario =
      birp::bench::make_scenario(birp::device::ClusterSpec::paper_small(), cli);
  std::cout << "Request-level serving run: " << scenario.trace.total()
            << " requests over " << cli.slots << " slots, queue capacity "
            << (capacity > 0 ? std::to_string(capacity) : "unbounded")
            << ", batch wait " << wait_fraction << " tau\n\n";

  birp::serve::ServeConfig config;
  config.seed = cli.seed;
  config.queue_capacity = capacity;
  config.max_batch_wait_fraction = wait_fraction;

  birp::core::BirpScheduler birp(scenario.cluster);
  birp::sched::OaeiScheduler oaei(scenario.cluster);
  birp::sched::MaxScheduler max(scenario.cluster);

  const auto serve = [&](birp::sim::Scheduler& scheduler) {
    birp::serve::ServeEngine engine(scenario.cluster, scenario.trace, config);
    return engine.run(scheduler);
  };
  const auto m_birp = serve(birp);
  const auto m_oaei = serve(oaei);
  const auto m_max = serve(max);

  const std::vector<std::pair<std::string, const birp::metrics::RunMetrics*>>
      runs{{"BIRP", &m_birp}, {"OAEI", &m_oaei}, {"MAX", &m_max}};

  birp::bench::print_summary(std::cout, "Serving summary (slot metrics)",
                             runs);
  std::cout << '\n';

  const double horizon_s =
      scenario.cluster.tau_s() * static_cast<double>(cli.slots);
  birp::util::TextTable table({"algorithm", "goodput/s", "p50 tau", "p95 tau",
                               "p99 tau", "a2l p50", "a2l p99", "SLO att. %",
                               "dropped", "queue drops", "mean depth"});
  for (const auto& [name, m] : runs) {
    const auto& a2l = m->admit_to_launch();
    table.add_row(
        {name, birp::util::fixed(m->goodput_under_slo(horizon_s), 3),
         birp::util::fixed(m->latency_quantile(0.5), 3),
         birp::util::fixed(m->latency_quantile(0.95), 3),
         birp::util::fixed(m->latency_quantile(0.99), 3),
         a2l.empty() ? "-" : birp::util::fixed(a2l.quantile(0.5), 3),
         a2l.empty() ? "-" : birp::util::fixed(a2l.quantile(0.99), 3),
         birp::util::fixed(m->slo_attainment_percent(), 2),
         std::to_string(m->dropped()), std::to_string(m->queue_dropped()),
         m->queue_depth().count() > 0
             ? birp::util::fixed(m->queue_depth().mean(), 2)
             : "-"});
  }
  table.print(std::cout,
              "Per-request latency (incl. admit-to-launch, tau units) and "
              "goodput under SLO");

  // ------------------------------------------- slot-boundary burst drill ----
  // Bursty demand against a stale plan: the decision (largest variant,
  // kernel prior 2 — what a memory-bound MILP solve pins for big models)
  // was sized for the quiet slots; every other slot spikes to --burst times
  // that. Fixed fill-to-target pays one slow launch per kernel-load; the
  // adaptive batcher grows toward the backlog and seals early under
  // deadline pressure.
  const auto& cluster = scenario.cluster;
  const int drill_slots = quick ? 6 : 12;
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

  const auto fixed =
      run_drill(cluster, drill_trace, stale, cli.seed, /*adaptive=*/false);
  const auto adaptive =
      run_drill(cluster, drill_trace, stale, cli.seed, /*adaptive=*/true);

  std::cout << "\nSlot-boundary burst drill: " << drill_trace.total()
            << " requests over " << drill_slots << " slots, burst x" << burst
            << ", stale kernel prior 2 on variant " << drill_variant << "\n";
  birp::util::TextTable drill_table(
      {"batching", "goodput/s", "SLO att. %", "p95 tau", "full", "timeout",
       "deadline", "growth", "utility"});
  const auto drill_row = [&](const std::string& name,
                             const DrillResult& r) {
    const auto& m = r.metrics;
    drill_table.add_row(
        {name, birp::util::fixed(r.goodput, 3),
         birp::util::fixed(m.slo_attainment_percent(), 2),
         birp::util::fixed(m.latency_quantile(0.95), 3),
         std::to_string(m.batch_seals(
             static_cast<int>(birp::serve::SealReason::kFull))),
         std::to_string(m.batch_seals(
             static_cast<int>(birp::serve::SealReason::kTimeout))),
         std::to_string(m.batch_seals(
             static_cast<int>(birp::serve::SealReason::kDeadline))),
         std::to_string(m.batch_seals(
             static_cast<int>(birp::serve::SealReason::kGrowth))),
         std::to_string(m.batch_seals(
             static_cast<int>(birp::serve::SealReason::kUtility)))});
  };
  drill_row("fixed", fixed);
  drill_row("adaptive", adaptive);
  drill_table.print(std::cout, "Fixed fill-to-target vs adaptive batching");

  // ------------------------------------------------- hot-path queue drill ----
  const auto hot = run_hot_path_drill(quick, cli.seed);
  std::cout << "\nHot-path queue drill ("
            << (birp::util::alloc_counting_active()
                    ? "alloc counting active"
                    : "alloc counting INACTIVE")
            << "):\n";
  birp::util::TextTable hot_table(
      {"queue", "req/s", "allocs/request", "requests"});
  hot_table.add_row({"AdmissionQueue", birp::util::fixed(hot.req_per_s, 0),
                     birp::util::fixed(hot.allocs_per_request, 4),
                     std::to_string(hot.requests)});
  hot_table.print(std::cout, "Sustained admission -> batch -> dispatch");

  std::cout << "\nCSV (metrics::write_latency_csv):\n";
  birp::metrics::write_latency_csv(
      std::cout, {{"BIRP", &m_birp},
                  {"OAEI", &m_oaei},
                  {"MAX", &m_max},
                  {"fixed-burst", &fixed.metrics},
                  {"adaptive-burst", &adaptive.metrics}});

  const auto& a2l = m_birp.admit_to_launch();
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out.precision(6);
    out << std::fixed;
    out << "{\n"
        << "  \"benchmark\": \"bench_serve\",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"slots\": " << cli.slots << ",\n"
        << "  \"seed\": " << cli.seed << ",\n"
        << "  \"hot_path\": {\n"
        << "    \"requests\": " << hot.requests << ",\n"
        << "    \"req_per_s\": " << hot.req_per_s << ",\n"
        << "    \"allocs_per_request\": " << hot.allocs_per_request << "\n"
        << "  },\n"
        << "  \"admit_to_launch_tau\": {\n"
        << "    \"p50\": " << (a2l.empty() ? 0.0 : a2l.quantile(0.5)) << ",\n"
        << "    \"p99\": " << (a2l.empty() ? 0.0 : a2l.quantile(0.99))
        << "\n"
        << "  },\n"
        << "  \"burst_drill\": {\n"
        << "    \"fixed_goodput\": " << fixed.goodput << ",\n"
        << "    \"adaptive_goodput\": " << adaptive.goodput << "\n"
        << "  }\n"
        << "}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }

  int status = 0;
  if (check) {
    if (!(adaptive.goodput > fixed.goodput)) {
      std::cout << "\nCHECK FAILED: adaptive goodput "
                << birp::util::fixed(adaptive.goodput, 4)
                << " must strictly beat fixed "
                << birp::util::fixed(fixed.goodput, 4)
                << " on the burst drill\n";
      status = 1;
    } else if (birp::util::alloc_counting_active() &&
               hot.allocs_per_request > 0.0) {
      std::cout << "\nCHECK FAILED: hot-path drill performed "
                << birp::util::fixed(hot.allocs_per_request, 4)
                << " allocs/request in steady state (must be 0)\n";
      status = 1;
    } else {
      std::cout << "\nCHECK OK: adaptive goodput "
                << birp::util::fixed(adaptive.goodput, 4) << " > fixed "
                << birp::util::fixed(fixed.goodput, 4)
                << ", hot-path allocs/request "
                << birp::util::fixed(hot.allocs_per_request, 4) << "\n";
    }
  }
  return status;
}
