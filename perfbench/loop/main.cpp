// Closed-loop slot benchmark.
//
//   loopbench --workload <paper_birp|cells_storm|serve_flood> --seed N
//             --seconds S --trace <0|1>
//
// Drives the real ServeEngine::step loop: the next slot starts when the
// previous step returns (closed loop in wall time), while arrivals within a
// slot come from the seeded trace in simulated time. One episode = set-up
// (make_instance) plus every slot of the trace for one "day" of the run.
//
// A run covers several days, each with its own engine seed drawn from --seed,
// because the online scheduler's learning path (and so its solver work)
// differs a lot from one seed to the next; averaging days keeps two runs of
// different seeds comparable. The number of days follows from --seconds and
// the workload's pace (workloads.hpp), never from the clock.
//
// --trace 0 runs every day several times (workloads.cpp pace()). The
// repetitions do bit-identical work (the decision digest and every
// simulated-time metric must match), so each slot's wall time is its fastest
// repetition: noise from other tenants of the machine only ever adds time.
// Slot metrics pool those times over all days.
//
// Every wall time an episode measures is scaled to a reference machine speed
// (speed.hpp): after each slot the loop times one unit of fixed reference
// work, and the episode's times are multiplied by kReferenceUnitMs over the
// median unit time, so slow spells of a shared machine cancel out.
//
// --trace 1 runs every day once untraced and once traced (the difference is
// the tracing overhead), times decide/observe through the Probe decorator,
// replays the last traced day layer by layer, and prints per-layer metrics.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": slots stepped, "failed": slots that broke
//    request conservation, "metrics": {name: {"value": v, "unit": u}}}
// The exit code is 1 when any output check fails.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "birp/metrics/run_metrics.hpp"
#include "birp/serve/adaptive.hpp"
#include "probe.hpp"
#include "replay.hpp"
#include "speed.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// setup_s is the median of at least this many set-ups: one set-up takes
/// milliseconds, so a handful of samples would let machine noise move it.
constexpr int kMinSetups = 15;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  Workload workload = Workload::kPaperBirp;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "loopbench: " << why << "\n"
            << "usage: loopbench --workload <paper_birp|cells_storm|serve_flood>"
               " --seed N --seconds S --trace <0|1>\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (a + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++a];
    try {
      if (flag == "--workload") {
        o.workload = parse_workload(value);
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value, nullptr, 0);
        have_seed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = o.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have_trace = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::invalid_argument& e) {
      usage(flag + ": " + e.what());
    } catch (const std::out_of_range&) {
      usage(flag + ": value out of range");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  return o;
}

/// Everything one day produces that depends only on its seed: identical in
/// every episode of that day, and summed or averaged over days.
struct Simulated {
  std::uint64_t digest = 0;
  std::int64_t offered = 0;
  std::int64_t served = 0;
  std::int64_t slo_met = 0;
  std::int64_t failed = 0;  ///< planned/queue drops, sheds and orphans
  double loss = 0.0;
  double sojourn_p50 = 0.0;
  double sojourn_p99 = 0.0;
  double a2l_p99 = 0.0;
  double queue_wait_p99 = 0.0;
  std::int64_t batches = 0;
  std::int64_t deadline_seals = 0;
  std::int64_t queue_drops = 0;
  std::int64_t deadline_sheds = 0;
  std::int64_t breaker_trips = 0;
  std::int64_t degraded_slots = 0;
  std::int64_t orphans = 0;
  std::int64_t retries = 0;
  double availability_pct = 0.0;
  // Scheduler counters, summed over slots and cells.
  CellCounters solver;
  std::int64_t cell_slots = 0;
  std::int64_t fallback_cell_slots = 0;
  std::int64_t repartitions = 0;
  std::int64_t moved = 0;
  std::int64_t watchdog_trips = 0;
  std::int64_t degraded_cell_slots = 0;
  double pivot_skew_p50 = 0.0;

  bool operator==(const Simulated&) const = default;
};

struct Episode {
  int day = 0;
  bool traced = false;
  double setup_s = 0.0;
  double partition_ms = 0.0;
  double repartition_ms_mean = 0.0;
  /// kReferenceUnitMs / median reference unit; every wall time of the
  /// episode is already multiplied by it.
  double speed_scale = 1.0;
  std::vector<double> step_ms, decide_ms, observe_ms, probe_ms;
  std::int64_t slots = 0;
  std::int64_t broken_slots = 0;  ///< per-slot conservation failures
  bool conserved = false;         ///< whole-run conservation vs trace total
  Simulated sim;
  // The newest traced episode keeps what the replays need.
  std::unique_ptr<Instance> instance;
  std::vector<DecideCapture> captures;
  std::vector<birp::sim::SlotDecision> executed;
};

Episode run_episode(const Options& opt, const ThreadBudget& threads, int day,
                    bool traced) {
  Episode ep;
  ep.day = day;
  ep.traced = traced;
  const auto t0 = Clock::now();
  auto in = std::make_unique<Instance>(
      make_instance(opt.workload, opt.seed, day, threads));
  ep.setup_s = ms_between(t0, Clock::now()) / 1000.0;
  ep.partition_ms = in->partition_ms;

  const auto& trace = *in->trace;
  const int T = trace.slots();
  Probe probe(*in->scheduler, *in->cluster, traced,
              opt.workload == Workload::kPaperBirp ? in->birp_scheduler
                                                   : nullptr);
  birp::metrics::RunMetrics metrics(T);
  Simulated& s = ep.sim;
  CounterSnapshot before = snapshot(*in);
  std::vector<double> skews;
  std::int64_t retried = 0, readmitted = 0, resolved_total = 0;
  Digest digest;
  ep.step_ms.reserve(static_cast<std::size_t>(T));
  std::vector<double> unit_ms;
  unit_ms.reserve(static_cast<std::size_t>(T));

  for (int t = 0; t < T; ++t) {
    const auto s0 = Clock::now();
    birp::serve::SlotServeResult r = in->engine->step(probe, &metrics);
    ep.step_ms.push_back(ms_between(s0, Clock::now()));
    unit_ms.push_back(reference_unit_ms());

    const CounterSnapshot after = snapshot(*in);
    const SlotCounters d = slot_delta(before, after);
    before = after;
    s.solver.pivots += d.total.pivots;
    s.solver.factor_pivots += d.total.factor_pivots;
    s.solver.nodes += d.total.nodes;
    s.solver.warm_lps += d.total.warm_lps;
    s.solver.cold_lps += d.total.cold_lps;
    s.solver.fallbacks += d.total.fallbacks;
    s.repartitions += d.rebuilt ? 1 : 0;
    s.moved += d.moved;
    s.watchdog_trips += d.watchdog_trips;
    s.degraded_cell_slots += d.degraded_cell_slots;
    s.cell_slots += d.cells;
    s.fallback_cell_slots += d.fallback_cells;
    if (d.cells > 1 && d.pivot_skew > 0.0) skews.push_back(d.pivot_skew);

    // Every request the slot offered (trace arrivals plus failover
    // re-admissions) resolves in the slot exactly once.
    const std::int64_t resolved = r.served + r.planned_drops + r.queue_drops +
                                  r.deadline_sheds + r.orphaned + r.retried;
    const std::int64_t readmit = probe.demand_total() - trace.slot_total(t);
    if (resolved != probe.demand_total() || readmit < 0 ||
        (!in->serve.failover.enabled && readmit != 0)) {
      ++ep.broken_slots;
    }
    readmitted += readmit;
    retried += r.retried;
    resolved_total += resolved - r.retried;
    s.served += r.served;
    digest_decision(digest, r.decision);

    if (traced) {
      ep.decide_ms.push_back(probe.decide_ms());
      ep.observe_ms.push_back(probe.observe_ms());
      ep.probe_ms.push_back(probe.probe_ms());
      ep.executed.push_back(std::move(r.decision));
    }
  }
  ep.slots = T;
  ep.speed_scale = speed_scale(unit_ms, kReferenceUnitMs);
  ep.setup_s *= ep.speed_scale;
  ep.partition_ms *= ep.speed_scale;
  for (auto* times : {&ep.step_ms, &ep.decide_ms, &ep.observe_ms, &ep.probe_ms}) {
    scale(*times, ep.speed_scale);
  }

  // Horizon flush, as ServeEngine::run does: re-admissions still pending
  // are terminal losses.
  const std::int64_t pending = retried - readmitted;
  for (std::int64_t p = 0; p < pending; ++p) metrics.record_orphan_drop();
  if (in->plane != nullptr) in->plane->export_metrics(metrics);
  ep.conserved = pending >= 0 && metrics.total_requests() == trace.total() &&
                 resolved_total + pending == trace.total();

  s.digest = digest.get();
  s.offered = trace.total();
  s.slo_met = metrics.slo_met_requests();
  s.failed = metrics.dropped();
  s.loss = metrics.total_loss();
  s.sojourn_p50 = metrics.latency_quantile(0.5);
  s.sojourn_p99 = metrics.latency_quantile(0.99);
  if (metrics.admit_to_launch().count() > 0) {
    s.a2l_p99 = metrics.admit_to_launch().quantile(0.99);
  }
  if (metrics.queue_wait().count() > 0) {
    s.queue_wait_p99 = metrics.queue_wait().quantile(0.99);
  }
  s.batches = metrics.total_batches();
  s.deadline_seals = metrics.batch_seals(
      static_cast<int>(birp::serve::SealReason::kDeadline));
  s.queue_drops = metrics.queue_dropped();
  s.deadline_sheds = metrics.deadline_shed();
  s.breaker_trips = metrics.breaker_trips();
  s.degraded_slots = metrics.degraded_slots();
  s.orphans = metrics.orphan_dropped();
  s.retries = metrics.retries();
  s.availability_pct = metrics.availability_percent();
  s.pivot_skew_p50 = skews.empty() ? 0.0 : median(skews);
  ep.repartition_ms_mean = metrics.repartition_latency_ms().count() > 0
                               ? metrics.repartition_latency_ms().mean() * ep.speed_scale
                               : 0.0;
  if (traced) {
    ep.captures = probe.take_captures();
    ep.instance = std::move(in);
  }
  return ep;
}

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string samples;  ///< how the value was formed (human table only)
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string samples) {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), std::move(samples)});
  }
  void fail(const std::string& why) {
    std::cout << "CHECK FAILED: " << why << "\n";
    correct_ = false;
  }
  [[nodiscard]] bool correct() const noexcept { return correct_; }

  void print(std::int64_t attempted, std::int64_t failed) {
    for (const auto& m : metrics_) {
      if (!std::isfinite(m.value)) fail(m.name + " is not finite");
    }
    std::printf("%-34s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
    for (const auto& m : metrics_) {
      std::printf("%-34s %16.6g  %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      char value[64];
      std::snprintf(value, sizeof value, "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

double p50(const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); }
double p95(const std::vector<double>& v) {
  return v.empty() ? 0.0 : quantile(v, 0.95);
}

/// The episodes of one run grouped by day, in day order.
using Days = std::map<int, std::vector<const Episode*>>;

Days by_day(const std::vector<const Episode*>& eps) {
  Days days;
  for (const Episode* e : eps) days[e->day].push_back(e);
  return days;
}

/// Per-slot timelines of a set of episodes: within a day each slot takes its
/// fastest repetition (stats.hpp fastest()), and the days are concatenated.
/// `self` is formed per episode before the minimum is taken.
struct Timeline {
  std::vector<double> step, decide, observe, self;
  std::string samples;

  explicit Timeline(const std::vector<const Episode*>& eps) {
    const Days days = by_day(eps);
    std::size_t reps = 0;
    for (const auto& [day, group] : days) {
      std::vector<std::vector<double>> steps, decides, observes, selves;
      for (const Episode* e : group) {
        steps.push_back(e->step_ms);
        if (!e->traced) continue;
        decides.push_back(e->decide_ms);
        observes.push_back(e->observe_ms);
        std::vector<double> self;
        for (std::size_t t = 0; t < e->step_ms.size(); ++t) {
          self.push_back(self_time(e->step_ms[t], e->decide_ms[t],
                                   e->observe_ms[t], e->probe_ms[t]));
        }
        selves.push_back(std::move(self));
      }
      append(step, fastest(steps));
      append(decide, fastest(decides));
      append(observe, fastest(observes));
      append(self, fastest(selves));
      reps = group.size();
    }
    samples = std::to_string(step.size()) + " slots (" +
              std::to_string(days.size()) + " days), each the fastest of " +
              std::to_string(reps) + " at reference speed";
  }

 private:
  static void append(std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  }
};

/// Day totals: counts summed, per-day quantiles and rates averaged.
struct Totals {
  Simulated sum;
  double sojourn_p50 = 0.0, sojourn_p99 = 0.0, a2l_p99 = 0.0,
         queue_wait_p99 = 0.0, availability_pct = 0.0, pivot_skew = 0.0;
  std::int64_t slots = 0;
  std::size_t days = 0;

  explicit Totals(const std::vector<const Episode*>& eps) {
    for (const auto& [day, group] : by_day(eps)) {
      const Simulated& s = group.front()->sim;
      ++days;
      slots += group.front()->slots;
      sum.offered += s.offered;
      sum.served += s.served;
      sum.slo_met += s.slo_met;
      sum.failed += s.failed;
      sum.loss += s.loss;
      sum.batches += s.batches;
      sum.deadline_seals += s.deadline_seals;
      sum.queue_drops += s.queue_drops;
      sum.deadline_sheds += s.deadline_sheds;
      sum.breaker_trips += s.breaker_trips;
      sum.degraded_slots += s.degraded_slots;
      sum.orphans += s.orphans;
      sum.retries += s.retries;
      sum.solver.pivots += s.solver.pivots;
      sum.solver.factor_pivots += s.solver.factor_pivots;
      sum.solver.nodes += s.solver.nodes;
      sum.solver.warm_lps += s.solver.warm_lps;
      sum.solver.cold_lps += s.solver.cold_lps;
      sum.solver.fallbacks += s.solver.fallbacks;
      sum.cell_slots += s.cell_slots;
      sum.fallback_cell_slots += s.fallback_cell_slots;
      sum.repartitions += s.repartitions;
      sum.moved += s.moved;
      sum.watchdog_trips += s.watchdog_trips;
      sum.degraded_cell_slots += s.degraded_cell_slots;
      sojourn_p50 += s.sojourn_p50;
      sojourn_p99 += s.sojourn_p99;
      a2l_p99 += s.a2l_p99;
      queue_wait_p99 += s.queue_wait_p99;
      availability_pct += s.availability_pct;
      pivot_skew += s.pivot_skew_p50;
    }
    const double n = static_cast<double>(std::max<std::size_t>(days, 1));
    for (double* mean : {&sojourn_p50, &sojourn_p99, &a2l_p99, &queue_wait_p99,
                         &availability_pct, &pivot_skew}) {
      *mean /= n;
    }
  }

  [[nodiscard]] double per_offered_pct(std::int64_t count) const {
    return share_pct(static_cast<double>(count), static_cast<double>(sum.offered));
  }
  [[nodiscard]] std::string counted() const {
    return "simulated, " + std::to_string(days) + " days, identical in every repetition";
  }
  [[nodiscard]] std::string averaged() const {
    return "simulated, mean of " + std::to_string(days) + " days";
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Output checks shared by both modes: conservation in every episode, and
/// the digest plus every simulated-time result identical across the
/// episodes of a day.
void check_episodes(const std::vector<Episode>& episodes, Report& report) {
  std::map<int, const Episode*> first;
  for (std::size_t e = 0; e < episodes.size(); ++e) {
    const Episode& ep = episodes[e];
    const std::string which =
        "episode " + std::to_string(e) + " (day " + std::to_string(ep.day) + ")";
    if (!ep.conserved) {
      report.fail(which + ": requests not conserved against trace.total()");
    }
    if (ep.broken_slots > 0) {
      report.fail(which + ": " + std::to_string(ep.broken_slots) +
                  " slots broke per-slot conservation");
    }
    const auto [it, inserted] = first.emplace(ep.day, &ep);
    if (!inserted && !(ep.sim == it->second->sim)) {
      report.fail(which +
                  ": decision digest or simulated-time metrics differ from "
                  "the day's first episode");
    }
  }
}

/// Set-up times: each episode's own, then extra set-ups (constructed and
/// torn down, no slots run) until there are kMinSetups.
std::vector<double> setup_samples(const Options& opt, const ThreadBudget& threads,
                                  const std::vector<const Episode*>& eps) {
  std::vector<double> setups;
  for (const Episode* ep : eps) setups.push_back(ep->setup_s);
  while (static_cast<int>(setups.size()) < kMinSetups) {
    const auto t0 = Clock::now();
    const Instance in = make_instance(opt.workload, opt.seed, 0, threads);
    const double setup_ms = ms_between(t0, Clock::now());
    setups.push_back(setup_ms * measure_speed_scale() / 1000.0);
  }
  return setups;
}

void add_end_to_end(const std::vector<const Episode*>& eps,
                    const std::vector<double>& setups, Report& r) {
  const Timeline tl(eps);
  const Totals tot(eps);
  const Simulated& s = tot.sum;
  r.add("setup_s", median(setups), "s",
        "median of " + std::to_string(setups.size()) + " set-ups");
  r.add("slot_ms_p50", p50(tl.step), "ms", tl.samples);
  r.add("slot_ms_p95", p95(tl.step), "ms",
        tl.samples + ", " + std::to_string(count_beyond(tl.step, 0.95)) + " beyond p95");
  r.add("req_per_s", static_cast<double>(s.offered) / (sum(tl.step) / 1000.0), "req/s",
        std::to_string(s.offered) + " req over " + tl.samples);
  r.add("goodput_pct", tot.per_offered_pct(s.slo_met), "%", tot.counted());
  r.add("sojourn_tau_p50", tot.sojourn_p50, "tau",
        std::to_string(s.served) + " served requests, " + tot.averaged());
  r.add("sojourn_tau_p99", tot.sojourn_p99, "tau",
        std::to_string(s.served) + " served requests, " + tot.averaged());
  r.add("loss_per_req", s.loss / static_cast<double>(s.offered), "loss/req",
        tot.counted());
  r.add("peak_rss_mb", peak_rss_mb(), "MB", "whole process");
}

void add_per_layer(const Options& opt, const std::vector<const Episode*>& traced,
                   const std::vector<const Episode*>& untraced, Report& r) {
  const Episode& last = *traced.back();
  const Instance& in = *last.instance;
  const Timeline tl(traced);
  const Timeline plain(untraced);
  const Totals tot(traced);
  const Simulated& s = tot.sum;
  const std::string counted = tot.counted();
  const std::string timed = tl.samples;
  const std::string replayed =
      "replayed once, " + std::to_string(last.slots) + " slots of the last day";

  // serve: everything step does besides the scheduler's decide/observe.
  r.add("serve.self_ms_p50", p50(tl.self), "ms", timed);
  r.add("serve.self_ms_p95", p95(tl.self), "ms", timed);
  r.add("serve.req_per_s", static_cast<double>(s.offered) / (sum(tl.self) / 1000.0),
        "req/s", timed);
  r.add("serve.a2l_tau_p99", tot.a2l_p99, "tau", tot.averaged());
  r.add("serve.queue_wait_tau_p99", tot.queue_wait_p99, "tau", tot.averaged());
  r.add("serve.batch_mean",
        s.batches > 0 ? static_cast<double>(s.served) / static_cast<double>(s.batches) : 0.0,
        "req", counted);
  r.add("serve.seal_deadline_pct",
        share_pct(static_cast<double>(s.deadline_seals), static_cast<double>(s.batches)), "%",
        counted);
  r.add("serve.queue_drops", static_cast<double>(s.queue_drops), "count", counted);
  r.add("serve.failed_pct", tot.per_offered_pct(s.failed), "%",
        "planned drops, queue drops, deadline sheds and orphans; " + counted);

  // workload / sim: one call per slot, replayed after the loop.
  // The replays run after the loop and take a speed estimate of their own.
  const double replay_scale = measure_speed_scale();
  ArrivalsReplay arrivals = replay_arrivals(in, static_cast<int>(last.slots));
  scale(arrivals.arrivals_ms, replay_scale);
  if (arrivals.mismatches > 0) r.fail("slot_arrivals replay disagrees with the trace");
  r.add("workload.arrivals_ms_p50", p50(arrivals.arrivals_ms), "ms", replayed);
  RepairReplay repair = replay_repair(in, last.captures, last.executed);
  scale(repair.repair_ms, replay_scale);
  if (repair.mismatches > 0) {
    r.fail(std::to_string(repair.mismatches) +
           " replayed validate_and_repair decisions differ from the executed ones");
  }
  r.add("sim.repair_ms_p50", p50(repair.repair_ms), "ms", replayed);
  r.add("sim.repairs", static_cast<double>(repair.repaired_slots), "count",
        "slots of the last day whose decision needed repair");

  // The decide span belongs to the module whose scheduler the workload runs:
  // core (paper_birp), cluster (cells_storm) or sched (serve_flood).
  const auto decide_q = [&](Workload owner, double q) {
    return opt.workload == owner ? quantile(tl.decide, q) : 0.0;
  };
  r.add("core.decide_ms_p50", decide_q(Workload::kPaperBirp, 0.5), "ms", timed);
  r.add("core.decide_ms_p95", decide_q(Workload::kPaperBirp, 0.95), "ms", timed);
  r.add("core.observe_ms_p50", p50(tl.observe), "ms", timed);
  DecideReplay decide;
  if (opt.workload == Workload::kPaperBirp) {
    decide = replay_decide(in, last.captures, last.executed);
    for (auto* times : {&decide.build_ms, &decide.heuristic_ms, &decide.milp_ms,
                        &decide.extract_ms}) {
      scale(*times, replay_scale);
    }
    if (decide.mismatches > 0) {
      r.fail(std::to_string(decide.mismatches) +
             " replayed decisions differ from the live decide");
    }
    if (decide.fallbacks != last.sim.solver.fallbacks) {
      r.fail("replayed fallbacks differ from the live scheduler's");
    }
  }
  r.add("core.build_ms_p50", p50(decide.build_ms), "ms", replayed);
  r.add("core.heuristic_ms_p50", p50(decide.heuristic_ms), "ms", replayed);
  r.add("core.extract_ms_p50", p50(decide.extract_ms), "ms", replayed);
  r.add("core.fallback_pct",
        share_pct(static_cast<double>(s.fallback_cell_slots), static_cast<double>(s.cell_slots)),
        "%", "slots (cell-slots when sharded) answered by a fallback; " + counted);

  // solver: the replay times solve_milp alone; counters are per-slot deltas.
  r.add("solver.milp_ms_p50", p50(decide.milp_ms), "ms", replayed);
  r.add("solver.milp_ms_p95", p95(decide.milp_ms), "ms", replayed);
  const double slots = static_cast<double>(tot.slots);
  const auto& c = s.solver;
  r.add("solver.pivots_per_slot", static_cast<double>(c.pivots) / slots, "count", counted);
  r.add("solver.factor_pivots_per_pivot",
        c.pivots > 0 ? static_cast<double>(c.factor_pivots) / static_cast<double>(c.pivots)
                     : 0.0,
        "ratio", counted);
  r.add("solver.nodes_per_slot", static_cast<double>(c.nodes) / slots, "count", counted);
  r.add("solver.warm_lp_pct",
        share_pct(static_cast<double>(c.warm_lps), static_cast<double>(c.warm_lps + c.cold_lps)),
        "%", counted);

  r.add("cluster.decide_ms_p50", decide_q(Workload::kCellsStorm, 0.5), "ms", timed);
  r.add("cluster.decide_ms_p95", decide_q(Workload::kCellsStorm, 0.95), "ms", timed);
  r.add("cluster.cell_pivot_skew", tot.pivot_skew, "ratio",
        "per-day median over slots, " + tot.averaged());
  r.add("cluster.repartitions", static_cast<double>(s.repartitions), "count", counted);
  std::vector<double> reparts, partitions;
  for (const Episode* e : traced) {
    reparts.push_back(e->repartition_ms_mean);
    partitions.push_back(e->partition_ms);
  }
  r.add("cluster.repartition_ms_mean", median(reparts), "ms",
        "median over days of the per-day mean");
  r.add("cluster.moved", static_cast<double>(s.moved), "count", counted);
  r.add("cluster.watchdog_trips", static_cast<double>(s.watchdog_trips), "count", counted);
  r.add("cluster.degraded_cell_slots", static_cast<double>(s.degraded_cell_slots), "count",
        counted);
  r.add("cluster.partition_ms", median(partitions), "ms",
        "median of " + std::to_string(partitions.size()) + " set-ups");
  r.add("sched.decide_ms_p50", decide_q(Workload::kServeFlood, 0.5), "ms", timed);

  r.add("guard.deadline_sheds", static_cast<double>(s.deadline_sheds), "count", counted);
  r.add("guard.breaker_trips", static_cast<double>(s.breaker_trips), "count", counted);
  r.add("guard.degraded_slots", static_cast<double>(s.degraded_slots), "count", counted);
  r.add("fault.orphans", static_cast<double>(s.orphans), "count", counted);
  r.add("fault.retries", static_cast<double>(s.retries), "count", counted);
  r.add("fault.availability_pct", tot.availability_pct, "%", tot.averaged());

  // Tracing overhead, and how the traced slot wall splits into layers. The
  // parts are minimised slot by slot on their own, so their sum may fall a
  // little short of the step's: coverage shows by how much.
  r.add("trace.slot_ms_p50", p50(tl.step), "ms", timed);
  r.add("trace.untraced_slot_ms_p50", p50(plain.step), "ms", plain.samples);
  r.add("trace.overhead_pct", change_pct(p50(tl.step), p50(plain.step)), "%",
        "traced vs untraced slot_ms_p50");
  const double wall = sum(tl.step);
  r.add("layers.decide_pct", share_pct(sum(tl.decide), wall), "%", "share of traced slot wall");
  r.add("layers.observe_pct", share_pct(sum(tl.observe), wall), "%",
        "share of traced slot wall");
  r.add("layers.serve_self_pct", share_pct(sum(tl.self), wall), "%",
        "share of traced slot wall");
  r.add("layers.coverage_pct",
        share_pct(sum(tl.decide) + sum(tl.observe) + sum(tl.self), wall), "%",
        "(serve.self + decide + observe) / slot wall");
}

int run(const Options& opt) {
  const ThreadBudget threads =
      ThreadBudget::for_workload(opt.workload, std::thread::hardware_concurrency());
  const Pace p = pace(opt.workload);
  const int reps = opt.trace ? 2 : p.repetitions;  // traced: untraced + traced
  const int days = static_cast<int>(
      std::max(1L, std::lround(opt.seconds / (reps * p.episode_s))));
  std::cout << "workload " << workload_name(opt.workload) << ", seed " << opt.seed << ", "
            << (opt.trace ? "traced" : "untraced") << ", " << days << " days x "
            << reps << (opt.trace ? " (untraced + traced)" : " repetitions")
            << ", threads: serve " << threads.serve << " + cells " << threads.cells
            << " + loop 1 = " << threads.total() << "\n";

  std::vector<Episode> episodes;
  if (!opt.trace) {
    // Repetitions of a day run a whole round apart, so a slow spell of the
    // machine rarely covers both.
    for (int rep = 0; rep < reps; ++rep) {
      for (int day = 0; day < days; ++day) {
        episodes.push_back(run_episode(opt, threads, day, false));
      }
    }
  } else {
    // Untraced and traced episodes of a day run back to back, so both see
    // the same machine. Only the newest traced episode keeps its captures.
    for (int day = 0; day < days; ++day) {
      for (auto& ep : episodes) {
        ep.instance.reset();
        ep.captures = {};
        ep.executed = {};
      }
      episodes.push_back(run_episode(opt, threads, day, false));
      episodes.push_back(run_episode(opt, threads, day, true));
    }
  }

  Report report;
  check_episodes(episodes, report);
  std::vector<const Episode*> untraced, traced;
  std::int64_t attempted = 0, failed = 0;
  for (const auto& ep : episodes) {
    (ep.traced ? traced : untraced).push_back(&ep);
    attempted += ep.slots;
    failed += ep.broken_slots;
  }
  for (const auto& [day, group] : by_day(untraced)) {
    std::printf("day %d: decision digest %016llx over %lld slots; slot_ms_p50 (speed scale)"
                " by episode:",
                day, static_cast<unsigned long long>(group.front()->sim.digest),
                static_cast<long long>(group.front()->slots));
    for (const Episode* ep : group) {
      std::printf(" %.3f (x%.3f)", p50(ep->step_ms), ep->speed_scale);
    }
    std::printf("\n");
  }
  if (opt.trace) {
    add_per_layer(opt, traced, untraced, report);
  } else {
    add_end_to_end(untraced, setup_samples(opt, threads, untraced), report);
  }
  report.print(attempted, failed);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "loopbench: " << e.what() << "\n";
    return 1;
  }
}
