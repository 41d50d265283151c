#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "birp/fault/fault_plan.hpp"
#include "birp/sched/greedy_local.hpp"
#include "birp/util/rng.hpp"
#include "birp/workload/generator.hpp"
#include "birp/workload/topology.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// A workload is defined by its cluster, its slot-level demand trace and its
// fault storm; their seeds are pinned here. A run's seed (and the day index
// within the run) draws what differs between two days of the same
// deployment: each request's arrival time inside its slot and the
// execution-time noise. Both reach the scheduler through its TIR
// observations, so decisions and the solver work behind them change with the
// seed, while which edges run hot, where the bursts fall and which racks fail
// stay put. Re-drawn per seed, those would spread runs of different seeds
// far wider than any regression bound worth having.
constexpr std::uint64_t kPaperTraceSeed = 0x9a9e7;
constexpr std::uint64_t kStormTopologySeed = 0x5707;
constexpr std::uint64_t kStormTraceSeed = 0x57077;
constexpr std::uint64_t kStormFaultSeed = 0x57023;
constexpr std::uint64_t kFloodTopologySeed = 0xf100d;
constexpr std::uint64_t kFloodTraceSeed = 0xf100e;

/// The engine seed of one day of a run: independent streams per (seed, day).
std::uint64_t engine_seed(std::uint64_t seed, int day) {
  birp::util::SplitMix64 mix(seed ^ 0xb12bULL);
  std::uint64_t value = mix();
  for (int d = 0; d < day; ++d) value = mix();
  return value;
}

Instance paper_birp(std::uint64_t seed, int day, const ThreadBudget& th) {
  Instance in;
  in.cluster = std::make_unique<birp::device::ClusterSpec>(
      birp::device::ClusterSpec::paper_large());

  birp::workload::GeneratorConfig gc;
  gc.slots = 300;
  gc.seed = kPaperTraceSeed;
  gc.mean_per_edge = birp::workload::suggested_mean_per_edge(*in.cluster, 0.55);
  in.trace = std::make_unique<birp::workload::Trace>(
      birp::workload::generate(*in.cluster, gc));

  auto scheduler =
      std::make_unique<birp::core::BirpScheduler>(*in.cluster, in.birp);
  in.birp_scheduler = scheduler.get();
  in.scheduler = std::move(scheduler);

  in.serve.seed = engine_seed(seed, day);
  in.serve.threads = th.serve;
  in.serve.adaptive.enabled = true;
  return in;
}

Instance cells_storm(std::uint64_t seed, int day, const ThreadBudget& th) {
  constexpr int kEdges = 32;
  constexpr int kCells = 8;
  Instance in;

  birp::workload::TopologyConfig tc;
  tc.edges = kEdges;
  tc.apps = 8;
  tc.variants_per_app = 2;
  tc.seed = kStormTopologySeed;
  const auto topology = birp::workload::generate_topology(tc);
  in.cluster = std::make_unique<birp::device::ClusterSpec>(
      birp::workload::make_cluster(topology, tc));

  // Flash crowd over the second quarter; the storm lands inside it.
  birp::workload::GeneratorConfig gc;
  gc.slots = 100;
  gc.seed = kStormTraceSeed;
  gc.mean_per_edge = birp::workload::suggested_mean_per_edge(*in.cluster, 0.5);
  gc.flash_start = gc.slots / 4;
  gc.flash_duration = std::max(4, gc.slots / 4);
  gc.flash_scale = 1.5;
  in.trace = std::make_unique<birp::workload::Trace>(
      birp::workload::generate(*in.cluster, gc));

  birp::fault::CorrelatedFailureOptions co;
  co.slots = 2 * gc.slots / 3;
  co.devices = kEdges;
  co.seed = kStormFaultSeed;
  co.group_size = kEdges / kCells;
  co.group_fraction = 0.75;
  co.storm_rate = 0.08;
  co.min_outage_slots = 6;
  co.max_outage_slots = 12;
  co.recovery_stagger_slots = 1;
  co.rescue_fraction = 0.25;
  co.cooldown_slots = 8;
  in.serve.fault_plan = birp::fault::FaultPlan::generate_correlated(co);
  in.serve.failover.enabled = true;
  in.serve.failover.retry_budget = 2;
  in.serve.seed = engine_seed(seed, day);
  in.serve.threads = th.serve;

  birp::cluster::ControlPlaneConfig cp;
  cp.partition.cells = kCells;
  cp.cell.cell_threads = th.cells;
  cp.cell.watchdog.enabled = true;
  cp.health.down_after_misses = 2;
  cp.health.up_after_beats = 2;
  cp.churn_threshold = 2;
  cp.cooldown_slots = 6;
  const auto start = Clock::now();
  auto plane = std::make_unique<birp::cluster::ControlPlane>(
      *in.cluster, &topology.link_mbps, cp);
  in.partition_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  in.plane = plane.get();
  in.scheduler = std::move(plane);
  return in;
}

Instance serve_flood(std::uint64_t seed, int day, const ThreadBudget& th) {
  Instance in;

  birp::workload::TopologyConfig tc;
  tc.edges = 100;
  tc.apps = 20;
  tc.variants_per_app = 2;
  tc.seed = kFloodTopologySeed;
  in.cluster = std::make_unique<birp::device::ClusterSpec>(
      birp::workload::make_cluster(birp::workload::generate_topology(tc), tc));

  // Twice the cluster's serving envelope: the runtime, not the scheduler,
  // has to absorb the overload. Queues of 32 overflow in the bursts only.
  birp::workload::GeneratorConfig gc;
  gc.slots = 400;
  gc.seed = kFloodTraceSeed;
  gc.mean_per_edge = birp::workload::suggested_mean_per_edge(*in.cluster, 2.0);
  in.trace = std::make_unique<birp::workload::Trace>(
      birp::workload::generate(*in.cluster, gc));

  in.scheduler = std::make_unique<birp::sched::GreedyLocalScheduler>(*in.cluster);

  in.serve.seed = engine_seed(seed, day);
  in.serve.threads = th.serve;
  in.serve.adaptive.enabled = true;
  in.serve.guard.admission.enabled = true;
  in.serve.queue_capacity = 32;
  return in;
}

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "paper_birp") return Workload::kPaperBirp;
  if (name == "cells_storm") return Workload::kCellsStorm;
  if (name == "serve_flood") return Workload::kServeFlood;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (paper_birp, cells_storm, serve_flood)");
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPaperBirp: return "paper_birp";
    case Workload::kCellsStorm: return "cells_storm";
    case Workload::kServeFlood: return "serve_flood";
  }
  return "?";
}

ThreadBudget ThreadBudget::for_workload(Workload w, unsigned hardware_threads) {
  const int cores =
      std::clamp(static_cast<int>(hardware_threads), 2, 4);
  ThreadBudget budget;
  if (w == Workload::kCellsStorm) {
    budget.serve = 1;
    budget.cells = cores - 2;
  } else {
    budget.serve = cores - 1;
  }
  return budget;
}

Pace pace(Workload w) {
  // Repetitions trade days (seed averaging) for more chances per slot to
  // run undisturbed. Single-threaded decide slows in spells of seconds when
  // the machine is shared; slots fanned out over a pool wait for their
  // slowest worker, so one descheduled worker can double a slot. The speed
  // scale (speed.hpp) removes most of the former, so cells_storm, whose
  // slot p95 rests on few slots per day, spends its budget on days.
  switch (w) {
    case Workload::kPaperBirp: return {2.5, 4};
    case Workload::kCellsStorm: return {4.5, 2};
    case Workload::kServeFlood: return {1.5, 5};
  }
  return {1.0, 2};
}

Instance make_instance(Workload w, std::uint64_t seed, int day,
                       const ThreadBudget& threads) {
  Instance in;
  switch (w) {
    case Workload::kPaperBirp: in = paper_birp(seed, day, threads); break;
    case Workload::kCellsStorm: in = cells_storm(seed, day, threads); break;
    case Workload::kServeFlood: in = serve_flood(seed, day, threads); break;
  }
  in.workload = w;
  in.engine = std::make_unique<birp::serve::ServeEngine>(*in.cluster,
                                                         *in.trace, in.serve);
  return in;
}

}  // namespace perfbench
