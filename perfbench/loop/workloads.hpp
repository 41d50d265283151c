// The three closed-loop workloads. Each is everything the program is given
// before slot 0: a cluster, a seeded trace (plus fault storm where the
// workload has one), a scheduler and a serve engine. Constructing one is the
// benchmark's set-up phase; `setup_s` times make_instance end to end.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "birp/cluster/control_plane.hpp"
#include "birp/core/birp_scheduler.hpp"
#include "birp/device/cluster.hpp"
#include "birp/serve/engine.hpp"
#include "birp/sim/scheduler.hpp"
#include "birp/workload/trace.hpp"

namespace perfbench {

enum class Workload { kPaperBirp, kCellsStorm, kServeFlood };

/// Parses a workload name; throws std::invalid_argument on an unknown one.
Workload parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// Thread rule: every pool worker plus the thread driving the loop must fit
/// in the machine's cores (at most 4 are used). Serve and cell pools are
/// sized from this budget; they never run at the same time but both exist.
struct ThreadBudget {
  int serve = 1;  ///< ServeEngine pool workers
  int cells = 0;  ///< CellScheduler pool workers (cells_storm only)

  [[nodiscard]] int total() const noexcept { return serve + cells + 1; }
  static ThreadBudget for_workload(Workload w, unsigned hardware_threads);
};

/// How a run of the workload is paced: the wall seconds one episode (set-up
/// plus every slot) takes on a 4-core x86 machine, and how many times an
/// untraced run repeats each day. Together with the run's time budget they
/// fix the number of days, so the run's shape never depends on the clock.
struct Pace {
  double episode_s = 1.0;
  int repetitions = 2;
};
Pace pace(Workload w);

/// One constructed workload. Members are heap-held so the engine's and the
/// schedulers' references into the cluster and trace stay valid.
struct Instance {
  Workload workload = Workload::kPaperBirp;
  std::unique_ptr<birp::device::ClusterSpec> cluster;
  std::unique_ptr<birp::workload::Trace> trace;
  birp::serve::ServeConfig serve;
  /// The per-slot scheduler configuration of paper_birp (the replay needs
  /// the same problem and solver options decide used).
  birp::core::BirpConfig birp;
  std::unique_ptr<birp::sim::Scheduler> scheduler;
  /// Typed views of `scheduler` (null unless the workload uses that type).
  birp::core::BirpScheduler* birp_scheduler = nullptr;
  birp::cluster::ControlPlane* plane = nullptr;
  std::unique_ptr<birp::serve::ServeEngine> engine;
  /// Wall time of the control plane's construction, which cuts the first
  /// partition and builds one scheduler per cell (cells_storm only).
  double partition_ms = 0.0;
};

/// Builds the inputs of day `day` of a run seeded with `seed` and constructs
/// the system.
Instance make_instance(Workload w, std::uint64_t seed, int day,
                       const ThreadBudget& threads);

}  // namespace perfbench
