// Synthetic inference workload generator.
//
// Substitute for the production MLaaS trace the paper replays ([34], Alibaba
// GPU-cluster trace). The generator reproduces the trace properties the
// evaluation depends on:
//   * diurnal intensity (sinusoidal day/night cycle over the slot horizon),
//   * per-edge skew (persistent hot and idle edges -> redistribution value),
//   * short bursts (transient overload -> SLO pressure and batching value),
//   * Poisson arrival noise around the modulated mean.
#pragma once

#include <cstdint>

#include "birp/device/cluster.hpp"
#include "birp/workload/trace.hpp"

namespace birp::workload {

struct GeneratorConfig {
  int slots = 300;              ///< horizon T (paper: 3 days of 15-min slots)
  int slots_per_day = 96;       ///< slots forming one diurnal period
  double mean_per_edge = 24.0;  ///< mean requests per (edge, app) per slot
  double diurnal_amplitude = 0.35;  ///< day/night swing as fraction of mean
  double hot_edge_factor = 1.6;     ///< hottest-to-coldest edge intensity ratio
  double burst_probability = 0.05;  ///< per-(slot, edge) burst chance
  double burst_scale = 1.5;         ///< burst intensity multiplier
  std::uint64_t seed = 0x77ace;

  // Optional flash-crowd overlay (chaos-harness stressor): one regional
  // demand spike layered additively on the base trace. A seeded 35% of the
  // edges receives extra Poisson arrivals that ramp up and back down over
  // [flash_start, flash_start + flash_duration) with a triangular envelope
  // peaking at flash_scale x the slot mean. The overlay draws from its own
  // RNG stream, so flash_start = -1 (disabled) leaves the base trace
  // byte-identical.
  int flash_start = -1;               ///< first slot of the crowd; -1 disables
  int flash_duration = 12;            ///< slots the crowd lasts
  double flash_scale = 2.0;           ///< peak extra mean / base mean
};

/// Generates a trace for `cluster`'s dimensions.
[[nodiscard]] Trace generate(const device::ClusterSpec& cluster,
                             const GeneratorConfig& config);

/// Suggests `mean_per_edge` so that, when every edge serves its own region
/// with mid-sized models at their saturated batch size, average accelerator
/// busy time is `target_utilization` of the slot. Uses oracle TIR — this is
/// experiment setup, not scheduler knowledge.
[[nodiscard]] double suggested_mean_per_edge(const device::ClusterSpec& cluster,
                                             double target_utilization);

}  // namespace birp::workload
