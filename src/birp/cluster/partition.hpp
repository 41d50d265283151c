// Deterministic, seeded graph partitioner over the cluster's
// bandwidth/affinity graph.
//
// A thousand-edge cluster cannot be scheduled by one global slot MILP; the
// established decomposition (METIS-style k-way edge-cut, cf. the npu_compiler
// workload-generation pass) splits the device graph into k cells so one
// BirpScheduler runs per cell. The partitioner here is greedy seeded growth
// followed by Kernighan–Lin-style single-node refinement: minimize the
// affinity weight crossing cells (redistribution flows are intra-cell, so
// cut weight is exactly the collaboration value sharding gives up) subject
// to a cell-size balance tolerance: no cell may exceed 1.15 * K / cells
// devices (rounded up, and never below what fitting K devices into `cells`
// cells requires). Refinement stops after 6 sweeps or the first sweep that
// moves nothing. Deterministic in (graph, config): no iteration order
// depends on hashing or thread count, and the result is canonicalized
// (members sorted, cells ordered by smallest member).
#pragma once

#include <cstdint>
#include <vector>

#include "birp/device/cluster.hpp"
#include "birp/util/grid.hpp"

namespace birp::cluster {

/// Built-in edge-cost families for the affinity graph.
enum class PartitionObjective {
  /// Unit edge weights: the cut minimizes crossing pair count, so the
  /// partition is shaped by the balance constraint alone.
  kBalanced,
  /// Pairwise link bandwidth: high-bandwidth pairs stay in one cell, so the
  /// cheap redistribution paths survive sharding.
  kBandwidth,
  /// Bandwidth x device heterogeneity: pairs with dissimilar accelerator
  /// speeds attract (a fast edge in-cell is exactly what a slow edge's
  /// overload needs), weighted by the link that would carry the traffic.
  kAffinity,
};

struct PartitionConfig {
  int cells = 1;
  PartitionObjective objective = PartitionObjective::kBandwidth;
  /// Seeds the initial cell centers; refinement is seed-free.
  std::uint64_t seed = 0xce11;
};

/// A k-way device partition. Cells are canonical: member lists sorted
/// ascending, cells ordered by their smallest member, every device in
/// exactly one cell.
struct Partition {
  std::vector<int> cell_of;               ///< [device] -> cell index
  std::vector<std::vector<int>> members;  ///< [cell] -> sorted device ids

  [[nodiscard]] int cells() const noexcept {
    return static_cast<int>(members.size());
  }
  [[nodiscard]] int devices() const noexcept {
    return static_cast<int>(cell_of.size());
  }
};

/// Builds the affinity matrix for `cluster` under `objective`. `links` is
/// the optional pairwise inter-edge bandwidth graph (workload::Topology);
/// null falls back to min(endpoint uplink) for every pair — a complete
/// graph, which keeps the partitioner meaningful for link-less specs.
[[nodiscard]] util::Grid2<double> build_affinity(
    const device::ClusterSpec& cluster, const util::Grid2<double>* links,
    PartitionObjective objective);

/// Partitions the nodes of `affinity` (a symmetric K x K weight matrix)
/// into config.cells cells; `config.objective` is unread (the matrix is the
/// cost), so any pair cost partitions through here.
[[nodiscard]] Partition partition_affinity(const util::Grid2<double>& affinity,
                                           const PartitionConfig& config);

/// Convenience: build_affinity + partition_affinity.
[[nodiscard]] Partition partition_cluster(const device::ClusterSpec& cluster,
                                          const util::Grid2<double>* links,
                                          const PartitionConfig& config);

/// Total affinity weight crossing cells (each unordered pair once) — the
/// quantity refinement minimizes; exposed for tests and benches.
[[nodiscard]] double cut_weight(const Partition& partition,
                                const util::Grid2<double>& affinity);

}  // namespace birp::cluster
