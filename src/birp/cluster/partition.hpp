// Deterministic, seeded graph partitioner over the cluster's bandwidth
// graph. There is one cost family: a pair's affinity is its link bandwidth in
// Mbps (min endpoint uplink when no link matrix is given).
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
// (members sorted, cells ordered by smallest member; canonicalize() is public
// for partitions assembled elsewhere, such as the control plane's re-cut).
#pragma once

#include <cstdint>
#include <vector>

#include "birp/device/cluster.hpp"
#include "birp/util/grid.hpp"

namespace birp::cluster {

struct PartitionConfig {
  int cells = 1;
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

/// Builds the affinity matrix for `cluster`: each pair's link bandwidth in
/// Mbps, so high-bandwidth pairs stay in one cell and the cheap
/// redistribution paths survive sharding. `links` is the optional pairwise
/// inter-edge bandwidth graph (workload::Topology); null falls back to
/// min(endpoint uplink) for every pair — a complete graph, which keeps the
/// partitioner meaningful for link-less specs.
[[nodiscard]] util::Grid2<double> build_affinity(
    const device::ClusterSpec& cluster, const util::Grid2<double>* links);

/// Partitions the nodes of `affinity` (a symmetric K x K weight matrix)
/// into config.cells cells; the matrix is the cost, so any pair cost
/// partitions through here.
[[nodiscard]] Partition partition_affinity(const util::Grid2<double>& affinity,
                                           const PartitionConfig& config);

/// Convenience: build_affinity + partition_affinity.
[[nodiscard]] Partition partition_cluster(const device::ClusterSpec& cluster,
                                          const util::Grid2<double>* links,
                                          const PartitionConfig& config);

/// Canonical form of the cell assignment `cell_of` over `cells` non-empty
/// cells: member lists sorted ascending, cells ordered by smallest member,
/// cell_of relabeled to match. Makes partitions comparable with ==.
[[nodiscard]] Partition canonicalize(std::vector<int> cell_of, int cells);

/// Total affinity weight crossing cells (each unordered pair once) — the
/// quantity refinement minimizes; exposed for tests and benches.
[[nodiscard]] double cut_weight(const Partition& partition,
                                const util::Grid2<double>& affinity);

}  // namespace birp::cluster
