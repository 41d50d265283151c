// Synthetic large-cluster topology generator.
//
// The paper's testbed is six hand-picked devices; the birp/cluster benches
// need hundreds. This generator grows a seeded scale-free inter-edge
// bandwidth graph (Barabási–Albert preferential attachment — a handful of
// well-connected aggregation edges, a long tail of leaves, matching how edge
// sites attach to metro networks) over N devices cycled through the paper's
// three accelerator SKUs, so cluster benches and tests never hand-roll
// specs. Deterministic in the config; CSV round-trip for artifact sharing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "birp/device/cluster.hpp"
#include "birp/device/profile.hpp"
#include "birp/model/zoo.hpp"
#include "birp/util/grid.hpp"

namespace birp::workload {

struct TopologyConfig {
  int edges = 100;          ///< N devices
  int apps = 10;            ///< M applications in the paired synthetic zoo
  int variants_per_app = 2; ///< model ladder depth per application
  std::uint64_t seed = 0x70b0;
};

/// A generated topology: device profiles plus the symmetric inter-edge link
/// bandwidth graph the partitioner cuts (0 = no direct link).
struct Topology {
  std::vector<device::DeviceProfile> devices;
  util::Grid2<double> link_mbps;  ///< [device][device], symmetric, 0 diagonal

  [[nodiscard]] int num_edges() const noexcept {
    return static_cast<int>(devices.size());
  }
  /// Links with nonzero bandwidth (each undirected link counted once).
  [[nodiscard]] int num_links() const;

  /// CSV round-trip. Devices are stored as (type, instance) and regenerated
  /// through device::make_device — per-instance jitter is deterministic in
  /// (type, instance), so the round-trip reproduces profiles exactly.
  void write_csv(std::ostream& out) const;
  [[nodiscard]] static Topology read_csv(const std::string& text);
};

/// Generates the seeded scale-free topology for `config`.
[[nodiscard]] Topology generate_topology(const TopologyConfig& config);

/// Builds the ClusterSpec for a topology: its devices plus a synthetic zoo
/// of config.apps x config.variants_per_app models (model::Zoo::synthetic).
[[nodiscard]] device::ClusterSpec make_cluster(const Topology& topology,
                                               const TopologyConfig& config,
                                               double tau_s = 6.0,
                                               std::uint64_t truth_seed = 0x10b5);

}  // namespace birp::workload
