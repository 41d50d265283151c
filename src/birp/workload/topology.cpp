#include "birp/workload/topology.hpp"

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>

#include "birp/util/check.hpp"
#include "birp/util/csv.hpp"
#include "birp/util/rng.hpp"

namespace birp::workload {
namespace {

constexpr device::DeviceType kSkuCycle[3] = {device::DeviceType::JetsonNX,
                                             device::DeviceType::JetsonNano,
                                             device::DeviceType::Atlas200DK};

/// Multiplicative jitter on link bandwidth around min(endpoint uplinks).
constexpr double kLinkJitter = 0.25;

/// Links each newly attached node opens toward existing nodes
/// (Barabási–Albert m); clamped to the nodes already present.
constexpr int kAttachment = 2;

device::DeviceType type_from_int(int value) {
  util::check(value >= 0 && value <= 2, "Topology: bad device type");
  return static_cast<device::DeviceType>(value);
}

}  // namespace

int Topology::num_links() const {
  int links = 0;
  for (int a = 0; a < num_edges(); ++a) {
    for (int b = a + 1; b < num_edges(); ++b) {
      if (link_mbps(a, b) > 0.0) ++links;
    }
  }
  return links;
}

Topology generate_topology(const TopologyConfig& config) {
  util::check(config.edges > 0, "generate_topology: edges must be positive");

  const int N = config.edges;
  Topology topology;
  topology.devices.reserve(static_cast<std::size_t>(N));
  for (int id = 0; id < N; ++id) {
    topology.devices.push_back(
        device::make_device(kSkuCycle[id % 3], id, id / 3));
  }
  topology.link_mbps = util::Grid2<double>(N, N, 0.0);

  util::Xoshiro256StarStar rng(config.seed);
  const auto connect = [&](int a, int b) {
    const double base =
        std::min(topology.devices[static_cast<std::size_t>(a)].bandwidth_mbps,
                 topology.devices[static_cast<std::size_t>(b)].bandwidth_mbps);
    const double mbps =
        base * rng.uniform(1.0 - kLinkJitter, 1.0 + kLinkJitter);
    topology.link_mbps(a, b) = mbps;
    topology.link_mbps(b, a) = mbps;
  };

  // Barabási–Albert growth: a small seed clique, then each new node opens
  // kAttachment links toward existing nodes picked proportionally to degree
  // (repeat-sampled until distinct, bounded by the candidate count).
  const int clique = std::min(N, kAttachment + 1);
  for (int a = 0; a < clique; ++a) {
    for (int b = a + 1; b < clique; ++b) connect(a, b);
  }
  std::vector<std::int64_t> degree(static_cast<std::size_t>(N), 0);
  std::int64_t degree_total = 0;
  for (int a = 0; a < clique; ++a) {
    degree[static_cast<std::size_t>(a)] = clique - 1;
    degree_total += clique - 1;
  }
  for (int v = clique; v < N; ++v) {
    const int links = std::min(kAttachment, v);
    std::vector<int> chosen;
    chosen.reserve(static_cast<std::size_t>(links));
    while (static_cast<int>(chosen.size()) < links) {
      // Roulette wheel over current degrees (all positive once the clique
      // exists); re-spin on duplicates.
      std::int64_t ticket = rng.uniform_int(1, std::max<std::int64_t>(
                                                   1, degree_total));
      int pick = 0;
      for (int u = 0; u < v; ++u) {
        ticket -= degree[static_cast<std::size_t>(u)];
        if (ticket <= 0) {
          pick = u;
          break;
        }
      }
      if (std::find(chosen.begin(), chosen.end(), pick) != chosen.end()) {
        continue;
      }
      chosen.push_back(pick);
    }
    for (const int u : chosen) {
      connect(v, u);
      degree[static_cast<std::size_t>(u)] += 1;
      degree[static_cast<std::size_t>(v)] += 1;
      degree_total += 2;
    }
  }
  return topology;
}

device::ClusterSpec make_cluster(const Topology& topology,
                                 const TopologyConfig& config, double tau_s,
                                 std::uint64_t truth_seed) {
  return device::ClusterSpec(
      topology.devices,
      model::Zoo::synthetic(config.apps, config.variants_per_app, config.seed),
      tau_s, truth_seed);
}

void Topology::write_csv(std::ostream& out) const {
  util::CsvWriter writer(out);
  writer.row({"kind", "a", "b", "value"});
  for (int id = 0; id < num_edges(); ++id) {
    const auto& dev = devices[static_cast<std::size_t>(id)];
    // (type, instance) regenerate the profile exactly via make_device.
    writer.row({"device", std::to_string(static_cast<int>(dev.type)),
                std::to_string(dev.id), dev.name});
  }
  for (int a = 0; a < num_edges(); ++a) {
    for (int b = a + 1; b < num_edges(); ++b) {
      if (link_mbps(a, b) <= 0.0) continue;
      writer.row({"link", std::to_string(a), std::to_string(b),
                  util::format_double(link_mbps(a, b))});
    }
  }
}

Topology Topology::read_csv(const std::string& text) {
  const auto rows = util::parse_csv(text);
  util::check(!rows.empty(), "Topology::read_csv: empty document");

  struct LinkRow {
    int a = 0;
    int b = 0;
    double mbps = 0.0;
  };
  constexpr const char* kWhat = "Topology::read_csv";
  std::vector<std::pair<int, int>> device_rows;  // (type, id)
  std::vector<LinkRow> link_rows;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    util::check(row.size() == 4, "Topology::read_csv: bad row width");
    if (row[0] == "device") {
      device_rows.emplace_back(util::parse_int(row[1], kWhat),
                               util::parse_int(row[2], kWhat));
    } else if (row[0] == "link") {
      link_rows.push_back({util::parse_int(row[1], kWhat),
                           util::parse_int(row[2], kWhat),
                           util::parse_double(row[3], kWhat)});
    } else {
      util::check(false, "Topology::read_csv: unknown row kind");
    }
  }
  util::check(!device_rows.empty(), "Topology::read_csv: no devices");

  Topology topology;
  const int N = static_cast<int>(device_rows.size());
  topology.devices.reserve(device_rows.size());
  for (int id = 0; id < N; ++id) {
    const auto [type, stored_id] = device_rows[static_cast<std::size_t>(id)];
    util::check(stored_id == id, "Topology::read_csv: non-dense device ids");
    topology.devices.push_back(
        device::make_device(type_from_int(type), id, id / 3));
  }
  topology.link_mbps = util::Grid2<double>(N, N, 0.0);
  for (const auto& [a, b, mbps] : link_rows) {
    util::check(a >= 0 && a < N && b >= 0 && b < N && mbps > 0.0,
                "Topology::read_csv: bad link row");
    topology.link_mbps(a, b) = mbps;
    topology.link_mbps(b, a) = mbps;
  }
  return topology;
}

}  // namespace birp::workload
