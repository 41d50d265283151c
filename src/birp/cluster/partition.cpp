#include "birp/cluster/partition.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "birp/util/check.hpp"
#include "birp/util/rng.hpp"

namespace birp::cluster {
namespace {

constexpr double kGainEps = 1e-12;
/// Cell-size slack: a cell holds at most (1 + tolerance) * K / cells devices.
constexpr double kBalanceTolerance = 0.15;
/// Maximum Kernighan–Lin refinement sweeps (each sweep visits every node).
constexpr int kRefinePasses = 6;

/// Canonical form: member lists sorted ascending, cells ordered by smallest
/// member, cell_of relabeled to match. Makes partitions comparable with ==
/// and independent of the growth/refinement visit order.
Partition canonicalize(std::vector<int> cell_of, int cells) {
  const int K = static_cast<int>(cell_of.size());
  std::vector<std::vector<int>> members(static_cast<std::size_t>(cells));
  for (int v = 0; v < K; ++v) {
    members[static_cast<std::size_t>(cell_of[static_cast<std::size_t>(v)])]
        .push_back(v);
  }
  // Ascending device order falls out of the v loop; sort is belt-and-braces.
  for (auto& cell : members) std::sort(cell.begin(), cell.end());
  std::sort(members.begin(), members.end(),
            [](const std::vector<int>& a, const std::vector<int>& b) {
              return a.front() < b.front();
            });
  Partition result;
  result.members = std::move(members);
  result.cell_of.assign(static_cast<std::size_t>(K), -1);
  for (int c = 0; c < cells; ++c) {
    for (const int v : result.members[static_cast<std::size_t>(c)]) {
      result.cell_of[static_cast<std::size_t>(v)] = c;
    }
  }
  return result;
}

}  // namespace

util::Grid2<double> build_affinity(const device::ClusterSpec& cluster,
                                   const util::Grid2<double>* links,
                                   PartitionObjective objective) {
  const int K = cluster.num_devices();
  if (links != nullptr) {
    util::check(links->rows() == K && links->cols() == K,
                "build_affinity: link matrix does not match cluster size");
  }
  util::Grid2<double> affinity(K, K, 0.0);
  for (int a = 0; a < K; ++a) {
    for (int b = a + 1; b < K; ++b) {
      const double mbps =
          links != nullptr
              ? (*links)(a, b)
              : std::min(cluster.device(a).bandwidth_mbps,
                         cluster.device(b).bandwidth_mbps);
      if (mbps <= 0.0) continue;  // no link, no affinity
      double weight = 0.0;
      switch (objective) {
        case PartitionObjective::kBalanced:
          weight = 1.0;
          break;
        case PartitionObjective::kBandwidth:
          weight = mbps;
          break;
        case PartitionObjective::kAffinity:
          // Heterogeneous pairs attract: a fast edge in-cell is what a slow
          // edge's overload needs, and the link bandwidth scales how much
          // of that help is actually deliverable per slot.
          weight = mbps * (1.0 + std::abs(cluster.device(a).accel_speed -
                                          cluster.device(b).accel_speed));
          break;
      }
      affinity(a, b) = weight;
      affinity(b, a) = weight;
    }
  }
  return affinity;
}

Partition partition_affinity(const util::Grid2<double>& affinity,
                             const PartitionConfig& config) {
  const int K = affinity.rows();
  util::check(K > 0 && affinity.cols() == K,
              "partition_affinity: affinity must be square and non-empty");
  const int k = config.cells;
  util::check(k >= 1 && k <= K,
              "partition_affinity: cells must be in [1, devices]");

  // Cell capacity: (1 + tol) * K / k rounded up, but never below the ceiling
  // needed to fit K devices into k cells at all.
  const int cap = std::max(
      static_cast<int>(
          std::ceil((1.0 + kBalanceTolerance) *
                    static_cast<double>(K) / static_cast<double>(k))),
      (K + k - 1) / k);

  std::vector<int> cell_of(static_cast<std::size_t>(K), -1);
  std::vector<int> size(static_cast<std::size_t>(k), 0);

  // --- Seeding: first center random (seeded), the rest spread out by
  // minimizing total affinity to already-chosen centers (ties -> lowest id).
  util::Xoshiro256StarStar rng(config.seed);
  std::vector<int> centers;
  centers.reserve(static_cast<std::size_t>(k));
  centers.push_back(static_cast<int>(rng.uniform_int(0, K - 1)));
  while (static_cast<int>(centers.size()) < k) {
    int best = -1;
    double best_pull = std::numeric_limits<double>::infinity();
    for (int v = 0; v < K; ++v) {
      if (std::find(centers.begin(), centers.end(), v) != centers.end()) {
        continue;
      }
      double pull = 0.0;
      for (const int c : centers) pull += affinity(v, c);
      if (pull < best_pull) {
        best_pull = pull;
        best = v;
      }
    }
    centers.push_back(best);
  }
  for (int c = 0; c < k; ++c) {
    cell_of[static_cast<std::size_t>(centers[static_cast<std::size_t>(c)])] = c;
    size[static_cast<std::size_t>(c)] = 1;
  }

  // --- Greedy growth: repeatedly place the unassigned node with the highest
  // affinity toward some non-full cell. gain[v][c] is maintained
  // incrementally. Deterministic tie-breaks: higher gain, then smaller cell,
  // then lower node id, then lower cell id.
  util::Grid2<double> gain(K, k, 0.0);
  for (int v = 0; v < K; ++v) {
    if (cell_of[static_cast<std::size_t>(v)] >= 0) continue;
    for (int c = 0; c < k; ++c) {
      gain(v, c) = affinity(v, centers[static_cast<std::size_t>(c)]);
    }
  }
  int unassigned = K - k;
  while (unassigned > 0) {
    int best_v = -1;
    int best_c = -1;
    double best_gain = -1.0;
    for (int v = 0; v < K; ++v) {
      if (cell_of[static_cast<std::size_t>(v)] >= 0) continue;
      for (int c = 0; c < k; ++c) {
        if (size[static_cast<std::size_t>(c)] >= cap) continue;
        const double g = gain(v, c);
        if (g > best_gain + kGainEps ||
            (g > best_gain - kGainEps && best_c >= 0 &&
             size[static_cast<std::size_t>(c)] <
                 size[static_cast<std::size_t>(best_c)])) {
          best_gain = g;
          best_v = v;
          best_c = c;
        }
      }
    }
    util::check(best_v >= 0, "partition_affinity: no open cell (cap bug)");
    cell_of[static_cast<std::size_t>(best_v)] = best_c;
    ++size[static_cast<std::size_t>(best_c)];
    --unassigned;
    for (int u = 0; u < K; ++u) {
      if (cell_of[static_cast<std::size_t>(u)] >= 0) continue;
      gain(u, best_c) += affinity(u, best_v);
    }
  }

  // --- Kernighan–Lin-style refinement: single-node moves that strictly
  // reduce the cut, visiting nodes in fixed ascending order so the result is
  // independent of anything but (affinity, config). A move must keep the
  // destination under cap and may not empty the source cell.
  std::vector<double> connection(static_cast<std::size_t>(k), 0.0);
  for (int pass = 0; pass < kRefinePasses; ++pass) {
    bool improved = false;
    for (int v = 0; v < K; ++v) {
      const int cur = cell_of[static_cast<std::size_t>(v)];
      if (size[static_cast<std::size_t>(cur)] <= 1) continue;
      std::fill(connection.begin(), connection.end(), 0.0);
      for (int u = 0; u < K; ++u) {
        if (u == v) continue;
        connection[static_cast<std::size_t>(cell_of[static_cast<std::size_t>(
            u)])] += affinity(v, u);
      }
      int best_c = cur;
      double best_gain = 0.0;
      for (int c = 0; c < k; ++c) {
        if (c == cur || size[static_cast<std::size_t>(c)] >= cap) continue;
        const double g = connection[static_cast<std::size_t>(c)] -
                         connection[static_cast<std::size_t>(cur)];
        if (g > best_gain + kGainEps) {
          best_gain = g;
          best_c = c;
        }
      }
      if (best_c != cur) {
        cell_of[static_cast<std::size_t>(v)] = best_c;
        --size[static_cast<std::size_t>(cur)];
        ++size[static_cast<std::size_t>(best_c)];
        improved = true;
      }
    }
    if (!improved) break;
  }

  return canonicalize(std::move(cell_of), k);
}

Partition partition_cluster(const device::ClusterSpec& cluster,
                            const util::Grid2<double>* links,
                            const PartitionConfig& config) {
  return partition_affinity(build_affinity(cluster, links, config.objective),
                            config);
}

double cut_weight(const Partition& partition,
                  const util::Grid2<double>& affinity) {
  util::check(affinity.rows() == partition.devices() &&
                  affinity.cols() == partition.devices(),
              "cut_weight: dimension mismatch");
  double cut = 0.0;
  for (int a = 0; a < partition.devices(); ++a) {
    for (int b = a + 1; b < partition.devices(); ++b) {
      if (partition.cell_of[static_cast<std::size_t>(a)] !=
          partition.cell_of[static_cast<std::size_t>(b)]) {
        cut += affinity(a, b);
      }
    }
  }
  return cut;
}

}  // namespace birp::cluster
