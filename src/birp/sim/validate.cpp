#include "birp/sim/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "birp/util/check.hpp"

namespace birp::sim {

double decision_network_mb(const device::ClusterSpec& cluster,
                           const SlotDecision& decision,
                           const SlotDecision* previous, int k) {
  double cost = 0.0;
  // Model-switch term: ship compressed weights for newly deployed variants.
  // At t = 0 (previous == nullptr) models are staged before the experiment,
  // matching P1 (Eq. 13), so no switch cost applies.
  if (previous != nullptr) {
    for (int i = 0; i < cluster.num_apps(); ++i) {
      const int variants = cluster.zoo().num_variants(i);
      for (int j = 0; j < variants; ++j) {
        const bool now = decision.deployed(i, j, k);
        const bool before = previous->deployed(i, j, k);
        if (now && !before) cost += cluster.zoo().variant(i, j).compressed_mb;
      }
    }
  }
  // Redistribution term: both endpoints pay for each forwarded request.
  for (const auto& flow : decision.flows) {
    if (flow.from != k && flow.to != k) continue;
    cost += cluster.zoo().app(flow.app).request_mb *
            static_cast<double>(flow.count);
  }
  return cost;
}

double decision_memory_mb(const device::ClusterSpec& cluster,
                          const SlotDecision& decision, int k) {
  double weights = 0.0;
  double peak = 0.0;
  for (int i = 0; i < cluster.num_apps(); ++i) {
    const int variants = cluster.zoo().num_variants(i);
    for (int j = 0; j < variants; ++j) {
      if (!decision.deployed(i, j, k)) continue;
      const auto& variant = cluster.zoo().variant(i, j);
      weights += variant.weights_mb;
      peak = std::max(peak, variant.intermediate_mb *
                                static_cast<double>(decision.kernel(i, j, k)));
    }
  }
  return weights + peak;
}

ValidationReport validate_and_repair(const device::ClusterSpec& cluster,
                                     const util::Grid2<std::int64_t>& demand,
                                     const SlotDecision* previous,
                                     SlotDecision& decision) {
  const int I = cluster.num_apps();
  const int K = cluster.num_devices();
  util::check(decision.apps() == I && decision.devices() == K,
              "validate: decision dimensions do not match cluster");
  util::check(demand.rows() == I && demand.cols() == K,
              "validate: demand dimensions do not match cluster");
  const auto& zoo = cluster.zoo();
  const auto edges = static_cast<std::size_t>(K);
  const auto cell = [K](int i, int k) {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(K) +
           static_cast<std::size_t>(k);
  };

  // The checks run as flat passes over each (app, variant)'s run of edges.
  // Whether a variant is deployed follows the decision's churn from slot to
  // slot, so a branch on it mispredicts; the per-edge tallies below mask
  // with 0/1 instead. Adding a masked +0.0 leaves a sum of non-negative
  // terms unchanged bit for bit, and every edge's sum keeps the (app,
  // variant) order of decision_network_mb and decision_memory_mb. Only an
  // edge that fails a check runs the repair loop.
  ValidationReport report;

  // ---- 1. Sanitize counters. ----
  for (int i = 0; i < I; ++i) {
    const int variants = zoo.num_variants(i);
    for (int j = 0; j < decision.max_variants(); ++j) {
      auto served = decision.served.run(i, j);
      if (j >= variants) {
        // Phantom variant index: the paper pads the tensor with
        // non-existent models; serving on one is impossible.
        for (auto& s : served) {
          report.trimmed_served += std::max<std::int64_t>(s, 0);
          s = 0;
        }
        continue;
      }
      auto kernel = decision.kernel.run(i, j);
      for (std::size_t k = 0; k < edges; ++k) {
        const std::int64_t s = std::max<std::int64_t>(served[k], 0);
        served[k] = s;
        const int asked =
            kernel[k] > 0
                ? kernel[k]
                : static_cast<int>(std::min<std::int64_t>(s, kMaxKernelBatch));
        kernel[k] = std::min(asked, kMaxKernelBatch) * static_cast<int>(s > 0);
      }
    }
    for (auto& d : decision.drops.row(i)) d = std::max<std::int64_t>(d, 0);
  }
  std::erase_if(decision.flows, [](const Flow& f) {
    return f.count <= 0 || f.from == f.to;
  });

  // Per-(app, edge) flow totals, tabulated once per pass instead of one
  // scan of the flows per cell.
  std::vector<std::int64_t> exports(static_cast<std::size_t>(I) * edges);
  std::vector<std::int64_t> imports(exports.size());
  const auto tabulate_flows = [&] {
    std::fill(exports.begin(), exports.end(), 0);
    std::fill(imports.begin(), imports.end(), 0);
    for (const auto& flow : decision.flows) {
      exports[cell(flow.app, flow.from)] += flow.count;
      imports[cell(flow.app, flow.to)] += flow.count;
    }
  };

  // ---- 2. Exports must not exceed local demand. ----
  // A cut only touches the cell's own exports, so the table stays valid for
  // every later cell.
  tabulate_flows();
  for (int i = 0; i < I; ++i) {
    for (int k = 0; k < K; ++k) {
      std::int64_t excess = exports[cell(i, k)] - demand(i, k);
      if (excess <= 0) continue;
      for (auto& flow : decision.flows) {
        if (excess <= 0) break;
        if (flow.app != i || flow.from != k) continue;
        const std::int64_t cut = std::min(excess, flow.count);
        flow.count -= cut;
        excess -= cut;
        report.cancelled_flow += cut;
      }
      std::erase_if(decision.flows, [](const Flow& f) { return f.count <= 0; });
    }
  }

  // ---- 3. Network budgets: cancel flows (largest first) until each edge
  //         fits. Model-switch costs are preserved: a deployment only
  //         disappears via memory eviction below. ----
  // The tally is decision_network_mb for every edge at once. A cut at one
  // edge only lowers a later edge's true cost below its tally (addition is
  // monotone), so a tally within budget is final; one over budget is
  // recomputed exactly by the repair loop. An edge no flow touches has
  // nothing to cancel, so its tally is final: over budget, it is an overrun.
  std::vector<double> network(edges, 0.0);
  std::vector<std::uint8_t> has_flow(edges, 0);
  if (previous != nullptr) {
    for (int i = 0; i < I; ++i) {
      for (int j = 0; j < zoo.num_variants(i); ++j) {
        const double mb = zoo.variant(i, j).compressed_mb;
        const auto now = decision.served.run(i, j);
        const auto before = previous->served.run(i, j);
        for (std::size_t k = 0; k < edges; ++k) {
          const bool switched = (now[k] > 0) & (before[k] <= 0);
          network[k] += mb * static_cast<double>(switched);
        }
      }
    }
  }
  for (const auto& flow : decision.flows) {
    const double mb =
        zoo.app(flow.app).request_mb * static_cast<double>(flow.count);
    network[static_cast<std::size_t>(flow.from)] += mb;
    network[static_cast<std::size_t>(flow.to)] += mb;
    has_flow[static_cast<std::size_t>(flow.from)] = 1;
    has_flow[static_cast<std::size_t>(flow.to)] = 1;
  }
  for (int k = 0; k < K; ++k) {
    const double budget = cluster.network_mb(k);
    if (network[static_cast<std::size_t>(k)] <= budget + 1e-9) continue;
    if (has_flow[static_cast<std::size_t>(k)] == 0) {
      ++report.network_overruns;
      continue;
    }
    while (decision_network_mb(cluster, decision, previous, k) > budget + 1e-9) {
      // Largest flow touching k.
      Flow* victim = nullptr;
      for (auto& flow : decision.flows) {
        if (flow.from != k && flow.to != k) continue;
        if (victim == nullptr || flow.count > victim->count) victim = &flow;
      }
      if (victim == nullptr) {  // switch cost alone exceeds budget
        ++report.network_overruns;
        break;
      }
      const double per_request = zoo.app(victim->app).request_mb;
      const double over =
          decision_network_mb(cluster, decision, previous, k) - budget;
      const auto cut = std::min(
          victim->count,
          std::max<std::int64_t>(
              1, static_cast<std::int64_t>(std::ceil(over / per_request))));
      victim->count -= cut;
      report.cancelled_flow += cut;
      if (victim->count <= 0) {
        std::erase_if(decision.flows,
                      [](const Flow& f) { return f.count <= 0; });
      }
    }
  }

  // ---- 4. Memory budgets: evict deployments (largest footprint first);
  //         their requests become drops at that edge. ----
  // The tally is decision_memory_mb for every edge at once: a sanitized
  // kernel is 0 wherever nothing is served, so the peak needs no mask.
  std::vector<double> weights(edges, 0.0);
  std::vector<double> peak(edges, 0.0);
  for (int i = 0; i < I; ++i) {
    for (int j = 0; j < zoo.num_variants(i); ++j) {
      const auto& variant = zoo.variant(i, j);
      const auto served = decision.served.run(i, j);
      const auto kernel = decision.kernel.run(i, j);
      for (std::size_t k = 0; k < edges; ++k) {
        weights[k] += variant.weights_mb * static_cast<double>(served[k] > 0);
        peak[k] = std::max(
            peak[k], variant.intermediate_mb * static_cast<double>(kernel[k]));
      }
    }
  }
  for (int k = 0; k < K; ++k) {
    const double budget = cluster.memory_mb(k);
    const auto e = static_cast<std::size_t>(k);
    if (weights[e] + peak[e] <= budget + 1e-9) continue;
    while (decision_memory_mb(cluster, decision, k) > budget + 1e-9) {
      int worst_i = -1;
      int worst_j = -1;
      double worst_mb = 0.0;
      for (int i = 0; i < I; ++i) {
        const int variants = zoo.num_variants(i);
        for (int j = 0; j < variants; ++j) {
          if (!decision.deployed(i, j, k)) continue;
          const auto& variant = zoo.variant(i, j);
          const double mb =
              variant.weights_mb +
              variant.intermediate_mb *
                  static_cast<double>(decision.kernel(i, j, k));
          if (mb > worst_mb) {
            worst_mb = mb;
            worst_i = i;
            worst_j = j;
          }
        }
      }
      if (worst_i < 0) break;  // nothing deployed yet still over: impossible
      const std::int64_t lost = decision.served(worst_i, worst_j, k);
      decision.served(worst_i, worst_j, k) = 0;
      decision.kernel(worst_i, worst_j, k) = 0;
      decision.drops(worst_i, k) += lost;
      report.evicted_served += lost;
      ++report.memory_evictions;
    }
  }

  // ---- 5. Request conservation (Eq. 3 + Eq. 5): per (app, edge),
  //         served + drops == demand - exports + imports. ----
  tabulate_flows();
  std::vector<std::int64_t> balance(edges);
  for (int i = 0; i < I; ++i) {
    const int variants = zoo.num_variants(i);
    const auto need = demand.row(i);
    const auto drops = decision.drops.row(i);
    for (std::size_t k = 0; k < edges; ++k) {
      const std::size_t c = cell(i, 0) + k;
      balance[k] = drops[k] - (need[k] - exports[c] + imports[c]);
    }
    for (int j = 0; j < variants; ++j) {
      const auto served = decision.served.run(i, j);
      for (std::size_t k = 0; k < edges; ++k) balance[k] += served[k];
    }
    for (int k = 0; k < K; ++k) {
      std::int64_t excess = balance[static_cast<std::size_t>(k)];
      if (excess > 0) {
        // Serving phantom requests: shrink drops first, then served counts
        // (largest deployment first).
        const std::int64_t from_drops = std::min(excess, decision.drops(i, k));
        decision.drops(i, k) -= from_drops;
        excess -= from_drops;
        while (excess > 0) {
          int largest = -1;
          for (int j = 0; j < variants; ++j) {
            if (decision.served(i, j, k) <= 0) continue;
            if (largest < 0 ||
                decision.served(i, j, k) > decision.served(i, largest, k)) {
              largest = j;
            }
          }
          if (largest < 0) break;
          const std::int64_t cut =
              std::min(excess, decision.served(i, largest, k));
          decision.served(i, largest, k) -= cut;
          if (decision.served(i, largest, k) == 0) {
            decision.kernel(i, largest, k) = 0;
          }
          report.trimmed_served += cut;
          excess -= cut;
        }
      } else if (excess < 0) {
        // Unserved demand: becomes drops.
        decision.drops(i, k) += -excess;
        report.added_drops += -excess;
      }
    }
  }

  return report;
}

}  // namespace birp::sim
