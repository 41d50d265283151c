#include "birp/cluster/balancer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "birp/util/check.hpp"

namespace birp::cluster {
namespace {

// Pressure score weights: shedding dominates (it is the signal that a cell
// is actually losing requests), busy saturation and relative backlog break
// ties before sheds start.
constexpr double kShedWeight = 2.0;
constexpr double kBusyWeight = 0.5;
/// Donor/recipient cell pairs considered per slot.
constexpr int kMaxCellPairs = 4;
/// EMA smoothing for the shed/busy feedback signals.
constexpr double kEmaAlpha = 0.4;
/// Donor pressure must exceed recipient pressure by this to trigger a move.
constexpr double kPressureMargin = 0.10;

}  // namespace

InterCellBalancer::InterCellBalancer(const device::ClusterSpec& cluster,
                                     BalancerConfig config, int cells)
    : cluster_(cluster), config_(config) {
  util::check(cells >= 1, "InterCellBalancer: cells must be >= 1");
  pressure_.resize(static_cast<std::size_t>(cells));
}

std::vector<Move> InterCellBalancer::plan(const sim::SlotState& state,
                                          const Partition& partition) {
  const int cells = partition.cells();
  if (!config_.enabled || cells < 2) return {};
  const int I = state.demand.rows();

  // Per-cell slot summaries over up edges only.
  std::vector<double> cell_demand(static_cast<std::size_t>(cells), 0.0);
  std::vector<int> cell_up(static_cast<std::size_t>(cells), 0);
  double total_demand = 0.0;
  int total_up = 0;
  for (int c = 0; c < cells; ++c) {
    for (const int k : partition.members[static_cast<std::size_t>(c)]) {
      if (!state.is_up(k)) continue;
      ++cell_up[static_cast<std::size_t>(c)];
      ++total_up;
      for (int i = 0; i < I; ++i) {
        cell_demand[static_cast<std::size_t>(c)] +=
            static_cast<double>(state.demand(i, k));
      }
    }
    total_demand += cell_demand[static_cast<std::size_t>(c)];
  }
  if (total_up == 0 || total_demand <= 0.0) return {};
  const double mean_per_dev = total_demand / static_cast<double>(total_up);

  // Score = relative backlog + weighted shed EMA + weighted busy EMA. Cells
  // with no live edge can neither donate nor receive.
  std::vector<double> score(static_cast<std::size_t>(cells), 0.0);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(cells));
  for (int c = 0; c < cells; ++c) {
    if (cell_up[static_cast<std::size_t>(c)] == 0) continue;
    const double per_dev =
        cell_demand[static_cast<std::size_t>(c)] /
        static_cast<double>(cell_up[static_cast<std::size_t>(c)]);
    const auto& p = pressure_[static_cast<std::size_t>(c)];
    score[static_cast<std::size_t>(c)] = per_dev / mean_per_dev - 1.0 +
                                         kShedWeight * p.shed +
                                         kBusyWeight * p.busy;
    order.push_back(c);
  }
  if (static_cast<int>(order.size()) < 2) return {};
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double sa = score[static_cast<std::size_t>(a)];
    const double sb = score[static_cast<std::size_t>(b)];
    if (sa != sb) return sa > sb;
    return a < b;  // deterministic tie-break
  });

  std::vector<Move> moves;
  const int pairs =
      std::min(kMaxCellPairs, static_cast<int>(order.size()) / 2);
  for (int p = 0; p < pairs; ++p) {
    const int donor_cell = order[static_cast<std::size_t>(p)];
    const int recipient_cell =
        order[order.size() - 1 - static_cast<std::size_t>(p)];
    if (score[static_cast<std::size_t>(donor_cell)] -
            score[static_cast<std::size_t>(recipient_cell)] <=
        kPressureMargin) {
      break;  // order is sorted: later pairs have smaller gaps
    }

    // Hottest up edge of the donor, coolest up edge of the recipient
    // (row-sum demand; ties -> lowest device id).
    const auto edge_load = [&](int k) {
      std::int64_t load = 0;
      for (int i = 0; i < I; ++i) load += state.demand(i, k);
      return load;
    };
    int donor = -1;
    std::int64_t donor_load = -1;
    for (const int k :
         partition.members[static_cast<std::size_t>(donor_cell)]) {
      if (!state.is_up(k)) continue;
      const std::int64_t load = edge_load(k);
      if (load > donor_load) {
        donor_load = load;
        donor = k;
      }
    }
    int recipient = -1;
    std::int64_t recipient_load = 0;
    for (const int k :
         partition.members[static_cast<std::size_t>(recipient_cell)]) {
      if (!state.is_up(k)) continue;
      const std::int64_t load = edge_load(k);
      if (recipient < 0 || load < recipient_load) {
        recipient_load = load;
        recipient = k;
      }
    }
    if (donor < 0 || recipient < 0 || donor_load <= 0) continue;

    double budget_mb =
        kNetworkFraction *
        std::min(cluster_.network_mb(donor), cluster_.network_mb(recipient));
    for (int i = 0; i < I; ++i) {
      if (state.import_avoided(i, recipient)) continue;
      std::int64_t count = static_cast<std::int64_t>(
          std::floor(static_cast<double>(state.demand(i, donor)) *
                     kMoveFraction));
      const double request_mb = cluster_.zoo().app(i).request_mb;
      if (request_mb > 0.0) {
        count = std::min(
            count, static_cast<std::int64_t>(budget_mb / request_mb));
      }
      if (count <= 0) continue;
      budget_mb -= static_cast<double>(count) * request_mb;
      moves.push_back(Move{i, donor, recipient, count});
      moved_total_ += count;
    }
  }
  return moves;
}

void InterCellBalancer::record_decision(int cell, std::int64_t demand,
                                        std::int64_t dropped) {
  auto& p = pressure_[static_cast<std::size_t>(cell)];
  const double shed =
      demand > 0
          ? static_cast<double>(dropped) / static_cast<double>(demand)
          : 0.0;
  p.shed += kEmaAlpha * (shed - p.shed);
}

void InterCellBalancer::record_busy(int cell, double busy_fraction) {
  auto& p = pressure_[static_cast<std::size_t>(cell)];
  p.busy += kEmaAlpha * (busy_fraction - p.busy);
}

void InterCellBalancer::recut(const std::vector<int>& old_cell_of,
                              const Partition& next) {
  std::vector<CellPressure> blended(static_cast<std::size_t>(next.cells()));
  for (int c = 0; c < next.cells(); ++c) {
    const auto& members = next.members[static_cast<std::size_t>(c)];
    auto& p = blended[static_cast<std::size_t>(c)];
    for (const int k : members) {
      const auto& old =
          pressure_[static_cast<std::size_t>(
              old_cell_of[static_cast<std::size_t>(k)])];
      p.shed += old.shed;
      p.busy += old.busy;
    }
    p.shed /= static_cast<double>(members.size());
    p.busy /= static_cast<double>(members.size());
  }
  pressure_ = std::move(blended);
  moved_total_ = 0;
}

}  // namespace birp::cluster
