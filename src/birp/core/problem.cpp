#include "birp/core/problem.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "birp/sim/validate.hpp"
#include "birp/util/check.hpp"

namespace birp::core {

int launch_kernel_cap(const device::ClusterSpec& cluster, int max_batch,
                      int beta, int k, int i, int j) {
  // A single deployment's activation reservation may claim at most this
  // fraction of the edge's memory.
  constexpr double kMaxReservationFraction = 0.5;
  const int mem_cap = std::max(
      1, static_cast<int>(std::floor(
             kMaxReservationFraction * cluster.memory_mb(k) /
             cluster.zoo().variant(i, j).intermediate_mb)));
  return std::min({max_batch, beta, mem_cap});
}

BuiltProblem build_from_terms(const device::ClusterSpec& cluster,
                              const util::Grid2<std::int64_t>& demand,
                              const sim::SlotDecision* previous,
                              util::Grid3<DeploymentTerms> terms,
                              const ProblemOptions& options) {
  const int I = cluster.num_apps();
  const int K = cluster.num_devices();
  const int Jmax = cluster.zoo().max_variants();
  util::check(demand.rows() == I && demand.cols() == K,
              "build_from_terms: demand shape mismatch");
  util::check(terms.dim0() == I && terms.dim1() == Jmax && terms.dim2() == K,
              "build_from_terms: terms shape mismatch");

  BuiltProblem built{solver::Model{},
                     util::Grid3<int>(I, Jmax, K, -1),
                     util::Grid3<int>(I, Jmax, K, -1),
                     util::Grid2<int>(I, K, -1),
                     util::Grid2<int>(I, K, -1),
                     util::Grid2<int>(I, K, -1),
                     std::vector<int>(static_cast<std::size_t>(K), -1),
                     std::move(terms)};
  auto& model = built.model;

  // Peak working-set variable per edge (Eq. 6 with time-sliced execution:
  // activations are alive only while their launch runs, so the memory
  // charge is resident weights + the largest in-flight batch footprint).
  for (int k = 0; k < K; ++k) {
    built.w[static_cast<std::size_t>(k)] =
        model.add_continuous(0.0, solver::kInfinity);
  }

  // ---- Variables. ----
  for (int i = 0; i < I; ++i) {
    const int J = cluster.zoo().num_variants(i);
    for (int j = 0; j < J; ++j) {
      const auto& variant = cluster.zoo().variant(i, j);
      for (int k = 0; k < K; ++k) {
        auto& t = built.terms(i, j, k);
        t.reserve_mb =
            variant.intermediate_mb * static_cast<double>(t.kernel_cap);
        // Eq. 9's switch term [x_t - x_{t-1}]+: newly deployed models ship
        // compressed weights; retained deployments are free. At t = 0 (no
        // previous slot) models are staged before the experiment starts,
        // matching the paper's P1 formulation (Eq. 13) where the switch
        // term is absent.
        t.switch_mb = previous != nullptr && !previous->deployed(i, j, k)
                          ? variant.compressed_mb
                          : 0.0;
        built.x(i, j, k) = model.add_binary();
        built.z(i, j, k) = model.add_integer(0.0, t.serve_cap);
        model.set_objective(built.z(i, j, k), variant.loss);
        if (!t.usable) {
          model.add_constraint({{built.x(i, j, k), 1.0}},
                               solver::Relation::LessEqual, 0.0);
        }

        // z <= serve_cap * x : links serving to deployment (and makes the
        // x*b product exact without a bilinear term). z >= x (Eq. 4's
        // b >= x) is omitted: x = 1 with z = 0 only adds cost, so no
        // optimal solution uses it.
        model.add_constraint(
            {{built.z(i, j, k), 1.0}, {built.x(i, j, k), -t.serve_cap}},
            solver::Relation::LessEqual, 0.0);
      }
    }
  }
  for (int i = 0; i < I; ++i) {
    const double penalty = kDropPenaltyFactor * cluster.zoo().worst_loss(i);
    for (int k = 0; k < K; ++k) {
      // Down edges exchange nothing: their region's demand can only drop.
      // A breaker-open (app, edge) pair additionally refuses imports while
      // still serving and exporting its own region.
      const bool can_flow = options.allow_redistribution && options.is_up(k);
      const double export_cap =
          can_flow ? static_cast<double>(demand(i, k)) : 0.0;
      const double import_cap =
          can_flow && options.import_allowed(i, k) ? solver::kInfinity : 0.0;
      built.e(i, k) = model.add_continuous(0.0, export_cap);
      built.m(i, k) = model.add_continuous(0.0, import_cap);
      built.d(i, k) = model.add_continuous(0.0, solver::kInfinity);
      model.set_objective(built.d(i, k), penalty);
    }
  }

  // ---- Conservation (Eq. 3 + Eq. 5): served + drops = local - out + in. ----
  for (int i = 0; i < I; ++i) {
    const int J = cluster.zoo().num_variants(i);
    for (int k = 0; k < K; ++k) {
      std::vector<solver::Term> terms;
      for (int j = 0; j < J; ++j) terms.push_back({built.z(i, j, k), 1.0});
      terms.push_back({built.d(i, k), 1.0});
      terms.push_back({built.e(i, k), 1.0});
      terms.push_back({built.m(i, k), -1.0});
      model.add_constraint(terms, solver::Relation::Equal,
                           static_cast<double>(demand(i, k)));
    }
  }

  // ---- Per-app flow balance: total exported == total imported. ----
  for (int i = 0; i < I; ++i) {
    std::vector<solver::Term> terms;
    for (int k = 0; k < K; ++k) {
      terms.push_back({built.e(i, k), 1.0});
      terms.push_back({built.m(i, k), -1.0});
    }
    model.add_constraint(terms, solver::Relation::Equal, 0.0);
  }

  // ---- Memory (Eq. 6), compute (Eq. 25), network (Eq. 13/14). ----
  for (int k = 0; k < K; ++k) {
    std::vector<solver::Term> memory;
    std::vector<solver::Term> compute;
    std::vector<solver::Term> network;
    for (int i = 0; i < I; ++i) {
      const int J = cluster.zoo().num_variants(i);
      for (int j = 0; j < J; ++j) {
        const auto& t = built.terms(i, j, k);
        memory.push_back(
            {built.x(i, j, k), cluster.zoo().variant(i, j).weights_mb});
        // w_k >= mu_ij * kernel_cap_ijk * x_ijk : a deployed model reserves
        // its full-batch activation buffer (serving runtimes preallocate at
        // the maximum launch size), so the peak is per-deployment constant
        // rather than per-request.
        model.add_constraint({{built.x(i, j, k), t.reserve_mb},
                              {built.w[static_cast<std::size_t>(k)], -1.0}},
                             solver::Relation::LessEqual, 0.0);
        // Eq. 25: x * h(b) = gamma * [(1 - eta) z + eta x].
        compute.push_back({built.z(i, j, k), t.slope_s});
        compute.push_back({built.x(i, j, k), t.fixed_s});
        // Zero coefficients (retained deployments) are dropped by the model.
        network.push_back({built.x(i, j, k), t.switch_mb});
      }
      const double zeta = cluster.zoo().app(i).request_mb;
      network.push_back({built.e(i, k), zeta});
      network.push_back({built.m(i, k), zeta});
    }
    memory.push_back({built.w[static_cast<std::size_t>(k)], 1.0});
    model.add_constraint(memory, solver::Relation::LessEqual,
                         cluster.memory_mb(k));
    model.add_constraint(compute, solver::Relation::LessEqual, cluster.tau_s());
    model.add_constraint(network, solver::Relation::LessEqual,
                         cluster.network_mb(k));
  }

  return built;
}

BuiltProblem build_slot_problem(const device::ClusterSpec& cluster,
                                const util::Grid2<std::int64_t>& demand,
                                const sim::SlotDecision* previous,
                                const TirLookup& tir,
                                const ProblemOptions& options) {
  const int I = cluster.num_apps();
  const int K = cluster.num_devices();
  util::check(options.max_batch >= 1, "build_slot_problem: bad max_batch");

  util::Grid3<DeploymentTerms> terms(I, cluster.zoo().max_variants(), K);
  for (int i = 0; i < I; ++i) {
    for (int j = 0; j < cluster.zoo().num_variants(i); ++j) {
      for (int k = 0; k < K; ++k) {
        const device::TirParams believed = tir(k, i, j);
        const double eta = believed.eta;
        const double gamma = options.gamma_lookup
                                 ? options.gamma_lookup(k, i, j)
                                 : cluster.gamma_s(k, i, j);
        auto& t = terms(i, j, k);
        // A down edge has zero serving capacity: z's bound collapses and the
        // deployment binary is pinned off. A variant above the
        // degradation-ladder cap is pinned the same way on every edge.
        t.usable = options.is_up(k) && options.variant_allowed(i, j);
        t.kernel_cap = launch_kernel_cap(cluster, options.max_batch,
                                         believed.beta, k, i, j);
        t.serve_cap = t.usable ? static_cast<double>(
                                     t.kernel_cap *
                                     std::max(1, options.launch_multiplier))
                               : 0.0;
        t.slope_s = gamma * (1.0 - eta);
        t.fixed_s = gamma * eta;
      }
    }
  }
  return build_from_terms(cluster, demand, previous, std::move(terms),
                          options);
}

namespace {

/// Per-edge running budgets during heuristic plan construction.
struct EdgeBudget {
  double weights_mb = 0.0;   ///< resident weights of deployed variants
  double peak_mb = 0.0;      ///< largest in-flight activation footprint
  double compute_s = 0.0;    ///< believed compute (Eq. 25 left-hand side)
  double network_mb = 0.0;   ///< switch + flow charges (Eq. 9)
};

}  // namespace

sim::SlotDecision heuristic_decision(const BuiltProblem& problem,
                                     std::span<const double> lp_values,
                                     const device::ClusterSpec& cluster,
                                     const util::Grid2<std::int64_t>& demand,
                                     const sim::SlotDecision* previous) {
  const int I = cluster.num_apps();
  const int K = cluster.num_devices();
  util::check(lp_values.size() ==
                  static_cast<std::size_t>(problem.model.num_variables()),
              "heuristic_decision: LP point does not match the problem");

  // Routing comes from the LP (rounded, balanced, matched into flows);
  // the per-edge serving plan is rebuilt from scratch below, because the
  // LP's fractional x hides most of the model-weight cost and naive
  // rounding deploys far more variants than memory can hold.
  solver::Solution pseudo;
  pseudo.status = solver::SolveStatus::Feasible;
  pseudo.values.assign(lp_values.begin(), lp_values.end());
  sim::SlotDecision decision =
      extract_decision(problem, pseudo, cluster, demand);

  // Wipe the serving plan, keep the flows.
  decision.served.fill(0);
  decision.kernel.fill(0);
  decision.drops.fill(0);

  std::vector<EdgeBudget> budget(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) {
    // Flow charges are fixed for this candidate (both endpoints pay).
    budget[static_cast<std::size_t>(k)].network_mb =
        sim::decision_network_mb(cluster, decision, previous, k);
  }

  // How many extra requests (i, j, k) can absorb under every budget.
  const auto headroom = [&](int k, int i, int j) -> std::int64_t {
    const auto& t = problem.terms(i, j, k);
    if (!t.usable) return 0;  // down edge or above the ladder cap
    const auto& b = budget[static_cast<std::size_t>(k)];
    const auto z = decision.served(i, j, k);
    const bool fresh = z == 0;
    const double weights_after =
        b.weights_mb + (fresh ? cluster.zoo().variant(i, j).weights_mb : 0.0);
    const double peak_after =
        fresh ? std::max(b.peak_mb, t.reserve_mb) : b.peak_mb;
    if (weights_after + peak_after > cluster.memory_mb(k) + 1e-9) return 0;
    // Only deployments that actually ship weights consume network budget;
    // a pre-existing flow-rounding overshoot (repaired by the validator
    // afterwards) must not veto free deployments.
    const double switch_cost = fresh ? t.switch_mb : 0.0;
    if (switch_cost > 0.0 &&
        b.network_mb + switch_cost > cluster.network_mb(k) + 1e-9) {
      return 0;
    }
    const auto by_cap = static_cast<std::int64_t>(t.serve_cap) - z;
    const double compute_left =
        cluster.tau_s() - b.compute_s - (fresh ? t.fixed_s : 0.0);
    const auto by_compute =
        static_cast<std::int64_t>(std::floor(compute_left / t.slope_s));
    return std::max<std::int64_t>(0, std::min(by_cap, by_compute));
  };
  const auto commit = [&](int k, int i, int j, std::int64_t add) {
    const auto& t = problem.terms(i, j, k);
    auto& b = budget[static_cast<std::size_t>(k)];
    const auto z = decision.served(i, j, k);
    if (z == 0) {
      b.weights_mb += cluster.zoo().variant(i, j).weights_mb;
      b.network_mb += t.switch_mb;
      b.compute_s += t.fixed_s;
    }
    b.compute_s += t.slope_s * static_cast<double>(add);
    decision.served(i, j, k) = z + add;
    decision.kernel(i, j, k) =
        static_cast<int>(std::min<std::int64_t>(z + add, t.kernel_cap));
    b.peak_mb = std::max(b.peak_mb, t.reserve_mb);
  };
  const auto release = [&](int k, int i, int j, std::int64_t remove) {
    const auto& t = problem.terms(i, j, k);
    auto& b = budget[static_cast<std::size_t>(k)];
    const auto z = decision.served(i, j, k) - remove;
    decision.served(i, j, k) = z;
    decision.kernel(i, j, k) =
        static_cast<int>(std::min<std::int64_t>(z, t.kernel_cap));
    b.compute_s -= t.slope_s * static_cast<double>(remove);
    if (z == 0) {
      b.weights_mb -= cluster.zoo().variant(i, j).weights_mb;
      b.network_mb -= t.switch_mb;
      b.compute_s -= t.fixed_s;
    }
    // Peak may shrink when a deployment empties: recompute exactly.
    double peak = 0.0;
    for (int ii = 0; ii < I; ++ii) {
      const int J = cluster.zoo().num_variants(ii);
      for (int jj = 0; jj < J; ++jj) {
        if (decision.served(ii, jj, k) > 0) {
          peak = std::max(peak, problem.terms(ii, jj, k).reserve_mb);
        }
      }
    }
    b.peak_mb = peak;
  };

  // ---- Phase 1a: LP-guided fill. The relaxation already balanced loss
  //      against compute, memory, and the batch caps; replay its variant
  //      allocation (largest commitments first, so the integer weight cost
  //      lands on deployments that earn it).
  std::vector<std::int64_t> remaining(
      static_cast<std::size_t>(I) * static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) {
    for (int i = 0; i < I; ++i) {
      remaining[static_cast<std::size_t>(i) * static_cast<std::size_t>(K) +
                static_cast<std::size_t>(k)] =
          demand(i, k) - decision.exports(i, k) + decision.imports(i, k);
    }
  }
  const auto rem = [&](int i, int k) -> std::int64_t& {
    return remaining[static_cast<std::size_t>(i) * static_cast<std::size_t>(K) +
                     static_cast<std::size_t>(k)];
  };
  for (int k = 0; k < K; ++k) {
    struct Planned {
      int i, j;
      std::int64_t count;
    };
    std::vector<Planned> planned;
    for (int i = 0; i < I; ++i) {
      const int J = cluster.zoo().num_variants(i);
      for (int j = 0; j < J; ++j) {
        const auto lp_z = static_cast<std::int64_t>(std::llround(
            lp_values[static_cast<std::size_t>(problem.z(i, j, k))]));
        if (lp_z > 0) planned.push_back({i, j, lp_z});
      }
    }
    std::sort(planned.begin(), planned.end(),
              [](const Planned& a, const Planned& b) { return a.count > b.count; });
    for (const auto& p : planned) {
      const auto add =
          std::min({p.count, rem(p.i, k), headroom(k, p.i, p.j)});
      if (add <= 0) continue;
      commit(k, p.i, p.j, add);
      rem(p.i, k) -= add;
    }
  }

  // ---- Phase 1b: coverage. Whatever the guided fill could not place is
  //      served with the lightest variants first (small weights and
  //      activations), so memory cannot jam the plan. Leftovers drop.
  for (int k = 0; k < K; ++k) {
    for (int i = 0; i < I; ++i) {
      const int J = cluster.zoo().num_variants(i);
      for (int j = 0; j < J && rem(i, k) > 0; ++j) {
        const auto add = std::min(rem(i, k), headroom(k, i, j));
        if (add <= 0) continue;
        commit(k, i, j, add);
        rem(i, k) -= add;
      }
      decision.drops(i, k) = std::max<std::int64_t>(0, rem(i, k));
    }
  }

  // ---- Phase 2: accuracy upgrades. Round-robin over (edge, app), moving a
  //      small quantum of requests from a lossier variant to a more
  //      accurate one per round, while every budget holds. The quantum
  //      keeps any single deployment from hogging the shared activation
  //      peak before other apps get their upgrades. Each move strictly
  //      reduces the objective, so this terminates.
  constexpr std::int64_t kUpgradeQuantum = 2;
  bool improved = true;
  while (improved) {
    improved = false;
    for (int k = 0; k < K; ++k) {
      for (int i = 0; i < I; ++i) {
        const int J = cluster.zoo().num_variants(i);
        bool moved = false;
        for (int hi = J - 1; hi > 0 && !moved; --hi) {
          const double hi_loss = cluster.zoo().variant(i, hi).loss;
          for (int lo = 0; lo < hi && !moved; ++lo) {
            if (decision.served(i, lo, k) <= 0) continue;
            if (cluster.zoo().variant(i, lo).loss <= hi_loss) continue;
            const auto move = std::min({kUpgradeQuantum,
                                        decision.served(i, lo, k),
                                        headroom(k, i, hi)});
            if (move <= 0) continue;
            release(k, i, lo, move);
            commit(k, i, hi, move);
            moved = true;
          }
        }
        improved = improved || moved;
      }
    }
  }

  // ---- Final consistency: the shared validator restores exact
  //      conservation and re-checks every physical budget.
  validate_and_repair(cluster, demand, previous, decision);
  return decision;
}

std::vector<double> heuristic_incumbent(const BuiltProblem& problem,
                                        std::span<const double> lp_values,
                                        const device::ClusterSpec& cluster,
                                        const util::Grid2<std::int64_t>& demand,
                                        const sim::SlotDecision* previous,
                                        const TirLookup& /*tir*/,
                                        const ProblemOptions& /*options*/) {
  const int I = cluster.num_apps();
  const int K = cluster.num_devices();
  if (lp_values.size() !=
      static_cast<std::size_t>(problem.model.num_variables())) {
    return {};
  }
  const sim::SlotDecision decision =
      heuristic_decision(problem, lp_values, cluster, demand, previous);

  // Serialize into model-variable values. Each edge's peak working set is
  // recomputed from the final decision: the validator may have adjusted it.
  std::vector<double> values(
      static_cast<std::size_t>(problem.model.num_variables()), 0.0);
  for (int i = 0; i < I; ++i) {
    const int J = cluster.zoo().num_variants(i);
    for (int j = 0; j < J; ++j) {
      for (int k = 0; k < K; ++k) {
        const auto z = decision.served(i, j, k);
        values[static_cast<std::size_t>(problem.z(i, j, k))] =
            static_cast<double>(z);
        values[static_cast<std::size_t>(problem.x(i, j, k))] =
            z > 0 ? 1.0 : 0.0;
        if (z > 0) {
          double& peak = values[static_cast<std::size_t>(
              problem.w[static_cast<std::size_t>(k)])];
          peak = std::max(peak, problem.terms(i, j, k).reserve_mb);
        }
      }
    }
    for (int k = 0; k < K; ++k) {
      values[static_cast<std::size_t>(problem.e(i, k))] =
          static_cast<double>(decision.exports(i, k));
      values[static_cast<std::size_t>(problem.m(i, k))] =
          static_cast<double>(decision.imports(i, k));
      values[static_cast<std::size_t>(problem.d(i, k))] =
          static_cast<double>(decision.drops(i, k));
    }
  }
  return values;
}

sim::SlotDecision extract_decision(const BuiltProblem& problem,
                                   const solver::Solution& solution,
                                   const device::ClusterSpec& cluster,
                                   const util::Grid2<std::int64_t>& demand) {
  util::check(solution.usable(), "extract_decision: unusable solution");
  const int I = cluster.num_apps();
  const int K = cluster.num_devices();
  const int Jmax = cluster.zoo().max_variants();
  const auto& values = solution.values;

  sim::SlotDecision decision(I, Jmax, K);

  // Served counts: round z (B&B returns integral z up to tolerance).
  for (int i = 0; i < I; ++i) {
    const int J = cluster.zoo().num_variants(i);
    for (int j = 0; j < J; ++j) {
      for (int k = 0; k < K; ++k) {
        const double raw = values[static_cast<std::size_t>(problem.z(i, j, k))];
        const auto served = static_cast<std::int64_t>(std::llround(raw));
        decision.served(i, j, k) = std::max<std::int64_t>(0, served);
        decision.kernel(i, j, k) = static_cast<int>(std::min<std::int64_t>(
            decision.served(i, j, k), problem.terms(i, j, k).kernel_cap));
      }
    }
  }

  for (int i = 0; i < I; ++i) {
    // Round exports/imports and re-balance per app (continuous LP values).
    std::vector<std::int64_t> exports(static_cast<std::size_t>(K));
    std::vector<std::int64_t> imports(static_cast<std::size_t>(K));
    std::int64_t total_e = 0;
    std::int64_t total_m = 0;
    for (int k = 0; k < K; ++k) {
      exports[static_cast<std::size_t>(k)] = std::max<std::int64_t>(
          0, std::llround(values[static_cast<std::size_t>(problem.e(i, k))]));
      exports[static_cast<std::size_t>(k)] =
          std::min(exports[static_cast<std::size_t>(k)], demand(i, k));
      imports[static_cast<std::size_t>(k)] = std::max<std::int64_t>(
          0, std::llround(values[static_cast<std::size_t>(problem.m(i, k))]));
      total_e += exports[static_cast<std::size_t>(k)];
      total_m += imports[static_cast<std::size_t>(k)];
    }
    // Shrink the larger side until balanced (largest entries first).
    while (total_e != total_m) {
      auto& side = total_e > total_m ? exports : imports;
      auto& total = total_e > total_m ? total_e : total_m;
      auto it = std::max_element(side.begin(), side.end());
      if (*it <= 0) break;
      --(*it);
      --total;
    }

    // Greedy transportation matching: largest exporter to largest importer.
    std::vector<std::int64_t> e_left = exports;
    std::vector<std::int64_t> m_left = imports;
    while (true) {
      int from = -1;
      int to = -1;
      for (int k = 0; k < K; ++k) {
        if (e_left[static_cast<std::size_t>(k)] > 0 &&
            (from < 0 || e_left[static_cast<std::size_t>(k)] >
                             e_left[static_cast<std::size_t>(from)])) {
          from = k;
        }
        if (m_left[static_cast<std::size_t>(k)] > 0 &&
            (to < 0 || m_left[static_cast<std::size_t>(k)] >
                           m_left[static_cast<std::size_t>(to)])) {
          to = k;
        }
      }
      if (from < 0 || to < 0) break;
      if (from == to) {
        // Self-flow would be a no-op; cancel one unit on both sides.
        --e_left[static_cast<std::size_t>(from)];
        --m_left[static_cast<std::size_t>(to)];
        continue;
      }
      const auto amount = std::min(e_left[static_cast<std::size_t>(from)],
                                   m_left[static_cast<std::size_t>(to)]);
      decision.flows.push_back({i, from, to, amount});
      e_left[static_cast<std::size_t>(from)] -= amount;
      m_left[static_cast<std::size_t>(to)] -= amount;
    }

    // Exact conservation: residual demand becomes drops; excess serving is
    // trimmed (can only be rounding noise of +-1).
    for (int k = 0; k < K; ++k) {
      const std::int64_t available = demand(i, k) - decision.exports(i, k) +
                                     decision.imports(i, k);
      std::int64_t served_total = 0;
      const int J = cluster.zoo().num_variants(i);
      for (int j = 0; j < J; ++j) served_total += decision.served(i, j, k);
      if (served_total > available) {
        std::int64_t excess = served_total - available;
        for (int j = J - 1; j >= 0 && excess > 0; --j) {
          const auto cut = std::min(excess, decision.served(i, j, k));
          decision.served(i, j, k) -= cut;
          decision.kernel(i, j, k) = static_cast<int>(std::min<std::int64_t>(
              decision.served(i, j, k), problem.terms(i, j, k).kernel_cap));
          excess -= cut;
        }
        served_total = available;
      }
      decision.drops(i, k) = available - served_total;
    }
  }

  return decision;
}

}  // namespace birp::core
