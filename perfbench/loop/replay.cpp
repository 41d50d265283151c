#include "replay.hpp"

#include <chrono>
#include <cstddef>
#include <stdexcept>

#include "birp/core/problem.hpp"
#include "birp/sim/validate.hpp"
#include "birp/solver/branch_and_bound.hpp"
#include "birp/workload/arrivals.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

const birp::sim::SlotDecision* previous_of(
    const std::vector<birp::sim::SlotDecision>& executed, std::size_t t) {
  return t == 0 ? nullptr : &executed[t - 1];
}

void check_lengths(const std::vector<DecideCapture>& captures,
                   const std::vector<birp::sim::SlotDecision>& executed) {
  if (captures.size() != executed.size()) {
    throw std::logic_error("replay: captures and executed decisions differ in length");
  }
}

}  // namespace

bool decisions_equal(const birp::sim::SlotDecision& a,
                     const birp::sim::SlotDecision& b) {
  if (a.served.raw() != b.served.raw() || a.kernel.raw() != b.kernel.raw() ||
      a.drops.raw() != b.drops.raw() ||
      a.pad_partial_launches != b.pad_partial_launches ||
      a.flows.size() != b.flows.size()) {
    return false;
  }
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    const auto& x = a.flows[f];
    const auto& y = b.flows[f];
    if (x.app != y.app || x.from != y.from || x.to != y.to ||
        x.count != y.count) {
      return false;
    }
  }
  return true;
}

void digest_decision(Digest& digest, const birp::sim::SlotDecision& d) {
  digest.range(d.served.raw());
  digest.range(d.kernel.raw());
  digest.range(d.drops.raw());
  digest.value(d.flows.size());
  for (const auto& f : d.flows) {  // field by field: Flow has padding
    digest.value(f.app);
    digest.value(f.from);
    digest.value(f.to);
    digest.value(f.count);
  }
  digest.value(static_cast<unsigned char>(d.pad_partial_launches ? 1 : 0));
}

DecideReplay replay_decide(const Instance& in,
                           const std::vector<DecideCapture>& captures,
                           const std::vector<birp::sim::SlotDecision>& executed) {
  check_lengths(captures, executed);
  const auto& cluster = *in.cluster;
  const int I = cluster.num_apps();
  const int J = cluster.zoo().max_variants();

  DecideReplay out;
  birp::solver::Basis prev_basis;
  std::vector<double> prev_values;
  for (std::size_t t = 0; t < captures.size(); ++t) {
    const DecideCapture& cap = captures[t];
    const birp::sim::SlotDecision* previous = previous_of(executed, t);
    const birp::core::TirLookup lookup = [&cap, I, J](int k, int i, int j) {
      return cap.believed[static_cast<std::size_t>((k * I + i) * J + j)];
    };
    // The options decide derives from the slot state.
    birp::core::ProblemOptions options = in.birp.problem;
    for (const auto up : cap.edge_up) {
      if (up == 0) {
        options.edge_up = cap.edge_up;
        break;
      }
    }
    if (cap.hints.has_value() && !cap.hints->empty()) {
      options.avoid_import = cap.hints->avoid_import;
      options.variant_cap = cap.hints->variant_cap;
    }

    const auto t0 = Clock::now();
    const birp::core::BuiltProblem problem = birp::core::build_slot_problem(
        cluster, cap.demand, previous, lookup, options);
    const auto t1 = Clock::now();

    double heuristic_ms = 0.0;
    const auto heuristic = [&](std::span<const double> values) {
      const auto h0 = Clock::now();
      auto candidate = birp::core::heuristic_incumbent(
          problem, values, cluster, cap.demand, previous, lookup, options);
      heuristic_ms += ms_between(h0, Clock::now());
      return candidate;
    };
    birp::solver::BranchAndBoundOptions solver = in.birp.solver;
    solver.incumbent_heuristic = heuristic;
    if (solver.warm_start) {
      if (prev_basis.matches(problem.model.num_variables(),
                             problem.model.num_constraints())) {
        solver.root_basis = &prev_basis;
      }
      if (prev_values.size() ==
          static_cast<std::size_t>(problem.model.num_variables())) {
        solver.seed_candidate = heuristic(prev_values);
      }
    }
    const double seed_ms = heuristic_ms;
    const auto t2 = Clock::now();
    const birp::solver::Solution solution =
        birp::solver::solve_milp(problem.model, solver);
    const auto t3 = Clock::now();

    out.build_ms.push_back(ms_between(t0, t1));
    out.heuristic_ms.push_back(heuristic_ms);
    out.milp_ms.push_back(ms_between(t2, t3) - (heuristic_ms - seed_ms));
    ++out.slots;

    if (!solution.basis.empty()) prev_basis = solution.basis;
    if (!solution.usable()) {
      // decide answers with its private greedy net here; nothing to compare.
      ++out.fallbacks;
      continue;
    }
    prev_values = solution.values;
    const auto t4 = Clock::now();
    const birp::sim::SlotDecision decision =
        birp::core::extract_decision(problem, solution, cluster, cap.demand);
    out.extract_ms.push_back(ms_between(t4, Clock::now()));
    if (!decisions_equal(decision, cap.decision)) ++out.mismatches;
  }
  return out;
}

RepairReplay replay_repair(const Instance& in,
                           const std::vector<DecideCapture>& captures,
                           const std::vector<birp::sim::SlotDecision>& executed) {
  check_lengths(captures, executed);
  RepairReplay out;
  for (std::size_t t = 0; t < captures.size(); ++t) {
    birp::sim::SlotDecision decision = captures[t].decision;
    const auto start = Clock::now();
    const auto report = birp::sim::validate_and_repair(
        *in.cluster, captures[t].demand, previous_of(executed, t), decision);
    out.repair_ms.push_back(ms_between(start, Clock::now()));
    if (!report.clean()) ++out.repaired_slots;
    if (!decisions_equal(decision, executed[t])) ++out.mismatches;
  }
  return out;
}

ArrivalsReplay replay_arrivals(const Instance& in, int slots) {
  ArrivalsReplay out;
  const double tau = in.cluster->tau_s();
  for (int t = 0; t < slots; ++t) {
    const auto start = Clock::now();
    const auto arrivals =
        birp::workload::slot_arrivals(*in.trace, t, tau, in.serve.seed);
    out.arrivals_ms.push_back(ms_between(start, Clock::now()));
    if (static_cast<std::int64_t>(arrivals.size()) != in.trace->slot_total(t)) {
      ++out.mismatches;
    }
  }
  return out;
}

}  // namespace perfbench
