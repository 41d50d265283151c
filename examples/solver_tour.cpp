// Solver tour: the LP/MILP substrate is a reusable library in its own
// right. This example builds a small facility-location-style MILP by hand,
// solves it, and inspects the solution — useful as a template for modeling
// other scheduling problems against the same engine.
//
//   ./examples/solver_tour
#include <iostream>

#include "birp/solver/branch_and_bound.hpp"
#include "birp/solver/model.hpp"
#include "birp/solver/simplex.hpp"
#include "birp/util/table.hpp"

int main() {
  using birp::solver::Relation;

  // Three candidate sites serve four demand zones. Opening site s costs
  // open_cost[s]; serving zone z from site s costs serve_cost[s][z] per
  // unit. Each site has a capacity; every zone's demand must be met.
  const double open_cost[3] = {18.0, 25.0, 14.0};
  const double capacity[3] = {30.0, 45.0, 25.0};
  const double demand[4] = {12.0, 17.0, 9.0, 14.0};
  const double serve_cost[3][4] = {{2.0, 4.0, 5.0, 3.0},
                                   {3.0, 1.5, 2.5, 4.0},
                                   {5.0, 3.5, 1.0, 2.0}};

  birp::solver::Model model;
  int open[3];
  int flow[3][4];
  for (int s = 0; s < 3; ++s) {
    open[s] = model.add_binary();
    model.set_objective(open[s], open_cost[s]);
    for (int z = 0; z < 4; ++z) {
      flow[s][z] = model.add_continuous(0.0, demand[z]);
      model.set_objective(flow[s][z], serve_cost[s][z]);
    }
  }
  // Capacity: flows out of a closed site are zero; an open site is capped.
  for (int s = 0; s < 3; ++s) {
    std::vector<birp::solver::Term> terms;
    for (int z = 0; z < 4; ++z) terms.push_back({flow[s][z], 1.0});
    terms.push_back({open[s], -capacity[s]});
    model.add_constraint(terms, Relation::LessEqual, 0.0);
  }
  // Demand satisfaction.
  for (int z = 0; z < 4; ++z) {
    std::vector<birp::solver::Term> terms;
    for (int s = 0; s < 3; ++s) terms.push_back({flow[s][z], 1.0});
    model.add_constraint(terms, Relation::Equal, demand[z]);
  }

  // First look at the LP relaxation (fractional facilities allowed)...
  const auto relaxed = birp::solver::solve_lp(model);
  std::cout << "LP relaxation: " << to_string(relaxed.status)
            << ", objective " << relaxed.objective << " ("
            << relaxed.simplex_iterations << " pivots)\n";

  // ...then the true mixed-integer optimum.
  const auto solution = birp::solver::solve_milp(model);
  std::cout << "MILP:          " << to_string(solution.status)
            << ", objective " << solution.objective << " ("
            << solution.nodes_explored << " nodes)\n\n";

  birp::util::TextTable table({"site", "open", "zone0", "zone1", "zone2",
                               "zone3"});
  for (int s = 0; s < 3; ++s) {
    std::vector<std::string> row{std::to_string(s)};
    row.push_back(solution.values[static_cast<std::size_t>(open[s])] > 0.5
                      ? "yes"
                      : "no");
    for (int z = 0; z < 4; ++z) {
      row.push_back(birp::util::fixed(
          solution.values[static_cast<std::size_t>(flow[s][z])], 1));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout, "optimal service plan");

  std::cout << "\nintegrality gap paid over the relaxation: "
            << birp::util::fixed(solution.objective - relaxed.objective, 2)
            << "\n";
  return 0;
}
