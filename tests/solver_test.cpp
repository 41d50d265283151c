// Unit, integration, and property tests for the LP/MILP solver substrate.
#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "basis_lu_oracle.hpp"
#include "birp/core/problem.hpp"
#include "birp/device/cluster.hpp"
#include "birp/solver/basis_lu.hpp"
#include "birp/solver/branch_and_bound.hpp"
#include "birp/solver/lp_engine.hpp"
#include "birp/solver/model.hpp"
#include "birp/solver/simplex.hpp"
#include "birp/solver/standard_form.hpp"
#include "birp/util/alloc_count.hpp"
#include "birp/util/grid.hpp"
#include "birp/util/rng.hpp"

namespace birp::solver {
namespace {

constexpr double kTol = 1e-6;

// ---------------------------------------------------------------- model ----

TEST(Model, VariableBookkeeping) {
  Model model;
  const int x = model.add_continuous(0.0, 5.0);
  const int y = model.add_integer(0.0, 10.0);
  const int z = model.add_binary();
  EXPECT_EQ(model.num_variables(), 3);
  EXPECT_EQ(model.variable(x).type, VarType::Continuous);
  EXPECT_EQ(model.variable(y).type, VarType::Integer);
  EXPECT_EQ(model.variable(z).type, VarType::Binary);
  EXPECT_TRUE(model.has_integers());
}

TEST(Model, CombinesDuplicateTerms) {
  Model model;
  const int x = model.add_continuous(0.0, 1.0);
  model.add_constraint({{x, 1.0}, {x, 2.0}}, Relation::LessEqual, 3.0);
  ASSERT_EQ(model.constraint(0).terms.size(), 1u);
  EXPECT_DOUBLE_EQ(model.constraint(0).terms[0].coeff, 3.0);
}

TEST(Model, RejectsBadInput) {
  Model model;
  EXPECT_THROW(model.add_continuous(2.0, 1.0), std::logic_error);
  EXPECT_THROW(model.add_variable(-kInfinity, 1.0, VarType::Continuous),
               std::logic_error);
  const int x = model.add_continuous(0.0, 1.0);
  EXPECT_THROW(model.add_constraint({{x + 5, 1.0}}, Relation::Equal, 0.0),
               std::logic_error);
  EXPECT_THROW(model.set_objective(99, 1.0), std::logic_error);
}

TEST(Model, ViolationMeasuresBoundsAndRows) {
  Model model;
  const int x = model.add_continuous(0.0, 1.0);
  model.add_constraint({{x, 1.0}}, Relation::LessEqual, 0.5);
  const std::vector<double> ok{0.25};
  const std::vector<double> bad{0.9};
  EXPECT_DOUBLE_EQ(model.max_violation(ok), 0.0);
  EXPECT_NEAR(model.max_violation(bad), 0.4, 1e-12);
}

// -------------------------------------------------------------- simplex ----

TEST(Simplex, SolvesTextbookLp) {
  // max 3a + 5b  s.t. a <= 4, 2b <= 12, 3a + 2b <= 18  (Dantzig's example)
  // => min -3a - 5b, optimum at (2, 6) with value -36.
  Model model;
  const int a = model.add_continuous(0.0, kInfinity);
  const int b = model.add_continuous(0.0, kInfinity);
  model.set_objective(a, -3.0);
  model.set_objective(b, -5.0);
  model.add_constraint({{a, 1.0}}, Relation::LessEqual, 4.0);
  model.add_constraint({{b, 2.0}}, Relation::LessEqual, 12.0);
  model.add_constraint({{a, 3.0}, {b, 2.0}}, Relation::LessEqual, 18.0);
  const auto solution = solve_lp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  EXPECT_NEAR(solution.objective, -36.0, kTol);
  EXPECT_NEAR(solution.values[0], 2.0, kTol);
  EXPECT_NEAR(solution.values[1], 6.0, kTol);
}

TEST(Simplex, HandlesEqualityAndSurplus) {
  // min x + y  s.t. x + y = 10, x >= 3, y >= 2  => 10 with slackness.
  Model model;
  const int x = model.add_continuous(0.0, kInfinity);
  const int y = model.add_continuous(0.0, kInfinity);
  model.set_objective(x, 1.0);
  model.set_objective(y, 1.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 10.0);
  model.add_constraint({{x, 1.0}}, Relation::GreaterEqual, 3.0);
  model.add_constraint({{y, 1.0}}, Relation::GreaterEqual, 2.0);
  const auto solution = solve_lp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  EXPECT_NEAR(solution.objective, 10.0, kTol);
  EXPECT_GE(solution.values[0], 3.0 - kTol);
  EXPECT_GE(solution.values[1], 2.0 - kTol);
}

TEST(Simplex, RespectsUpperBoundsWithoutRows) {
  // min -x - 2y with x in [0,3], y in [0,4], x + y <= 5 => (1,4), -9.
  Model model;
  const int x = model.add_continuous(0.0, 3.0);
  const int y = model.add_continuous(0.0, 4.0);
  model.set_objective(x, -1.0);
  model.set_objective(y, -2.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEqual, 5.0);
  const auto solution = solve_lp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  EXPECT_NEAR(solution.objective, -9.0, kTol);
  EXPECT_NEAR(solution.values[0], 1.0, kTol);
  EXPECT_NEAR(solution.values[1], 4.0, kTol);
}

TEST(Simplex, NonzeroLowerBounds) {
  // min x + y with x >= 2, y >= 1.5, x + y >= 5 => 5 at e.g. (3.5, 1.5).
  Model model;
  const int x = model.add_continuous(2.0, kInfinity);
  const int y = model.add_continuous(1.5, kInfinity);
  model.set_objective(x, 1.0);
  model.set_objective(y, 1.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::GreaterEqual, 5.0);
  const auto solution = solve_lp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  EXPECT_NEAR(solution.objective, 5.0, kTol);
}

TEST(Simplex, DetectsInfeasibility) {
  Model model;
  const int x = model.add_continuous(0.0, 1.0);
  model.add_constraint({{x, 1.0}}, Relation::GreaterEqual, 2.0);
  const auto solution = solve_lp(model);
  EXPECT_EQ(solution.status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Model model;
  const int x = model.add_continuous(0.0, kInfinity);
  model.set_objective(x, -1.0);
  const auto solution = solve_lp(model);
  EXPECT_EQ(solution.status, SolveStatus::Unbounded);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degenerate LP (multiple constraints active at the optimum).
  Model model;
  const int x = model.add_continuous(0.0, kInfinity);
  const int y = model.add_continuous(0.0, kInfinity);
  model.set_objective(x, -1.0);
  model.set_objective(y, -1.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEqual, 1.0);
  model.add_constraint({{x, 1.0}, {y, 2.0}}, Relation::LessEqual, 1.0);
  model.add_constraint({{x, 2.0}, {y, 1.0}}, Relation::LessEqual, 1.0);
  const auto solution = solve_lp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  EXPECT_NEAR(solution.objective, -2.0 / 3.0, kTol);
}

TEST(Simplex, BoundOverridesShrinkFeasibleRegion) {
  Model model;
  const int x = model.add_continuous(0.0, 10.0);
  model.set_objective(x, -1.0);
  const std::vector<double> lower{0.0};
  const std::vector<double> upper{4.0};
  const auto solution = solve_lp(model, lower, upper);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  EXPECT_NEAR(solution.values[0], 4.0, kTol);
}

TEST(Simplex, CrossedOverrideBoundsAreInfeasible) {
  Model model;
  model.add_continuous(0.0, 10.0);
  const std::vector<double> lower{5.0};
  const std::vector<double> upper{4.0};
  const auto solution = solve_lp(model, lower, upper);
  EXPECT_EQ(solution.status, SolveStatus::Infeasible);
}

TEST(Simplex, FixedVariablesPropagate) {
  Model model;
  const int x = model.add_continuous(3.0, 3.0);
  const int y = model.add_continuous(0.0, kInfinity);
  model.set_objective(y, 1.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::GreaterEqual, 7.0);
  const auto solution = solve_lp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  EXPECT_NEAR(solution.values[0], 3.0, kTol);
  EXPECT_NEAR(solution.values[1], 4.0, kTol);
}

// Property sweep: random transportation-style LPs must return feasible
// points whose objective is no worse than a greedy feasible reference.
class SimplexRandomLp : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomLp, ReturnsFeasibleOptimum) {
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()));
  const int sources = 3;
  const int sinks = 4;
  Model model;
  std::vector<std::vector<int>> flow(
      sources, std::vector<int>(sinks, -1));
  std::vector<double> cost(static_cast<std::size_t>(sources * sinks));
  for (int s = 0; s < sources; ++s) {
    for (int d = 0; d < sinks; ++d) {
      const int var = model.add_continuous(0.0, kInfinity);
      flow[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)] = var;
      const double c = rng.uniform(1.0, 10.0);
      cost[static_cast<std::size_t>(var)] = c;
      model.set_objective(var, c);
    }
  }
  std::vector<double> supply(sources);
  std::vector<double> demand(sinks, 0.0);
  double total = 0.0;
  for (int s = 0; s < sources; ++s) {
    supply[static_cast<std::size_t>(s)] = rng.uniform(5.0, 20.0);
    total += supply[static_cast<std::size_t>(s)];
  }
  // Distribute total demand over sinks.
  double remaining = total;
  for (int d = 0; d < sinks - 1; ++d) {
    demand[static_cast<std::size_t>(d)] = remaining * rng.uniform(0.1, 0.4);
    remaining -= demand[static_cast<std::size_t>(d)];
  }
  demand[static_cast<std::size_t>(sinks - 1)] = remaining;

  for (int s = 0; s < sources; ++s) {
    std::vector<Term> terms;
    for (int d = 0; d < sinks; ++d) {
      terms.push_back({flow[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)], 1.0});
    }
    model.add_constraint(terms, Relation::Equal, supply[static_cast<std::size_t>(s)]);
  }
  for (int d = 0; d < sinks; ++d) {
    std::vector<Term> terms;
    for (int s = 0; s < sources; ++s) {
      terms.push_back({flow[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)], 1.0});
    }
    model.add_constraint(terms, Relation::Equal, demand[static_cast<std::size_t>(d)]);
  }

  const auto solution = solve_lp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  EXPECT_LE(model.max_violation(solution.values), 1e-6);

  // Reference: send everything along each source's cheapest arc proportions —
  // a feasible northwest-corner-style plan; optimum must not exceed it.
  double reference = 0.0;
  {
    std::vector<double> s_left = supply;
    std::vector<double> d_left = demand;
    for (int s = 0; s < sources; ++s) {
      for (int d = 0; d < sinks && s_left[static_cast<std::size_t>(s)] > 1e-12; ++d) {
        const double amount =
            std::min(s_left[static_cast<std::size_t>(s)], d_left[static_cast<std::size_t>(d)]);
        if (amount <= 0.0) continue;
        const int var = flow[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)];
        reference += cost[static_cast<std::size_t>(var)] * amount;
        s_left[static_cast<std::size_t>(s)] -= amount;
        d_left[static_cast<std::size_t>(d)] -= amount;
      }
    }
  }
  EXPECT_LE(solution.objective, reference + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomLp, ::testing::Range(1, 25));

// ---------------------------------------------------------------- duals ----

TEST(SimplexDuals, KnownShadowPrices) {
  // max 3a + 5b s.t. a <= 4, 2b <= 12, 3a + 2b <= 18 (minimized as -3a-5b).
  // Optimal basis has rows 2 and 3 binding; textbook duals for the max
  // problem are (0, 3/2, 1), i.e. (0, -3/2, -1) for our minimization.
  Model model;
  const int a = model.add_continuous(0.0, kInfinity);
  const int b = model.add_continuous(0.0, kInfinity);
  model.set_objective(a, -3.0);
  model.set_objective(b, -5.0);
  model.add_constraint({{a, 1.0}}, Relation::LessEqual, 4.0);
  model.add_constraint({{b, 2.0}}, Relation::LessEqual, 12.0);
  model.add_constraint({{a, 3.0}, {b, 2.0}}, Relation::LessEqual, 18.0);
  const auto solution = solve_lp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  ASSERT_EQ(solution.duals.size(), 3u);
  EXPECT_NEAR(solution.duals[0], 0.0, 1e-9);
  EXPECT_NEAR(solution.duals[1], -1.5, 1e-9);
  EXPECT_NEAR(solution.duals[2], -1.0, 1e-9);
}

TEST(SimplexDuals, EqualityRowShadowPrice) {
  // min x + 2y s.t. x + y = 10, x <= 6. Optimum x=6, y=4, obj 14.
  // Raising the rhs by 1 adds one more y: dObj/drhs = 2.
  Model model;
  const int x = model.add_continuous(0.0, 6.0);
  const int y = model.add_continuous(0.0, kInfinity);
  model.set_objective(x, 1.0);
  model.set_objective(y, 2.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 10.0);
  const auto solution = solve_lp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  EXPECT_NEAR(solution.objective, 14.0, 1e-9);
  ASSERT_EQ(solution.duals.size(), 1u);
  EXPECT_NEAR(solution.duals[0], 2.0, 1e-9);
}

class DualPerturbation : public ::testing::TestWithParam<int> {};

TEST_P(DualPerturbation, DualsPredictRhsSensitivity) {
  // Random feasible LPs: for each constraint, the dual must match the
  // numerical sensitivity of the optimum to the rhs (checked against the
  // two one-sided finite differences; degenerate rows may differ between
  // sides, in which case the dual must lie between them).
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()) * 389);
  constexpr int kVars = 5;
  constexpr int kRows = 4;
  Model model;
  for (int v = 0; v < kVars; ++v) {
    model.add_continuous(0.0, rng.uniform(2.0, 6.0));
    model.set_objective(v, rng.uniform(-2.0, 2.0));
  }
  std::vector<double> rhs(kRows);
  for (int r = 0; r < kRows; ++r) {
    std::vector<Term> terms;
    double sum = 0.0;
    for (int v = 0; v < kVars; ++v) {
      const double c = rng.uniform(0.1, 2.0);
      terms.push_back({v, c});
      sum += c;
    }
    rhs[static_cast<std::size_t>(r)] = rng.uniform(0.2, 0.7) * sum * 4.0;
    model.add_constraint(terms, Relation::LessEqual,
                         rhs[static_cast<std::size_t>(r)]);
  }
  const auto base = solve_lp(model);
  ASSERT_EQ(base.status, SolveStatus::Optimal);
  ASSERT_EQ(base.duals.size(), static_cast<std::size_t>(kRows));

  constexpr double kDelta = 1e-4;
  for (int r = 0; r < kRows; ++r) {
    // Rebuild with a perturbed rhs (Model rows are append-only).
    const auto perturbed_obj = [&](double delta) {
      Model copy;
      for (int v = 0; v < kVars; ++v) {
        const auto& info = model.variable(v);
        copy.add_continuous(info.lower, info.upper);
        copy.set_objective(v, info.objective);
      }
      for (int rr = 0; rr < kRows; ++rr) {
        const auto& row = model.constraint(rr);
        copy.add_constraint(row.terms, row.relation,
                            row.rhs + (rr == r ? delta : 0.0));
      }
      return solve_lp(copy);
    };
    const auto up = perturbed_obj(kDelta);
    const auto down = perturbed_obj(-kDelta);
    if (up.status != SolveStatus::Optimal ||
        down.status != SolveStatus::Optimal) {
      continue;  // perturbation crossed into infeasibility: skip this row
    }
    const double slope_up = (up.objective - base.objective) / kDelta;
    const double slope_down = (base.objective - down.objective) / kDelta;
    const double lo = std::min(slope_up, slope_down) - 1e-5;
    const double hi = std::max(slope_up, slope_down) + 1e-5;
    EXPECT_GE(base.duals[static_cast<std::size_t>(r)], lo)
        << "seed " << GetParam() << " row " << r;
    EXPECT_LE(base.duals[static_cast<std::size_t>(r)], hi)
        << "seed " << GetParam() << " row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualPerturbation, ::testing::Range(1, 21));

// ----------------------------------------------------- branch and bound ----

TEST(BranchAndBound, SolvesKnapsack) {
  // max 60a + 100b + 120c s.t. 10a + 20b + 30c <= 50, binary.
  // Optimum: b + c = 220.
  Model model;
  const int a = model.add_binary();
  const int b = model.add_binary();
  const int c = model.add_binary();
  model.set_objective(a, -60.0);
  model.set_objective(b, -100.0);
  model.set_objective(c, -120.0);
  model.add_constraint({{a, 10.0}, {b, 20.0}, {c, 30.0}}, Relation::LessEqual,
                       50.0);
  const auto solution = solve_milp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  EXPECT_NEAR(solution.objective, -220.0, kTol);
  EXPECT_NEAR(solution.values[0], 0.0, kTol);
  EXPECT_NEAR(solution.values[1], 1.0, kTol);
  EXPECT_NEAR(solution.values[2], 1.0, kTol);
}

TEST(BranchAndBound, IntegerVariablesRoundCorrectly) {
  // min -x - y s.t. 2x + y <= 7.3, x + 3y <= 9.7, x,y integer >= 0.
  // LP optimum is fractional; integer optimum is checked by enumeration.
  Model model;
  const int x = model.add_integer(0.0, 10.0);
  const int y = model.add_integer(0.0, 10.0);
  model.set_objective(x, -1.0);
  model.set_objective(y, -1.0);
  model.add_constraint({{x, 2.0}, {y, 1.0}}, Relation::LessEqual, 7.3);
  model.add_constraint({{x, 1.0}, {y, 3.0}}, Relation::LessEqual, 9.7);
  const auto solution = solve_milp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);

  double best = 0.0;
  for (int xv = 0; xv <= 10; ++xv) {
    for (int yv = 0; yv <= 10; ++yv) {
      if (2.0 * xv + yv <= 7.3 && xv + 3.0 * yv <= 9.7) {
        best = std::min(best, static_cast<double>(-xv - yv));
      }
    }
  }
  EXPECT_NEAR(solution.objective, best, kTol);
  EXPECT_LE(model.max_integrality_violation(solution.values), 1e-6);
}

TEST(BranchAndBound, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6 has no integer point.
  Model model;
  model.add_integer(0.4, 0.6);
  const auto solution = solve_milp(model);
  EXPECT_EQ(solution.status, SolveStatus::Infeasible);
}

TEST(BranchAndBound, PureLpPassesThrough) {
  Model model;
  const int x = model.add_continuous(0.0, 2.5);
  model.set_objective(x, -1.0);
  const auto solution = solve_milp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  EXPECT_NEAR(solution.values[0], 2.5, kTol);
}

TEST(BranchAndBound, ProductBehavesInOptimization) {
  // min loss: pick model (binary x1/x2) and batch z to cover demand 5 with
  // capacity favoring batching; z_i = x_i * b_i linearized by its McCormick
  // envelope, exact for binary x and b in [0, U]:
  //   z <= U x,   z <= b,   z >= b - U (1 - x).
  Model model;
  const auto product = [&model](int x, int b, double upper) {
    const int z = model.add_continuous(0.0, upper);
    model.add_constraint({{z, 1.0}, {x, -upper}}, Relation::LessEqual, 0.0);
    model.add_constraint({{z, 1.0}, {b, -1.0}}, Relation::LessEqual, 0.0);
    model.add_constraint({{z, 1.0}, {b, -1.0}, {x, -upper}},
                         Relation::GreaterEqual, -upper);
    return z;
  };
  const int x1 = model.add_binary();
  const int x2 = model.add_binary();
  const int b1 = model.add_integer(0.0, 8.0);
  const int b2 = model.add_integer(0.0, 8.0);
  const int z1 = product(x1, b1, 8.0);
  const int z2 = product(x2, b2, 8.0);
  // Cover exactly 5 requests.
  model.add_constraint({{z1, 1.0}, {z2, 1.0}}, Relation::Equal, 5.0);
  // Capacity: model 1 cheap but lossy; model 2 accurate but heavy.
  model.add_constraint({{z1, 1.0}, {z2, 3.0}}, Relation::LessEqual, 9.0);
  model.set_objective(z1, 0.4);  // loss per request on model 1
  model.set_objective(z2, 0.2);  // loss per request on model 2
  const auto solution = solve_milp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  // Best: put 2 on model 2 (cost .4, capacity 6) and 3 on model 1 (cost 1.2):
  // total 1.6 capacity 9. Check optimal objective by enumeration.
  double best = 1e9;
  for (int a = 0; a <= 8; ++a) {
    for (int b = 0; b <= 8; ++b) {
      if (a + b == 5 && a + 3.0 * b <= 9.0) {
        best = std::min(best, 0.4 * a + 0.2 * b);
      }
    }
  }
  EXPECT_NEAR(solution.objective, best, kTol);
}

TEST(BranchAndBound, NodeBudgetReturnsIncumbent) {
  // A problem the rounding heuristic solves instantly; with max_nodes = 1 we
  // should still get a usable (Feasible) answer.
  Model model;
  std::vector<int> vars;
  util::Xoshiro256StarStar rng(99);
  std::vector<Term> row;
  for (int i = 0; i < 12; ++i) {
    const int v = model.add_binary();
    vars.push_back(v);
    model.set_objective(v, -rng.uniform(1.0, 2.0));
    row.push_back({v, rng.uniform(1.0, 4.0)});
  }
  model.add_constraint(row, Relation::LessEqual, 14.0);
  BranchAndBoundOptions options;
  options.max_nodes = 1;
  const auto solution = solve_milp(model, options);
  EXPECT_TRUE(solution.usable());
  EXPECT_LE(model.max_violation(solution.values), 1e-6);
}

// Property sweep: random small MILPs cross-checked against brute force.
class MilpBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(MilpBruteForce, MatchesExhaustiveSearch) {
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  constexpr int kVars = 6;
  constexpr int kRows = 4;
  constexpr int kUpper = 3;

  Model model;
  std::vector<double> obj(kVars);
  for (int j = 0; j < kVars; ++j) {
    model.add_integer(0.0, kUpper);
    obj[static_cast<std::size_t>(j)] = rng.uniform(-5.0, 5.0);
    model.set_objective(j, obj[static_cast<std::size_t>(j)]);
  }
  std::vector<std::vector<double>> rows(kRows, std::vector<double>(kVars));
  std::vector<double> rhs(kRows);
  for (int i = 0; i < kRows; ++i) {
    double row_sum = 0.0;
    for (int j = 0; j < kVars; ++j) {
      rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          rng.uniform(0.0, 3.0);
      row_sum += rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    }
    rhs[static_cast<std::size_t>(i)] = rng.uniform(0.3, 0.9) * row_sum * kUpper;
    std::vector<Term> terms;
    for (int j = 0; j < kVars; ++j) {
      terms.push_back({j, rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]});
    }
    model.add_constraint(terms, Relation::LessEqual, rhs[static_cast<std::size_t>(i)]);
  }

  const auto solution = solve_milp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal) << "seed " << GetParam();

  // Brute force over (kUpper+1)^kVars = 4096 points.
  double best = 1e18;
  std::vector<int> assign(kVars, 0);
  const int total = static_cast<int>(std::pow(kUpper + 1, kVars));
  for (int code = 0; code < total; ++code) {
    int rem = code;
    for (int j = 0; j < kVars; ++j) {
      assign[static_cast<std::size_t>(j)] = rem % (kUpper + 1);
      rem /= (kUpper + 1);
    }
    bool feasible = true;
    for (int i = 0; i < kRows && feasible; ++i) {
      double lhs = 0.0;
      for (int j = 0; j < kVars; ++j) {
        lhs += rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *
               assign[static_cast<std::size_t>(j)];
      }
      feasible = lhs <= rhs[static_cast<std::size_t>(i)] + 1e-9;
    }
    if (!feasible) continue;
    double value = 0.0;
    for (int j = 0; j < kVars; ++j) {
      value += obj[static_cast<std::size_t>(j)] * assign[static_cast<std::size_t>(j)];
    }
    best = std::min(best, value);
  }
  EXPECT_NEAR(solution.objective, best, 1e-5) << "seed " << GetParam();
  EXPECT_LE(model.max_violation(solution.values), 1e-6);
  EXPECT_LE(model.max_integrality_violation(solution.values), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpBruteForce, ::testing::Range(1, 21));

// ------------------------------------------------- scale and cycling ----

TEST(SimplexScaling, TinyUniformScalingStillPivots) {
  // Dantzig's textbook LP with both constraint sides scaled by 1e-10: the
  // optimum (2, 6) and objective -36 are unchanged. A historical absolute
  // pivot cutoff (1e-9) rejected every ratio-test row at this scale and
  // misreported the problem as Unbounded.
  constexpr double kScale = 1e-10;
  Model model;
  const int a = model.add_continuous(0.0, kInfinity);
  const int b = model.add_continuous(0.0, kInfinity);
  model.set_objective(a, -3.0);
  model.set_objective(b, -5.0);
  model.add_constraint({{a, 1.0 * kScale}}, Relation::LessEqual, 4.0 * kScale);
  model.add_constraint({{b, 2.0 * kScale}}, Relation::LessEqual,
                       12.0 * kScale);
  model.add_constraint({{a, 3.0 * kScale}, {b, 2.0 * kScale}},
                       Relation::LessEqual, 18.0 * kScale);
  const auto solution = solve_lp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  EXPECT_NEAR(solution.objective, -36.0, kTol);
  EXPECT_NEAR(solution.values[0], 2.0, kTol);
  EXPECT_NEAR(solution.values[1], 6.0, kTol);
}

TEST(SimplexScaling, HugeRhsPhaseOneIsNotSpuriouslyInfeasible) {
  // Equality rows at |b| ~ 3e9: the all-logical start violates both by the
  // full rhs, and the dual repair must drive both fixed logicals out of the
  // basis and report a feasible point, not read the rounding residue left at
  // this scale as an infeasible row. (The name is from the two-phase engine,
  // whose Phase I verdict once used an absolute 1e-6 cutoff here.)
  Model model;
  const int x = model.add_continuous(0.0, kInfinity);
  const int y = model.add_continuous(0.0, kInfinity);
  model.set_objective(x, 1.0);
  model.set_objective(y, 2.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 3.0e9);
  model.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::Equal, 1.0e9);
  const auto solution = solve_lp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  const double expected = 2.0e9 + 2.0 * 1.0e9;
  EXPECT_NEAR(solution.objective, expected, 1e-6 * expected);
  EXPECT_NEAR(solution.values[0], 2.0e9, 1e3);
  EXPECT_NEAR(solution.values[1], 1.0e9, 1e3);
}

TEST(SimplexScaling, HugeCoefficientRowsKeepScaledDuals) {
  // One row inflated by 1e8: primal answer unchanged, its shadow price
  // deflates by the same factor. Pivot eligibility must track the column
  // magnitude or the mixed-scale ratio test picks noise pivots.
  Model model;
  const int a = model.add_continuous(0.0, kInfinity);
  const int b = model.add_continuous(0.0, kInfinity);
  model.set_objective(a, -3.0);
  model.set_objective(b, -5.0);
  model.add_constraint({{a, 1.0}}, Relation::LessEqual, 4.0);
  model.add_constraint({{b, 2.0e8}}, Relation::LessEqual, 12.0e8);
  model.add_constraint({{a, 3.0}, {b, 2.0}}, Relation::LessEqual, 18.0);
  const auto solution = solve_lp(model);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  EXPECT_NEAR(solution.objective, -36.0, kTol);
  // Tight rows: scaled one prices at -1.5e-8, the combined row at -1.
  EXPECT_NEAR(solution.duals[1] * 2.0e8, -3.0, kTol);
  EXPECT_NEAR(solution.duals[2], -1.0, kTol);
}

TEST(SimplexCycling, BealeExampleTerminatesUnderBlandFallback) {
  // Beale's classic cycling LP: Dantzig pricing with exact tie-breaking
  // loops forever on its degenerate vertex. After 40 degenerate pivots the
  // Bland fallback must engage and terminate at the known optimum
  // -0.05 = (0.04, 0, 1, 0), within a pivot budget far below the automatic
  // limit.
  Model model;
  const int x1 = model.add_continuous(0.0, kInfinity);
  const int x2 = model.add_continuous(0.0, kInfinity);
  const int x3 = model.add_continuous(0.0, kInfinity);
  const int x4 = model.add_continuous(0.0, kInfinity);
  model.set_objective(x1, -0.75);
  model.set_objective(x2, 150.0);
  model.set_objective(x3, -0.02);
  model.set_objective(x4, 6.0);
  model.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                       Relation::LessEqual, 0.0);
  model.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                       Relation::LessEqual, 0.0);
  model.add_constraint({{x3, 1.0}}, Relation::LessEqual, 1.0);
  SimplexOptions options;
  options.max_iterations = 500;
  const auto solution = solve_lp(model, options);
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  EXPECT_NEAR(solution.objective, -0.05, kTol);
  EXPECT_LT(solution.simplex_iterations, 500);
}

// ------------------------------------------- vertex-enumeration oracle ----

// Small LPs checked against exhaustive enumeration, which shares no code
// with the simplex engine: every n-subset of {rows, lower bounds, finite
// upper bounds} is tried as the active set, each n x n system is solved by
// partial-pivot elimination below, and the best feasible vertex is the
// reference optimum. Every lower bound is finite, so the polyhedron is
// pointed: it has a vertex whenever it is nonempty, and an optimal vertex
// unless the objective is unbounded below. Some columns have no upper bound;
// unboundedness is decided by enumerating the extreme rays of the recession
// cone the same way (see enumerate_vertices).

constexpr int kEnumVars = 4;
constexpr int kEnumRows = 3;

struct SmallLp {
  std::vector<double> cost;                 ///< per variable
  std::vector<double> lower;                ///< per variable (finite)
  std::vector<double> upper;                ///< per variable (maybe inf)
  std::vector<std::vector<double>> coeff;   ///< rows x vars, dense
  std::vector<Relation> relation;           ///< per row
  std::vector<double> rhs;                  ///< per row

  /// The model with variable bounds `lo`/`hi`.
  [[nodiscard]] Model build(const std::vector<double>& lo,
                            const std::vector<double>& hi) const {
    Model model;
    for (int j = 0; j < kEnumVars; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      const int var =
          model.add_continuous(lo[jj], hi[jj]);
      model.set_objective(var, cost[jj]);
    }
    for (int i = 0; i < kEnumRows; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      std::vector<Term> terms;
      for (int j = 0; j < kEnumVars; ++j) {
        const double a = coeff[ii][static_cast<std::size_t>(j)];
        if (a != 0.0) terms.push_back({j, a});
      }
      model.add_constraint(terms, relation[ii], rhs[ii]);
    }
    return model;
  }
};

/// Draws coefficients on a 0.5 grid (zeros and negatives included) and rows
/// of all three relations, with right-hand sides placed around a random
/// point of the box so that both feasible and infeasible draws occur. A
/// separate stream then lifts about 30% of the upper bounds to infinity and
/// makes some of those columns recession rays, so that unbounded draws
/// occur too.
SmallLp random_small_lp(std::uint64_t seed) {
  util::Xoshiro256StarStar rng(seed * 7919 + 3);
  const auto grid = [&](double lo, double hi) {
    return std::round(rng.uniform(lo, hi) * 2.0) / 2.0;
  };
  SmallLp lp;
  std::vector<double> anchor;
  for (int j = 0; j < kEnumVars; ++j) {
    const double lo = rng.uniform() < 0.5 ? 0.0 : grid(-3.0, 2.0);
    lp.lower.push_back(lo);
    lp.upper.push_back(lo + grid(1.0, 5.0));
    lp.cost.push_back(rng.uniform() < 0.2 ? 0.0 : rng.uniform(-4.0, 4.0));
    anchor.push_back(rng.uniform(lp.lower.back(), lp.upper.back()));
  }
  for (int i = 0; i < kEnumRows; ++i) {
    std::vector<double> row;
    double activity = 0.0;
    for (int j = 0; j < kEnumVars; ++j) {
      row.push_back(rng.uniform() < 0.3 ? 0.0 : grid(-3.0, 4.0));
      activity += row.back() * anchor[static_cast<std::size_t>(j)];
    }
    if (std::all_of(row.begin(), row.end(), [](double a) { return a == 0.0; })) {
      row[static_cast<std::size_t>(i)] = 1.0;
      activity += anchor[static_cast<std::size_t>(i)];
    }
    const auto relation = static_cast<Relation>(rng.uniform_int(0, 2));
    const double slack = rng.uniform(-3.0, 4.0);
    lp.coeff.push_back(std::move(row));
    lp.relation.push_back(relation);
    lp.rhs.push_back(relation == Relation::LessEqual      ? activity + slack
                     : relation == Relation::GreaterEqual ? activity - slack
                                                          : activity + 0.5 * slack);
  }
  util::Xoshiro256StarStar open_rng(seed * 104729 + 11);
  for (int j = 0; j < kEnumVars; ++j) {
    const auto jj = static_cast<std::size_t>(j);
    if (open_rng.uniform() >= 0.3) continue;
    lp.upper[jj] = kInfinity;
    bool in_equality = false;
    for (int i = 0; i < kEnumRows; ++i) {
      in_equality = in_equality ||
                    (lp.relation[static_cast<std::size_t>(i)] == Relation::Equal &&
                     lp.coeff[static_cast<std::size_t>(i)][jj] != 0.0);
    }
    if (in_equality || open_rng.uniform() >= 0.6) continue;
    // A ray column: e_j is a recession direction (each inequality's
    // coefficient signed to fit its relation). The rhs moves with the
    // coefficient, so the anchor keeps its slack.
    for (int i = 0; i < kEnumRows; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      double& a = lp.coeff[ii][jj];
      const double fitted =
          lp.relation[ii] == Relation::GreaterEqual ? std::abs(a) : -std::abs(a);
      lp.rhs[ii] += (fitted - a) * anchor[jj];
      a = fitted;
    }
  }
  return lp;
}

/// Solves the square system m x = b in place by Gaussian elimination with
/// partial pivoting. False when the system is (numerically) singular.
bool solve_dense(std::vector<std::vector<double>> m, std::vector<double> b,
                 std::vector<double>& x) {
  const std::size_t n = b.size();
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot = k;
    for (std::size_t r = k + 1; r < n; ++r) {
      if (std::abs(m[r][k]) > std::abs(m[pivot][k])) pivot = r;
    }
    if (std::abs(m[pivot][k]) < 1e-9) return false;
    std::swap(m[k], m[pivot]);
    std::swap(b[k], b[pivot]);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double f = m[r][k] / m[k][k];
      if (f == 0.0) continue;
      for (std::size_t c = k; c < n; ++c) m[r][c] -= f * m[k][c];
      b[r] -= f * b[k];
    }
  }
  x.assign(n, 0.0);
  for (std::size_t k = n; k-- > 0;) {
    double sum = b[k];
    for (std::size_t c = k + 1; c < n; ++c) sum -= m[k][c] * x[c];
    x[k] = sum / m[k][k];
  }
  return true;
}

struct EnumeratedOptimum {
  bool feasible = false;
  bool unbounded = false;  ///< feasible, with an improving recession ray
  double objective = kInfinity;
};

/// Minimum of c·x over the points x with `normal[c]·x = level[c]` for some
/// kEnumVars of the candidates (always including the first `required`) and
/// `admissible(x)`; infinity when no such point exists.
double best_active_set_point(
    const std::vector<std::vector<double>>& normal,
    const std::vector<double>& level, int required,
    const std::vector<double>& cost,
    const std::function<bool(const std::vector<double>&)>& admissible) {
  const int candidates = static_cast<int>(normal.size());
  const int required_mask = (1 << required) - 1;
  double best = kInfinity;
  std::vector<double> x;
  for (int mask = 0; mask < (1 << candidates); ++mask) {
    if (std::popcount(static_cast<unsigned>(mask)) != kEnumVars ||
        (mask & required_mask) != required_mask) {
      continue;
    }
    std::vector<std::vector<double>> m;
    std::vector<double> b;
    for (int c = 0; c < candidates; ++c) {
      if ((mask >> c & 1) == 0) continue;
      m.push_back(normal[static_cast<std::size_t>(c)]);
      b.push_back(level[static_cast<std::size_t>(c)]);
    }
    if (!solve_dense(std::move(m), std::move(b), x) || !admissible(x)) {
      continue;
    }
    double objective = 0.0;
    for (int j = 0; j < kEnumVars; ++j) {
      objective += cost[static_cast<std::size_t>(j)] * x[static_cast<std::size_t>(j)];
    }
    best = std::min(best, objective);
  }
  return best;
}

/// Row i's activity a_i·x.
double row_activity(const SmallLp& lp, int i, const std::vector<double>& x) {
  double activity = 0.0;
  for (int j = 0; j < kEnumVars; ++j) {
    activity += lp.coeff[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *
                x[static_cast<std::size_t>(j)];
  }
  return activity;
}

/// Best feasible vertex of `lp` under the bounds `lower`/`upper`, and
/// whether the objective is unbounded below.
EnumeratedOptimum enumerate_vertices(const SmallLp& lp,
                                     const std::vector<double>& lower,
                                     const std::vector<double>& upper) {
  const auto unit = [](int j) {
    std::vector<double> e(kEnumVars, 0.0);
    e[static_cast<std::size_t>(j)] = 1.0;
    return e;
  };

  // Vertices. Candidate active constraints: rows, lower bounds, finite
  // upper bounds.
  std::vector<std::vector<double>> normal(lp.coeff.begin(), lp.coeff.end());
  std::vector<double> level(lp.rhs.begin(), lp.rhs.end());
  for (int j = 0; j < kEnumVars; ++j) {
    normal.push_back(unit(j));
    level.push_back(lower[static_cast<std::size_t>(j)]);
    if (std::isfinite(upper[static_cast<std::size_t>(j)])) {
      normal.push_back(unit(j));
      level.push_back(upper[static_cast<std::size_t>(j)]);
    }
  }
  EnumeratedOptimum best;
  best.objective =
      best_active_set_point(normal, level, 0, lp.cost, [&](const auto& x) {
        for (int j = 0; j < kEnumVars; ++j) {
          const auto jj = static_cast<std::size_t>(j);
          if (x[jj] < lower[jj] - 1e-9 || x[jj] > upper[jj] + 1e-9) return false;
        }
        for (int i = 0; i < kEnumRows; ++i) {
          const auto ii = static_cast<std::size_t>(i);
          const double activity = row_activity(lp, i, x);
          const double tol = 1e-9 * (1.0 + std::abs(lp.rhs[ii]));
          switch (lp.relation[ii]) {
            case Relation::LessEqual:
              if (activity > lp.rhs[ii] + tol) return false;
              break;
            case Relation::GreaterEqual:
              if (activity < lp.rhs[ii] - tol) return false;
              break;
            case Relation::Equal:
              if (std::abs(activity - lp.rhs[ii]) > tol) return false;
              break;
          }
        }
        return true;
      });
  best.feasible = std::isfinite(best.objective);
  if (!best.feasible) return best;

  // Recession rays: r >= 0 (finite lower bounds), r_j = 0 where u_j is
  // finite, and each row's homogeneous sign. The cone is pointed, so the
  // section sum_j r_j = 1 is a polytope whose vertices are its extreme rays;
  // the LP is unbounded iff one of them has c·r < 0. Candidates: the
  // section (in every active set), rows, r_j = 0.
  std::vector<std::vector<double>> ray_normal{std::vector<double>(kEnumVars, 1.0)};
  std::vector<double> ray_level{1.0};
  for (int i = 0; i < kEnumRows; ++i) {
    ray_normal.push_back(lp.coeff[static_cast<std::size_t>(i)]);
    ray_level.push_back(0.0);
  }
  for (int j = 0; j < kEnumVars; ++j) {
    ray_normal.push_back(unit(j));
    ray_level.push_back(0.0);
  }
  const double best_ray = best_active_set_point(
      ray_normal, ray_level, 1, lp.cost, [&](const auto& r) {
        double sum = 0.0;
        for (int j = 0; j < kEnumVars; ++j) {
          const auto jj = static_cast<std::size_t>(j);
          if (r[jj] < -1e-9) return false;
          if (std::isfinite(upper[jj]) && r[jj] > 1e-9) return false;
          sum += r[jj];
        }
        if (std::abs(sum - 1.0) > 1e-9) return false;
        for (int i = 0; i < kEnumRows; ++i) {
          const double activity = row_activity(lp, i, r);
          switch (lp.relation[static_cast<std::size_t>(i)]) {
            case Relation::LessEqual:
              if (activity > 1e-9) return false;
              break;
            case Relation::GreaterEqual:
              if (activity < -1e-9) return false;
              break;
            case Relation::Equal:
              if (std::abs(activity) > 1e-9) return false;
              break;
          }
        }
        return true;
      });
  best.unbounded = best_ray < -1e-9;
  return best;
}

/// Checks one solve of `lp` under `lower`/`upper` against enumeration:
/// status, objective, primal feasibility, dual feasibility in the
/// Solution::duals convention (duals[i] = d objective / d rhs_i, so <= 0 on
/// a <= row and >= 0 on a >= row; reduced cost c_j - sum_i a_ij duals[i] is
/// >= 0 off a column's upper bound and <= 0 off its lower bound), and
/// strong duality.
void expect_matches_enumeration(const SmallLp& lp,
                                const std::vector<double>& lower,
                                const std::vector<double>& upper,
                                const Solution& solution,
                                const std::string& label) {
  SCOPED_TRACE(label);
  const EnumeratedOptimum reference = enumerate_vertices(lp, lower, upper);
  ASSERT_EQ(solution.status == SolveStatus::Infeasible, !reference.feasible)
      << "status " << to_string(solution.status);
  if (!reference.feasible) return;
  ASSERT_EQ(solution.status == SolveStatus::Unbounded, reference.unbounded)
      << "status " << to_string(solution.status);
  if (reference.unbounded) return;
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  const double scale = 1.0 + std::abs(reference.objective);
  EXPECT_NEAR(solution.objective, reference.objective, 1e-9 * scale);

  EXPECT_LE(lp.build(lower, upper).max_violation(solution.values), 1e-7);

  constexpr double kDualTol = 1e-7;
  ASSERT_EQ(solution.duals.size(), static_cast<std::size_t>(kEnumRows));
  double dual_objective = 0.0;
  for (int i = 0; i < kEnumRows; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    const double y = solution.duals[ii];
    if (lp.relation[ii] == Relation::LessEqual) {
      EXPECT_LE(y, kDualTol) << "row " << i;
    }
    if (lp.relation[ii] == Relation::GreaterEqual) {
      EXPECT_GE(y, -kDualTol) << "row " << i;
    }
    dual_objective += lp.rhs[ii] * y;
  }
  for (int j = 0; j < kEnumVars; ++j) {
    const auto jj = static_cast<std::size_t>(j);
    double reduced = lp.cost[jj];
    for (int i = 0; i < kEnumRows; ++i) {
      reduced -= lp.coeff[static_cast<std::size_t>(i)][jj] *
                 solution.duals[static_cast<std::size_t>(i)];
    }
    const double x = solution.values[jj];
    if (x > lower[jj] + kDualTol) {
      EXPECT_LE(reduced, kDualTol) << "column " << j;
    }
    if (x < upper[jj] - kDualTol) {
      EXPECT_GE(reduced, -kDualTol) << "column " << j;
    }
    dual_objective += reduced >= 0.0 || !std::isfinite(upper[jj])
                          ? reduced * lower[jj]
                          : reduced * upper[jj];
  }
  EXPECT_NEAR(dual_objective, reference.objective, 1e-9 * scale);
}

/// Tightens column j's bounds past its value at a first optimum, the way a
/// branch-and-bound child does, so that the re-solve must leave that
/// vertex: the half of the box the value lies in is cut away, and a column
/// with no upper bound that sits within 1 of its lower bound gets its lower
/// bound raised past the value instead. Every cut clears the value by at
/// least a quarter (finite bounds are at least 1 apart).
void tighten_past(std::vector<double>& lower, std::vector<double>& upper,
                  std::size_t j, const std::vector<double>& values) {
  const double x = values[j];
  const bool cut_above = std::isfinite(upper[j]) ? x - lower[j] >= upper[j] - x
                                                 : x - lower[j] >= 1.0;
  if (cut_above) {
    upper[j] = lower[j] + 0.5 * (x - lower[j]);
  } else if (std::isfinite(upper[j])) {
    lower[j] = x + 0.5 * (upper[j] - x);
  } else {
    lower[j] = x + 1.0;
  }
  EXPECT_TRUE(x > upper[j] + 0.25 || x < lower[j] - 0.25)
      << "column " << j << " at " << x << " is not cut off by [" << lower[j]
      << ", " << upper[j] << "]";
}

class LpVertexEnumeration : public ::testing::TestWithParam<int> {};

TEST_P(LpVertexEnumeration, ColdSolveMatchesEnumeration) {
  const SmallLp lp = random_small_lp(static_cast<std::uint64_t>(GetParam()));
  const Solution cold = solve_lp(lp.build(lp.lower, lp.upper));
  expect_matches_enumeration(lp, lp.lower, lp.upper, cold, "cold");
}

TEST_P(LpVertexEnumeration, WarmSolveMatchesEnumeration) {
  // Re-solve after tightening one bound past the optimum, the way a
  // branch-and-bound child does, both from the emitted Basis (refactorized)
  // and from the live state (resumed LU), and check each against the
  // enumeration of the tightened LP.
  const SmallLp lp = random_small_lp(static_cast<std::uint64_t>(GetParam()));
  const Model model = lp.build(lp.lower, lp.upper);
  LpState state;
  const Solution first =
      solve_lp_live(model, {}, {}, {}, nullptr, true, nullptr, &state);
  expect_matches_enumeration(lp, lp.lower, lp.upper, first, "first solve");
  if (first.status != SolveStatus::Optimal) return;

  std::vector<double> lower = lp.lower;
  std::vector<double> upper = lp.upper;
  tighten_past(lower, upper, static_cast<std::size_t>(GetParam() % kEnumVars),
               first.values);

  const Solution from_basis =
      solve_lp(model, lower, upper, {}, &first.basis, false);
  EXPECT_TRUE(from_basis.warm_started);
  expect_matches_enumeration(lp, lower, upper, from_basis, "basis warm start");

  const Solution resumed =
      solve_lp_live(model, lower, upper, {}, nullptr, false, &state, nullptr);
  EXPECT_TRUE(resumed.warm_started);
  expect_matches_enumeration(lp, lower, upper, resumed, "resumed live state");
}

TEST_P(LpVertexEnumeration, ReweightedWarmSolveMatchesEnumeration) {
  // A new slot re-weights the objective before the basis is reused: redraw
  // the costs, tighten one bound past the old optimum, and re-solve from the
  // old Basis. The seed basis is now dual infeasible — slacks (no upper
  // bound) cannot be bound-flipped, so the dual repair shifts their costs —
  // and the answer must still match the enumeration of the new LP.
  const SmallLp lp = random_small_lp(static_cast<std::uint64_t>(GetParam()));
  const Solution first = solve_lp(lp.build(lp.lower, lp.upper), {}, {}, {},
                                  nullptr, true);
  if (first.status != SolveStatus::Optimal) return;

  SmallLp reweighted = lp;
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  for (double& c : reweighted.cost) c = rng.uniform(-4.0, 4.0);
  std::vector<double> lower = lp.lower;
  std::vector<double> upper = lp.upper;
  tighten_past(lower, upper,
               static_cast<std::size_t>((GetParam() + 1) % kEnumVars),
               first.values);

  const Solution warm = solve_lp(reweighted.build(lp.lower, lp.upper), lower,
                                 upper, {}, &first.basis, false);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.warm_give_ups.total(), 0);
  expect_matches_enumeration(reweighted, lower, upper, warm,
                             "re-weighted basis warm start");
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpVertexEnumeration, ::testing::Range(1, 33));

TEST(LpVertexEnumeration, SeedsDrawFeasibleAndInfeasibleLps) {
  // The oracle is only as good as its instances: the seeds above must
  // exercise every verdict — optimal, infeasible and unbounded.
  int optimal = 0;
  int infeasible = 0;
  int unbounded = 0;
  for (int seed = 1; seed < 33; ++seed) {
    const SmallLp lp = random_small_lp(static_cast<std::uint64_t>(seed));
    const EnumeratedOptimum reference =
        enumerate_vertices(lp, lp.lower, lp.upper);
    if (!reference.feasible) {
      ++infeasible;
    } else if (reference.unbounded) {
      ++unbounded;
    } else {
      ++optimal;
    }
  }
  EXPECT_GE(optimal, 16);
  EXPECT_GE(infeasible, 4);
  EXPECT_GE(unbounded, 3);
}

// ---------------------------------------------------- BasisLu updates ----

TEST(BasisLu, RandomBoxUpdatesMatchBasisAndFreshFactorization) {
  // Seeded column-replacement sequences from each random box LP's cold
  // starting basis (all logical): after every Forrest–Tomlin update,
  // B·(B⁻¹x) = x, Bᵀ·(B⁻ᵀy) = y, and FTRAN/BTRAN equal a fresh
  // factorization's.
  int applied = 0;
  for (int seed = 1; seed < 33; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SmallLp lp = random_small_lp(static_cast<std::uint64_t>(seed));
    const StandardForm form =
        build_standard_form(lp.build(lp.lower, lp.upper), {}, {},
                            Basis::logical(kEnumVars, kEnumRows));
    BasisLu lu;
    std::vector<int> basis_of_row;
    ASSERT_TRUE(lu.factorize(form, form.basic_cols, basis_of_row));
    applied += testutil::check_column_replacements(
        form, lu, basis_of_row, static_cast<std::uint64_t>(seed), 24);
  }
  EXPECT_GE(applied, 32 * 20);  // the sequences really ran
}

// The standard form of a paper_large slot LP with its optimal basis as the
// warm start: 353 rows, most of them slack singletons, the rest a
// structural nucleus — the shape every BIRP refactorization sees.
StandardForm paper_large_slot_form() {
  const auto cluster = device::ClusterSpec::paper_large();
  const core::TirLookup lookup = [&](int k, int i, int j) {
    return cluster.oracle_tir(k, i, j);
  };
  util::Xoshiro256StarStar rng(7);
  util::Grid2<std::int64_t> demand(cluster.num_apps(), cluster.num_devices(),
                                   0);
  for (int i = 0; i < cluster.num_apps(); ++i) {
    for (int k = 0; k < cluster.num_devices(); ++k) {
      demand(i, k) = static_cast<std::int64_t>(rng.uniform_int(2, 12));
    }
  }
  const core::BuiltProblem problem =
      core::build_slot_problem(cluster, demand, nullptr, lookup, {});
  const Solution optimal = solve_lp(problem.model, {}, {}, {}, nullptr, true);
  EXPECT_EQ(optimal.status, SolveStatus::Optimal);
  return build_standard_form(problem.model, {}, {}, optimal.basis);
}

TEST(BasisLu, CopiedFactorizationUpdatesIndependently) {
  // A copy taken after some updates is a value, not a view: the original
  // and the copy then take different column replacements, and each still
  // inverts its own basis and agrees with a fresh factorization.
  const StandardForm form = paper_large_slot_form();
  ASSERT_TRUE(form.ok);
  BasisLu lu;
  std::vector<int> basis_of_row;
  ASSERT_TRUE(lu.factorize(form, form.basic_cols, basis_of_row));
  ASSERT_EQ(testutil::check_column_replacements(form, lu, basis_of_row, 3, 10),
            10);

  BasisLu copy = lu;
  std::vector<int> copy_basis = basis_of_row;
  EXPECT_EQ(
      testutil::check_column_replacements(form, lu, basis_of_row, 101, 30),
      30);
  EXPECT_EQ(
      testutil::check_column_replacements(form, copy, copy_basis, 202, 30), 30);
  EXPECT_NE(basis_of_row, copy_basis);  // the two really diverged
}

TEST(BasisLu, RefusedUpdateLeavesFactorizationIntact) {
  // An update whose pivot is zero in the FTRANed column is refused, and the
  // refusal changes nothing: FTRAN and BTRAN still solve the old basis, and
  // later updates still work.
  const StandardForm form = paper_large_slot_form();
  ASSERT_TRUE(form.ok);
  BasisLu lu;
  std::vector<int> basis_of_row;
  ASSERT_TRUE(lu.factorize(form, form.basic_cols, basis_of_row));
  ASSERT_EQ(testutil::check_column_replacements(form, lu, basis_of_row, 5, 8),
            8);

  std::vector<char> basic(static_cast<std::size_t>(form.cols), 0);
  for (const int j : basis_of_row) basic[static_cast<std::size_t>(j)] = 1;
  int refused = 0;
  for (int j = 0; j < form.structural && refused < 5; ++j) {
    if (basic[static_cast<std::size_t>(j)] != 0) continue;
    std::vector<double> alpha = testutil::dense_column(form, j);
    lu.ftran(alpha);
    const auto zero = std::find(alpha.begin(), alpha.end(), 0.0);
    if (zero == alpha.end()) continue;
    EXPECT_FALSE(lu.update(alpha, static_cast<int>(zero - alpha.begin())));
    ++refused;
  }
  ASSERT_EQ(refused, 5);

  util::Xoshiro256StarStar rng(9);
  std::vector<double> x(static_cast<std::size_t>(form.rows));
  for (auto& e : x) e = rng.uniform(-1.0, 1.0);
  auto solved = x;
  lu.ftran(solved);
  EXPECT_LE(testutil::relative_gap(
                testutil::basis_times(form, basis_of_row, solved), x),
            1e-9);
  auto duals = x;
  lu.btran(duals);
  EXPECT_LE(testutil::relative_gap(
                testutil::basis_transpose_times(form, basis_of_row, duals), x),
            1e-9);
  EXPECT_EQ(testutil::check_column_replacements(form, lu, basis_of_row, 6, 8),
            8);
}

TEST(BasisLu, UpdateTakesItsSpikeFromItsOwnColumn) {
  // The spike an FTRAN keeps belongs to the vector it solved. Between the
  // entering column's FTRAN and the update, an unrelated FTRAN (the basic
  // values, say) or a copy of the column into another buffer must not hand
  // update() the wrong spike: each update is accepted and the factors
  // still solve the new basis.
  const StandardForm form = paper_large_slot_form();
  ASSERT_TRUE(form.ok);
  BasisLu lu;
  std::vector<int> basis_of_row;
  ASSERT_TRUE(lu.factorize(form, form.basic_cols, basis_of_row));
  std::vector<char> basic(static_cast<std::size_t>(form.cols), 0);
  for (const int j : basis_of_row) basic[static_cast<std::size_t>(j)] = 1;

  util::Xoshiro256StarStar rng(11);
  const auto random_vector = [&] {
    std::vector<double> v(static_cast<std::size_t>(form.rows));
    for (auto& e : v) e = rng.uniform(-1.0, 1.0);
    return v;
  };
  int applied = 0;
  for (int j = 0; j < form.structural && applied < 12; ++j) {
    if (basic[static_cast<std::size_t>(j)] != 0) continue;
    std::vector<double> alpha = testutil::dense_column(form, j);
    lu.ftran(alpha);
    const auto row = static_cast<int>(
        std::max_element(alpha.begin(), alpha.end(),
                         [](double a, double b) {
                           return std::abs(a) < std::abs(b);
                         }) -
        alpha.begin());
    if (std::abs(alpha[static_cast<std::size_t>(row)]) < 1e-6) continue;
    std::vector<double> other = random_vector();
    lu.ftran(other);  // an unrelated FTRAN in between
    // Every other update hands over a copy, which no FTRAN wrote.
    const std::vector<double> copy = alpha;
    ASSERT_TRUE(lu.update(applied % 2 == 0 ? std::span<const double>(alpha)
                                           : std::span<const double>(copy),
                          row))
        << applied;
    basic[static_cast<std::size_t>(
        basis_of_row[static_cast<std::size_t>(row)])] = 0;
    basic[static_cast<std::size_t>(j)] = 1;
    basis_of_row[static_cast<std::size_t>(row)] = j;
    ++applied;

    const std::vector<double> x = random_vector();
    auto solved = x;
    lu.ftran(solved);
    EXPECT_LE(testutil::relative_gap(
                  testutil::basis_times(form, basis_of_row, solved), x),
              1e-9)
        << applied;
    auto duals = x;
    lu.btran(duals);
    EXPECT_LE(testutil::relative_gap(
                  testutil::basis_transpose_times(form, basis_of_row, duals),
                  x),
              1e-9)
        << applied;
  }
  ASSERT_EQ(applied, 12);
  EXPECT_EQ(testutil::check_column_replacements(form, lu, basis_of_row, 12, 8),
            8);
}

TEST(BasisLu, SingularBasisIsRejected) {
  // Four structural columns over three rows, where c = a + b:
  //   a = (1, 1, 0), b = (0, 1, 1), c = (1, 2, 1), d = (1, 0, 1).
  // {a, b, d} is a basis; a duplicated column and the dependent c are not,
  // whether the duplicate is structural or a slack singleton.
  Model model;
  const int a = model.add_continuous(0.0, 1.0);
  const int b = model.add_continuous(0.0, 1.0);
  const int c = model.add_continuous(0.0, 1.0);
  const int d = model.add_continuous(0.0, 1.0);
  model.add_constraint({{a, 1.0}, {c, 1.0}, {d, 1.0}}, Relation::LessEqual,
                       1.0);
  model.add_constraint({{a, 1.0}, {b, 1.0}, {c, 2.0}}, Relation::LessEqual,
                       1.0);
  model.add_constraint({{b, 1.0}, {c, 1.0}, {d, 1.0}}, Relation::LessEqual,
                       1.0);
  const StandardForm form =
      build_standard_form(model, {}, {}, Basis::logical(4, 3));
  const int slack0 = form.structural;  // the slack (logical) of row 0

  BasisLu lu;
  std::vector<int> basis_of_row;
  EXPECT_TRUE(lu.factorize(form, std::vector<int>{a, b, d}, basis_of_row));
  EXPECT_FALSE(lu.factorize(form, std::vector<int>{a, a, d}, basis_of_row));
  EXPECT_FALSE(lu.factorize(form, std::vector<int>{a, b, c}, basis_of_row));
  EXPECT_FALSE(
      lu.factorize(form, std::vector<int>{slack0, slack0, d}, basis_of_row));
  // A rejected factorization leaves the object reusable.
  EXPECT_TRUE(lu.factorize(form, std::vector<int>{c, d, b}, basis_of_row));
}

TEST(BasisLu, SteadyStateAllocatesNothing) {
  // One cycle of factorize, 20 updates and an FTRAN/BTRAN pair on a
  // paper_large slot basis sizes every buffer of the LU; an identical second
  // cycle on the same object must not touch the heap.
  ASSERT_TRUE(util::alloc_counting_active());
  const StandardForm form = paper_large_slot_form();
  ASSERT_TRUE(form.ok);
  const auto rows = static_cast<std::size_t>(form.rows);
  const auto load = [&](std::vector<double>& dense, int col) {
    std::fill(dense.begin(), dense.end(), 0.0);
    for (int p = form.col_start[static_cast<std::size_t>(col)];
         p < form.col_start[static_cast<std::size_t>(col) + 1]; ++p) {
      dense[static_cast<std::size_t>(
          form.row_index[static_cast<std::size_t>(p)])] =
          form.values[static_cast<std::size_t>(p)];
    }
  };

  // The update sequence, recorded on a scratch LU: each step pivots the
  // next nonbasic structural column in at its largest transformed entry.
  constexpr int kUpdates = 20;
  std::vector<int> enter;
  std::vector<int> leave;
  {
    BasisLu lu;
    std::vector<int> basis_of_row;
    ASSERT_TRUE(lu.factorize(form, form.basic_cols, basis_of_row));
    std::vector<char> basic(static_cast<std::size_t>(form.cols), 0);
    for (const int j : basis_of_row) basic[static_cast<std::size_t>(j)] = 1;
    std::vector<double> alpha(rows);
    for (int j = 0; j < form.structural && std::ssize(enter) < kUpdates;
         ++j) {
      if (basic[static_cast<std::size_t>(j)] != 0) continue;
      load(alpha, j);
      lu.ftran(alpha);
      const auto row = static_cast<int>(
          std::max_element(alpha.begin(), alpha.end(),
                           [](double a, double b) {
                             return std::abs(a) < std::abs(b);
                           }) -
          alpha.begin());
      if (std::abs(alpha[static_cast<std::size_t>(row)]) < 1e-6) continue;
      ASSERT_TRUE(lu.update(alpha, row));
      basic[static_cast<std::size_t>(
          basis_of_row[static_cast<std::size_t>(row)])] = 0;
      basic[static_cast<std::size_t>(j)] = 1;
      basis_of_row[static_cast<std::size_t>(row)] = j;
      enter.push_back(j);
      leave.push_back(row);
    }
    ASSERT_EQ(std::ssize(enter), kUpdates);
  }

  BasisLu lu;
  std::vector<int> basis_of_row;
  std::vector<double> column(rows);
  std::vector<double> y(rows);
  const auto cycle = [&] {
    bool ok = lu.factorize(form, form.basic_cols, basis_of_row);
    for (int s = 0; s < kUpdates; ++s) {
      load(column, enter[static_cast<std::size_t>(s)]);
      lu.ftran(column);
      ok = lu.update(column, leave[static_cast<std::size_t>(s)]) && ok;
    }
    std::fill(y.begin(), y.end(), 1.0);
    lu.ftran(y);
    lu.btran(y);
    return ok;
  };
  ASSERT_TRUE(cycle());
  const util::AllocCounts before = util::alloc_counts();
  const bool ok = cycle();
  const util::AllocCounts after = util::alloc_counts();
  EXPECT_TRUE(ok);
  EXPECT_EQ(after.allocs - before.allocs, 0);
}

TEST(BasisLu, RefactorTriggersFireOnIntervalAndFill) {
  // Fill-free updates (a scaled unit column pivoted at its own row) reach
  // only the interval trigger, after exactly kRefactorInterval of them.
  constexpr int kRows = 10;
  BasisLu lu;
  lu.reset_identity(kRows);
  EXPECT_FALSE(lu.should_refactorize());
  for (int n = 1; n <= kRefactorInterval; ++n) {
    std::vector<double> alpha(kRows, 0.0);
    const int row = n % kRows;
    alpha[static_cast<std::size_t>(row)] = 2.0;
    ASSERT_TRUE(lu.update(alpha, row));
    EXPECT_EQ(lu.should_refactorize(), n == kRefactorInterval) << n;
  }
  // Dense updates trip the growth trigger long before the interval. From
  // the identity (a fresh factor with no off-diagonal entries) each one
  // pivots the all-ones column in at the next row: its spike adds a
  // 9-entry column to U, and eliminating the row it replaces adds one row
  // eta entry per earlier update. U plus the row etas hold 9, 18 and 27
  // entries after three updates and 36 after the fourth, past
  // kGrowthLimit * (0 + 10) = 30.
  static_assert(kGrowthLimit == 3);
  lu.reset_identity(kRows);
  for (int n = 1; n <= 4; ++n) {
    const std::vector<double> alpha(kRows, 1.0);
    ASSERT_TRUE(lu.update(alpha, n - 1));
    EXPECT_EQ(lu.should_refactorize(), n == 4) << n;
  }
}

}  // namespace
}  // namespace birp::solver
