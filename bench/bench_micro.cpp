// Microbenchmarks (google-benchmark): solver, simulator, and runtime hot
// paths. These quantify the per-slot scheduling cost — the paper's
// real-time feasibility argument for solving P1/P2 every slot.
#include <atomic>
#include <numeric>
#include <vector>

#include <benchmark/benchmark.h>

#include "birp/core/birp_scheduler.hpp"
#include "birp/core/problem.hpp"
#include "birp/device/cluster.hpp"
#include "birp/runtime/thread_pool.hpp"
#include "birp/sim/simulator.hpp"
#include "birp/solver/branch_and_bound.hpp"
#include "birp/solver/simplex.hpp"
#include "birp/util/rng.hpp"
#include "birp/workload/generator.hpp"

namespace {

birp::solver::Model random_lp(int vars, int rows, std::uint64_t seed) {
  birp::util::Xoshiro256StarStar rng(seed);
  birp::solver::Model model;
  for (int v = 0; v < vars; ++v) {
    model.add_continuous(0.0, rng.uniform(1.0, 10.0));
    model.set_objective(v, rng.uniform(-1.0, 1.0));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<birp::solver::Term> terms;
    double row_sum = 0.0;
    for (int v = 0; v < vars; ++v) {
      if (rng.bernoulli(0.3)) {
        const double c = rng.uniform(0.1, 2.0);
        terms.push_back({v, c});
        row_sum += c;
      }
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    model.add_constraint(terms, birp::solver::Relation::LessEqual,
                         row_sum * rng.uniform(1.0, 4.0));
  }
  return model;
}

void BM_SimplexRandomLp(benchmark::State& state) {
  const auto model = random_lp(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(0)) / 2, 7);
  for (auto _ : state) {
    auto solution = birp::solver::solve_lp(model);
    benchmark::DoNotOptimize(solution.objective);
  }
}
BENCHMARK(BM_SimplexRandomLp)->Arg(50)->Arg(150)->Arg(400);

void BM_SlotProblemLp(benchmark::State& state) {
  const auto cluster = birp::device::ClusterSpec::paper_large();
  birp::util::Grid2<std::int64_t> demand(cluster.num_apps(),
                                         cluster.num_devices(), 12);
  const birp::core::TirLookup lookup = [&](int k, int i, int j) {
    return cluster.oracle_tir(k, i, j);
  };
  const auto built =
      birp::core::build_slot_problem(cluster, demand, nullptr, lookup, {});
  for (auto _ : state) {
    auto solution = birp::solver::solve_lp(built.model);
    benchmark::DoNotOptimize(solution.objective);
  }
}
BENCHMARK(BM_SlotProblemLp)->Unit(benchmark::kMillisecond);

void BM_SlotProblemLpWarm(benchmark::State& state) {
  // Arg 0: cold solve from the all-logical basis. Arg 1: warm re-solve from
  // the problem's own optimal basis (the cross-slot case: consecutive slot
  // LPs share structure, so the previous basis refactorizes and needs few or
  // no pivots).
  const bool warm = state.range(0) == 1;
  const auto cluster = birp::device::ClusterSpec::paper_large();
  birp::util::Grid2<std::int64_t> demand(cluster.num_apps(),
                                         cluster.num_devices(), 12);
  const birp::core::TirLookup lookup = [&](int k, int i, int j) {
    return cluster.oracle_tir(k, i, j);
  };
  const auto built =
      birp::core::build_slot_problem(cluster, demand, nullptr, lookup, {});
  const auto root =
      birp::solver::solve_lp(built.model, {}, {}, {}, nullptr, true);
  std::int64_t pivots = 0;
  std::int64_t solves = 0;
  for (auto _ : state) {
    auto solution = birp::solver::solve_lp(built.model, {}, {}, {},
                                           warm ? &root.basis : nullptr, false);
    pivots += solution.simplex_iterations;
    ++solves;
    benchmark::DoNotOptimize(solution.objective);
  }
  state.counters["pivots/solve"] = solves > 0
                                       ? static_cast<double>(pivots) /
                                             static_cast<double>(solves)
                                       : 0.0;
}
BENCHMARK(BM_SlotProblemLpWarm)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_BirpFullDecide(benchmark::State& state) {
  const auto cluster = birp::device::ClusterSpec::paper_large();
  birp::workload::GeneratorConfig config;
  config.slots = 2;
  config.mean_per_edge =
      birp::workload::suggested_mean_per_edge(cluster, 0.5);
  const auto trace = birp::workload::generate(cluster, config);
  birp::core::BirpScheduler scheduler(cluster);
  birp::sim::SlotState slot_state;
  slot_state.slot = 0;
  slot_state.demand = birp::util::Grid2<std::int64_t>(cluster.num_apps(),
                                                      cluster.num_devices(), 0);
  for (int i = 0; i < cluster.num_apps(); ++i) {
    for (int k = 0; k < cluster.num_devices(); ++k) {
      slot_state.demand(i, k) = trace.at(0, i, k);
    }
  }
  for (auto _ : state) {
    auto decision = scheduler.decide(slot_state);
    benchmark::DoNotOptimize(decision.total_served());
  }
}
BENCHMARK(BM_BirpFullDecide)->Unit(benchmark::kMillisecond);

void BM_SimulatorSlot(benchmark::State& state) {
  const auto cluster = birp::device::ClusterSpec::paper_large();
  birp::workload::GeneratorConfig config;
  config.slots = 1;
  config.mean_per_edge =
      birp::workload::suggested_mean_per_edge(cluster, 0.5);
  const auto trace = birp::workload::generate(cluster, config);

  // A trivially cheap scheduler isolates the executor's cost.
  class Greedy : public birp::sim::Scheduler {
   public:
    explicit Greedy(const birp::device::ClusterSpec& c) : cluster_(c) {}
    [[nodiscard]] std::string name() const override { return "greedy"; }
    [[nodiscard]] birp::sim::SlotDecision decide(
        const birp::sim::SlotState& s) override {
      birp::sim::SlotDecision d(cluster_.num_apps(),
                                cluster_.zoo().max_variants(),
                                cluster_.num_devices());
      for (int i = 0; i < cluster_.num_apps(); ++i) {
        for (int k = 0; k < cluster_.num_devices(); ++k) {
          const auto take = std::min<std::int64_t>(s.demand(i, k), 16);
          d.served(i, 0, k) = take;
          d.kernel(i, 0, k) = static_cast<int>(std::max<std::int64_t>(1, take));
          d.drops(i, k) = s.demand(i, k) - take;
        }
      }
      return d;
    }
   private:
    const birp::device::ClusterSpec& cluster_;
  } scheduler(cluster);

  for (auto _ : state) {
    state.PauseTiming();
    birp::sim::Simulator simulator(cluster, trace);
    state.ResumeTiming();
    auto result = simulator.step(scheduler);
    benchmark::DoNotOptimize(result.served);
  }
}
BENCHMARK(BM_SimulatorSlot)->Unit(benchmark::kMicrosecond);

// One claimed fork-join of 100 trivial indices on 3 workers plus the
// caller: the shape of serve_flood's per-slot edge fork.
void BM_ThreadPoolFork(benchmark::State& state) {
  birp::runtime::ThreadPool pool(3);
  std::vector<int> order(100);
  std::iota(order.begin(), order.end(), 0);
  std::atomic<int> counter{0};
  for (auto _ : state) {
    pool.run_claimed(order, [&counter](int) {
      counter.fetch_add(1, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(counter.load());
}
BENCHMARK(BM_ThreadPoolFork)->Unit(benchmark::kMicrosecond);

void BM_TraceGeneration(benchmark::State& state) {
  const auto cluster = birp::device::ClusterSpec::paper_large();
  birp::workload::GeneratorConfig config;
  config.slots = static_cast<int>(state.range(0));
  config.mean_per_edge = 20.0;
  for (auto _ : state) {
    auto trace = birp::workload::generate(cluster, config);
    benchmark::DoNotOptimize(trace.total());
  }
}
BENCHMARK(BM_TraceGeneration)->Arg(100)->Arg(300)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
