// Tests for the CSV experiment exporters, the bench report and flag parser
// (bench/report.hpp), and the GREEDY-LOCAL baseline.
#include <sstream>

#include <gtest/gtest.h>

#include "birp/device/cluster.hpp"
#include "birp/metrics/report_csv.hpp"
#include "birp/core/birp_scheduler.hpp"
#include "birp/sched/greedy_local.hpp"
#include "birp/sim/simulator.hpp"
#include "birp/util/csv.hpp"
#include "birp/workload/generator.hpp"
#include "report.hpp"

namespace birp {
namespace {

metrics::RunMetrics sample_metrics(double offset) {
  metrics::RunMetrics m;
  for (int i = 1; i <= 10; ++i) {
    m.record_request(offset + static_cast<double>(i) / 10.0, i <= 9);
  }
  m.record_slot_loss(10.0 + offset);
  m.record_slot_loss(20.0 + offset);
  m.record_edge_busy(0.5);
  return m;
}

TEST(ReportCsv, CdfExportShape) {
  const auto a = sample_metrics(0.0);
  const auto b = sample_metrics(0.3);
  std::ostringstream out;
  metrics::write_cdf_csv(out, {{"A", &a}, {"B", &b}}, 2.0, 9);
  const auto rows = util::parse_csv(out.str());
  ASSERT_EQ(rows.size(), 10u);  // header + 9 points
  EXPECT_EQ(rows[0], (std::vector<std::string>{"tau", "A", "B"}));
  // CDF columns are monotone nondecreasing and end at 1.
  double prev_a = -1.0;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const double value = std::stod(rows[r][1]);
    EXPECT_GE(value, prev_a);
    prev_a = value;
  }
  EXPECT_DOUBLE_EQ(std::stod(rows.back()[1]), 1.0);
}

TEST(ReportCsv, LossSeriesRoundTrip) {
  const auto a = sample_metrics(0.0);
  std::ostringstream slot_out;
  metrics::write_slot_loss_csv(slot_out, {{"A", &a}});
  auto rows = util::parse_csv(slot_out.str());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(std::stod(rows[1][1]), 10.0);
  EXPECT_DOUBLE_EQ(std::stod(rows[2][1]), 20.0);

  std::ostringstream cumulative_out;
  metrics::write_cumulative_loss_csv(cumulative_out, {{"A", &a}});
  rows = util::parse_csv(cumulative_out.str());
  EXPECT_DOUBLE_EQ(std::stod(rows[2][1]), 30.0);
}

TEST(ReportCsv, SummaryHasOneRowPerRun) {
  const auto a = sample_metrics(0.0);
  const auto b = sample_metrics(0.1);
  std::ostringstream out;
  metrics::write_summary_csv(out, {{"A", &a}, {"B", &b}});
  const auto rows = util::parse_csv(out.str());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1][0], "A");
  EXPECT_EQ(rows[2][0], "B");
}

TEST(ReportCsv, MismatchedHorizonsRejected) {
  const auto a = sample_metrics(0.0);
  metrics::RunMetrics b;
  b.record_slot_loss(1.0);  // only one slot
  std::ostringstream out;
  EXPECT_THROW(metrics::write_slot_loss_csv(out, {{"A", &a}, {"B", &b}}),
               std::logic_error);
}

TEST(ReportCsv, EmptyRunListRejected) {
  std::ostringstream out;
  EXPECT_THROW(metrics::write_summary_csv(out, {}), std::logic_error);
}

TEST(GreedyLocal, ServesLocallySeriallyWithoutFlows) {
  const auto cluster = device::ClusterSpec::paper_small();
  workload::GeneratorConfig config;
  config.slots = 5;
  config.mean_per_edge = workload::suggested_mean_per_edge(cluster, 0.4);
  const auto trace = workload::generate(cluster, config);
  sched::GreedyLocalScheduler scheduler(cluster);
  sim::Simulator simulator(cluster, trace);
  for (int t = 0; t < 5; ++t) {
    const auto result = simulator.step(scheduler);
    EXPECT_TRUE(result.decision.flows.empty());
    for (int i = 0; i < cluster.num_apps(); ++i) {
      for (int j = 0; j < cluster.zoo().num_variants(i); ++j) {
        for (int k = 0; k < cluster.num_devices(); ++k) {
          if (result.decision.served(i, j, k) > 0) {
            EXPECT_EQ(result.decision.kernel(i, j, k), 1);
          }
        }
      }
    }
  }
}

TEST(GreedyLocal, PrefersAccurateModelsWhenComputeAllows) {
  const auto cluster = device::ClusterSpec::paper_small();
  workload::Trace trace(1, 1, cluster.num_devices());
  trace.set(0, 0, 0, 2);  // trivially light
  sched::GreedyLocalScheduler scheduler(cluster);
  sim::Simulator simulator(cluster, trace);
  const auto result = simulator.step(scheduler);
  const int best = cluster.zoo().num_variants(0) - 1;
  EXPECT_EQ(result.decision.served(0, best, 0), 2);
}

TEST(GreedyLocal, NeverBeatsBirpOnLossUnderLoad) {
  // The section 5.2 justification for omitting simple baselines.
  const auto cluster = device::ClusterSpec::paper_small();
  workload::GeneratorConfig config;
  config.slots = 20;
  config.mean_per_edge = workload::suggested_mean_per_edge(cluster, 0.7);
  const auto trace = workload::generate(cluster, config);

  sched::GreedyLocalScheduler greedy(cluster);
  auto birp = core::BirpScheduler::offline(cluster);
  sim::Simulator sim_a(cluster, trace);
  sim::Simulator sim_b(cluster, trace);
  const auto m_greedy = sim_a.run(greedy);
  const auto m_birp = sim_b.run(birp);
  EXPECT_LE(m_birp.total_loss(), m_greedy.total_loss() * 1.02);
}


// --------------------------------------------------- bench report + flags --

/// Parses `args` (argv[0] is added) into `flags`; returns parse()'s reason.
std::string parse(bench::Flags& flags, std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  return flags.parse(static_cast<int>(args.size()), args.data());
}

bench::Report two_gate_report() {
  bench::Report report("bench_test");
  report.param("slots", 4);
  report.arm().add("name", "a").add("served", 10).add("goodput", {0.5, 2});
  report.arm().add("name", "b").add("served", 12).add("goodput", {0.75, 2});
  report.gate("served grows", report.find("b").number("served"), ">",
              report.find("a").number("served"));
  report.gate("goodput reaches 0.9", report.find("b").number("goodput"), ">=",
              0.9);
  return report;
}

TEST(BenchReport, FailingGateFailsOnlyUnderCheck) {
  const auto report = two_gate_report();
  bench::Flags plain(4, 0.5);
  std::ostringstream out;
  EXPECT_EQ(report.finish(plain, out), 0);

  bench::Flags checked(4, 0.5);
  checked.option("--check", checked.check);
  ASSERT_EQ(parse(checked, {"--check"}), "");
  EXPECT_EQ(report.finish(checked, out), 1);
}

TEST(BenchReport, PrintsEveryGateLine) {
  const auto report = two_gate_report();
  bench::Flags flags(4, 0.5);
  std::ostringstream out;
  (void)report.finish(flags, out);
  EXPECT_NE(out.str().find("PASS served grows: 12 > 10"), std::string::npos);
  EXPECT_NE(out.str().find("FAIL goodput reaches 0.9: 0.75 >= 0.9"),
            std::string::npos);
}

TEST(BenchReport, JsonAndCsvCarryEveryArmValue) {
  const auto report = two_gate_report();
  std::ostringstream json;
  report.write_json(json);
  EXPECT_NE(json.str().find("\"goodput\": 0.75"), std::string::npos);
  EXPECT_NE(json.str().find("\"pass\": false"), std::string::npos);

  std::ostringstream csv;
  report.write_csv(csv);
  const auto rows = util::parse_csv(csv.str());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"name", "served", "goodput"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"b", "12", "0.75"}));
}

TEST(BenchFlags, RejectsUnknownFlagMissingValueAndMalformedNumber) {
  bench::Flags unknown(40, 0.5);
  EXPECT_EQ(parse(unknown, {"--slotz", "5"}), "unknown flag --slotz");

  bench::Flags missing(40, 0.5);
  EXPECT_EQ(parse(missing, {"--target"}), "missing value for --target");

  bench::Flags malformed(40, 0.5);
  EXPECT_EQ(parse(malformed, {"--slots", "abc"}),
            "malformed value 'abc' for --slots");
  bench::Flags trailing(40, 0.5);
  EXPECT_EQ(parse(trailing, {"--slots", "12x"}),
            "malformed value '12x' for --slots");
}

TEST(BenchFlags, ParsesDeclaredFlags) {
  bench::Flags flags(40, 0.5);
  double wait = 0.05;
  flags.option("--wait", wait).option("--json", flags.json);
  ASSERT_EQ(parse(flags, {"--seed", "0x10", "--wait", "-1", "--json", "o.json",
                          "--target", "0.7"}),
            "");
  EXPECT_EQ(flags.seed, 16u);
  EXPECT_EQ(wait, -1.0);
  EXPECT_EQ(flags.json, "o.json");
  EXPECT_EQ(flags.target, 0.7);
  EXPECT_EQ(flags.slots, 40);
}

TEST(BenchFlags, ExplicitSlotsBeatQuick) {
  bench::Flags quick(40, 0.5);
  quick.with_quick(12);
  ASSERT_EQ(parse(quick, {"--quick"}), "");
  EXPECT_TRUE(quick.quick);
  EXPECT_EQ(quick.slots, 12);

  using Args = std::vector<const char*>;
  for (const auto& args :
       {Args{"--slots", "30", "--quick"}, Args{"--quick", "--slots", "30"}}) {
    bench::Flags explicit_slots(40, 0.5);
    explicit_slots.with_quick(12);
    ASSERT_EQ(parse(explicit_slots, args), "");
    EXPECT_EQ(explicit_slots.slots, 30);
  }
}

}  // namespace
}  // namespace birp
