// Tests for the trace container, the synthetic workload generator, and the
// per-request arrival expansion.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "fnv1a.hpp"
#include "birp/device/cluster.hpp"
#include "birp/util/alloc_count.hpp"
#include "birp/util/stats.hpp"
#include "birp/workload/arrivals.hpp"
#include "birp/workload/generator.hpp"
#include "birp/workload/topology.hpp"
#include "birp/workload/trace.hpp"

namespace birp::workload {
namespace {

// ---------------------------------------------------------------- trace ----

TEST(Trace, SetGetAndTotals) {
  Trace trace(3, 2, 4);
  trace.set(0, 0, 0, 5);
  trace.set(2, 1, 3, 7);
  EXPECT_EQ(trace.at(0, 0, 0), 5);
  EXPECT_EQ(trace.at(2, 1, 3), 7);
  EXPECT_EQ(trace.at(1, 0, 0), 0);
  EXPECT_EQ(trace.total(), 12);
  EXPECT_EQ(trace.slot_total(0), 5);
  EXPECT_EQ(trace.slot_total(2), 7);
}

TEST(Trace, OverwriteAdjustsTotal) {
  Trace trace(1, 1, 1);
  trace.set(0, 0, 0, 5);
  trace.set(0, 0, 0, 2);
  EXPECT_EQ(trace.total(), 2);
}

TEST(Trace, EdgeTotals) {
  Trace trace(1, 2, 3);
  trace.set(0, 0, 1, 4);
  trace.set(0, 1, 1, 6);
  trace.set(0, 1, 2, 1);
  const auto totals = trace.edge_totals(0);
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals[0], 0);
  EXPECT_EQ(totals[1], 10);
  EXPECT_EQ(totals[2], 1);
}

TEST(Trace, BoundsChecked) {
  Trace trace(1, 1, 1);
  EXPECT_THROW((void)trace.at(1, 0, 0), std::logic_error);
  EXPECT_THROW(trace.set(0, 0, 0, -1), std::logic_error);
  EXPECT_THROW(Trace(0, 1, 1), std::logic_error);
}

TEST(Trace, CsvRoundTrip) {
  Trace trace(4, 3, 2);
  trace.set(0, 0, 0, 10);
  trace.set(1, 2, 1, 3);
  trace.set(3, 1, 0, 8);
  std::ostringstream out;
  trace.write_csv(out);
  const auto parsed = Trace::read_csv(out.str());
  EXPECT_EQ(parsed.slots(), 4);
  EXPECT_EQ(parsed.apps(), 3);
  EXPECT_EQ(parsed.devices(), 2);
  EXPECT_EQ(parsed.total(), trace.total());
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 3; ++i) {
      for (int k = 0; k < 2; ++k) {
        EXPECT_EQ(parsed.at(t, i, k), trace.at(t, i, k));
      }
    }
  }
}

TEST(Trace, ReadCsvRejectsGarbage) {
  EXPECT_THROW((void)Trace::read_csv("not a trace"), std::logic_error);
}

TEST(Trace, ReadCsvRejectsMalformedNumbers) {
  const std::string header = "slots,apps,devices\n";
  const std::string columns = "slot,app,device,requests\n";
  EXPECT_EQ(Trace::read_csv(header + "2,1,1\n" + columns + "1,0,0,3\n")
                .at(1, 0, 0),
            3);
  // Trailing characters, fractions, blanks and overflow in any field.
  for (const char* row :
       {"1,0,0,3x", "1,0,0,3.0", "1x,0,0,3", "1,0,,3", " 1,0,0,3",
        "1,0,0,99999999999999999999"}) {
    EXPECT_THROW(
        (void)Trace::read_csv(header + "2,1,1\n" + columns + row + "\n"),
        std::logic_error)
        << row;
  }
  EXPECT_THROW((void)Trace::read_csv(header + "2,1,1e9\n" + columns),
               std::logic_error);
}

// ------------------------------------------------------------ generator ----

class GeneratorFixture : public ::testing::Test {
 protected:
  device::ClusterSpec cluster_ = device::ClusterSpec::paper_large();
};

TEST_F(GeneratorFixture, ShapeMatchesCluster) {
  GeneratorConfig config;
  config.slots = 50;
  config.mean_per_edge = 10.0;
  const auto trace = generate(cluster_, config);
  EXPECT_EQ(trace.slots(), 50);
  EXPECT_EQ(trace.apps(), cluster_.num_apps());
  EXPECT_EQ(trace.devices(), cluster_.num_devices());
}

TEST_F(GeneratorFixture, Deterministic) {
  GeneratorConfig config;
  config.slots = 20;
  config.mean_per_edge = 8.0;
  const auto a = generate(cluster_, config);
  const auto b = generate(cluster_, config);
  EXPECT_EQ(a.total(), b.total());
  EXPECT_EQ(a.at(7, 2, 3), b.at(7, 2, 3));
}

TEST_F(GeneratorFixture, SeedChangesRealization) {
  GeneratorConfig config;
  config.slots = 20;
  config.mean_per_edge = 8.0;
  const auto a = generate(cluster_, config);
  config.seed ^= 0xdead;
  const auto b = generate(cluster_, config);
  EXPECT_NE(a.total(), b.total());
}

TEST_F(GeneratorFixture, MeanIntensityMatchesConfig) {
  GeneratorConfig config;
  config.slots = 400;
  config.mean_per_edge = 12.0;
  config.burst_probability = 0.0;  // isolate the base process
  const auto trace = generate(cluster_, config);
  const double mean = static_cast<double>(trace.total()) /
                      (400.0 * cluster_.num_apps() * cluster_.num_devices());
  EXPECT_NEAR(mean, 12.0, 1.2);  // diurnal averages out over full days
}

TEST_F(GeneratorFixture, HotEdgesArePersistentlyHotter) {
  GeneratorConfig config;
  config.slots = 400;
  config.mean_per_edge = 20.0;
  config.hot_edge_factor = 2.5;
  const auto trace = generate(cluster_, config);
  std::vector<std::int64_t> per_edge(
      static_cast<std::size_t>(cluster_.num_devices()), 0);
  for (int t = 0; t < 400; ++t) {
    const auto totals = trace.edge_totals(t);
    for (std::size_t k = 0; k < totals.size(); ++k) per_edge[k] += totals[k];
  }
  const auto [min_it, max_it] =
      std::minmax_element(per_edge.begin(), per_edge.end());
  EXPECT_GT(static_cast<double>(*max_it) / static_cast<double>(*min_it), 1.5);
}

TEST_F(GeneratorFixture, BurstsIncreaseVariance) {
  GeneratorConfig calm;
  calm.slots = 300;
  calm.mean_per_edge = 15.0;
  calm.burst_probability = 0.0;
  GeneratorConfig bursty = calm;
  bursty.burst_probability = 0.25;
  bursty.burst_scale = 3.0;

  const auto calm_trace = generate(cluster_, calm);
  const auto bursty_trace = generate(cluster_, bursty);
  util::RunningStats calm_stats;
  util::RunningStats bursty_stats;
  for (int t = 0; t < 300; ++t) {
    for (const auto v : calm_trace.edge_totals(t)) {
      calm_stats.add(static_cast<double>(v));
    }
    for (const auto v : bursty_trace.edge_totals(t)) {
      bursty_stats.add(static_cast<double>(v));
    }
  }
  // Compare relative dispersion so the burst-driven mean shift cancels.
  const double calm_cv = calm_stats.stddev() / calm_stats.mean();
  const double bursty_cv = bursty_stats.stddev() / bursty_stats.mean();
  EXPECT_GT(bursty_cv, calm_cv * 1.2);
}

TEST_F(GeneratorFixture, DiurnalCycleIsVisible) {
  GeneratorConfig config;
  config.slots = 96 * 4;
  config.slots_per_day = 96;
  config.mean_per_edge = 30.0;
  config.diurnal_amplitude = 0.5;
  config.burst_probability = 0.0;
  const auto trace = generate(cluster_, config);
  // Aggregate by position within the day; the swing should be visible.
  std::vector<double> by_position(96, 0.0);
  for (int t = 0; t < config.slots; ++t) {
    by_position[static_cast<std::size_t>(t % 96)] +=
        static_cast<double>(trace.slot_total(t));
  }
  const auto [min_it, max_it] =
      std::minmax_element(by_position.begin(), by_position.end());
  EXPECT_GT(*max_it, *min_it * 1.3);
}

TEST_F(GeneratorFixture, SuggestedMeanScalesWithTarget) {
  const double low = suggested_mean_per_edge(cluster_, 0.3);
  const double high = suggested_mean_per_edge(cluster_, 0.6);
  EXPECT_GT(low, 0.0);
  EXPECT_NEAR(high / low, 2.0, 1e-9);
}

TEST_F(GeneratorFixture, ValidatesConfig) {
  GeneratorConfig config;
  config.slots = 0;
  EXPECT_THROW((void)generate(cluster_, config), std::logic_error);
  config.slots = 10;
  config.mean_per_edge = -1.0;
  EXPECT_THROW((void)generate(cluster_, config), std::logic_error);
  EXPECT_THROW((void)suggested_mean_per_edge(cluster_, 0.0), std::logic_error);
}

TEST_F(GeneratorFixture, FlashCrowdDigestIsPinned) {
  // Base trace plus the flash-crowd overlay on its seeded subset of edges,
  // on 40 edges so the subset's size moves with the hit fraction.
  TopologyConfig shape;
  shape.edges = 40;
  shape.apps = 3;
  const auto cluster = make_cluster(generate_topology(shape), shape);
  GeneratorConfig config;
  config.slots = 30;
  config.mean_per_edge = 8.0;
  config.flash_start = 10;
  config.flash_duration = 12;
  config.flash_scale = 2.0;
  const auto trace = generate(cluster, config);
  testutil::Fnv1a digest;
  for (int t = 0; t < trace.slots(); ++t) {
    for (int i = 0; i < trace.apps(); ++i) {
      for (int k = 0; k < trace.devices(); ++k) digest.value(trace.at(t, i, k));
    }
  }
  EXPECT_EQ(digest.get(), 0x270d854c106d8214ULL) << std::hex << digest.get();
}

// ------------------------------------------------------------- arrivals ----

TEST(Arrivals, ExpandsEveryRequestWithinTheSlot) {
  Trace trace(2, 2, 3);
  trace.set(0, 0, 0, 4);
  trace.set(0, 1, 2, 2);
  trace.set(1, 0, 1, 3);
  const double tau = 6.0;
  const auto slot0 = slot_arrivals(trace, 0, tau, 42);
  EXPECT_EQ(static_cast<std::int64_t>(slot0.size()), trace.slot_total(0));
  for (const auto& a : slot0) {
    EXPECT_EQ(a.slot, 0);
    EXPECT_GE(a.offset_s, 0.0);
    EXPECT_LT(a.offset_s, tau);
  }
  // Cell-major: one contiguous run per non-empty cell in (app, device)
  // order, seq 0..n-1 along it, offsets non-decreasing within it.
  std::size_t at = 0;
  for (int i = 0; i < trace.apps(); ++i) {
    for (int k = 0; k < trace.devices(); ++k) {
      const auto count = trace.at(0, i, k);
      for (std::int64_t r = 0; r < count; ++r, ++at) {
        ASSERT_LT(at, slot0.size());
        EXPECT_EQ(slot0[at].app, i);
        EXPECT_EQ(slot0[at].device, k);
        EXPECT_EQ(slot0[at].seq, r);
        if (r > 0) {
          EXPECT_LE(slot0[at - 1].offset_s, slot0[at].offset_s);
        }
      }
    }
  }
  EXPECT_EQ(at, slot0.size());
  const auto all = expand_arrivals(trace, tau, 42);
  EXPECT_EQ(static_cast<std::int64_t>(all.size()), trace.total());
}

TEST(Arrivals, CellMajorOrderHoldsTheSameArrivals) {
  // The order slot_arrivals hands out is a layout choice; the arrivals are
  // not. Re-sorted by (slot, offset_s, app, device, seq), the expansion of
  // a multi-slot, multi-cell trace (empty cells included) matches a digest
  // of every field pinned from the slot-wide sorted expansion.
  Trace trace(3, 3, 4);
  for (int t = 0; t < trace.slots(); ++t) {
    for (int i = 0; i < trace.apps(); ++i) {
      for (int k = 0; k < trace.devices(); ++k) {
        trace.set(t, i, k, (7 * t + 5 * i + 3 * k) % 6);
      }
    }
  }
  auto all = expand_arrivals(trace, 6.0, 0x51beef);
  ASSERT_EQ(static_cast<std::int64_t>(all.size()), trace.total());
  std::sort(all.begin(), all.end(), [](const Arrival& a, const Arrival& b) {
    if (a.slot != b.slot) return a.slot < b.slot;
    if (a.offset_s != b.offset_s) return a.offset_s < b.offset_s;
    if (a.app != b.app) return a.app < b.app;
    if (a.device != b.device) return a.device < b.device;
    return a.seq < b.seq;
  });
  testutil::Fnv1a digest;
  digest.value(all.size());
  for (const auto& a : all) {
    digest.value(a.slot);
    digest.value(a.app);
    digest.value(a.device);
    digest.value(a.seq);
    digest.value(a.offset_s);
  }
  EXPECT_EQ(digest.get(), 0x3dafc69ab28d8df4ULL) << std::hex << digest.get();
}

TEST(Arrivals, SlotArrivalsIsTheConcatenationOfCellRuns) {
  // A cell's run depends only on its own count: expanding a trace that
  // holds that one cell gives the same run, and the slot is those runs laid
  // end to end in (app, device) order, empty cells contributing nothing.
  Trace trace(2, 3, 4);
  for (int t = 0; t < trace.slots(); ++t) {
    for (int i = 0; i < trace.apps(); ++i) {
      for (int k = 0; k < trace.devices(); ++k) {
        trace.set(t, i, k, (5 * t + 3 * i + 7 * k) % 5);
      }
    }
  }
  for (int t = 0; t < trace.slots(); ++t) {
    std::vector<Arrival> runs;
    for (int i = 0; i < trace.apps(); ++i) {
      for (int k = 0; k < trace.devices(); ++k) {
        Trace one(trace.slots(), trace.apps(), trace.devices());
        one.set(t, i, k, trace.at(t, i, k));
        const auto run = slot_arrivals(one, t, 6.0, 0x51beef);
        ASSERT_EQ(static_cast<std::int64_t>(run.size()), trace.at(t, i, k));
        std::vector<Arrival> cell(run.size());
        expand_cell(t, i, k, 6.0, 0x51beef, cell);
        EXPECT_EQ(cell, run);
        runs.insert(runs.end(), run.begin(), run.end());
      }
    }
    EXPECT_EQ(slot_arrivals(trace, t, 6.0, 0x51beef), runs) << "slot " << t;
  }
}

TEST(Arrivals, OneAllocationPerSlot) {
  if (!util::alloc_counting_active()) {
    GTEST_SKIP() << "alloc hook not linked";
  }
  // 24 non-empty cells of uneven size: one exactly-reserved vector, no
  // per-cell buffers and no regrowth.
  Trace trace(2, 4, 6);
  for (int t = 0; t < trace.slots(); ++t) {
    for (int i = 0; i < trace.apps(); ++i) {
      for (int k = 0; k < trace.devices(); ++k) {
        trace.set(t, i, k, 1 + (3 * t + 2 * i + k) % 9);
      }
    }
  }
  for (int t = 0; t < trace.slots(); ++t) {
    const auto before = util::alloc_counts().allocs;
    const auto arrivals = slot_arrivals(trace, t, 6.0, 0x51beef);
    const auto after = util::alloc_counts().allocs;
    EXPECT_EQ(after - before, 1) << "slot " << t;
    EXPECT_EQ(static_cast<std::int64_t>(arrivals.size()), trace.slot_total(t));
    EXPECT_EQ(arrivals.capacity(), arrivals.size());
  }
}

TEST(Arrivals, DeterministicAndCellStable) {
  Trace a(1, 2, 2);
  a.set(0, 0, 0, 5);
  a.set(0, 1, 1, 3);
  Trace b = a;
  b.set(0, 1, 1, 7);  // a different cell changes
  const auto xa = slot_arrivals(a, 0, 6.0, 7);
  const auto xa2 = slot_arrivals(a, 0, 6.0, 7);
  EXPECT_EQ(xa, xa2);
  // Offsets of the untouched (app 0, device 0) cell are unaffected by the
  // change in the other cell: per-cell forked streams.
  const auto xb = slot_arrivals(b, 0, 6.0, 7);
  std::vector<double> cell_a;
  std::vector<double> cell_b;
  for (const auto& r : xa) {
    if (r.app == 0 && r.device == 0) cell_a.push_back(r.offset_s);
  }
  for (const auto& r : xb) {
    if (r.app == 0 && r.device == 0) cell_b.push_back(r.offset_s);
  }
  EXPECT_EQ(cell_a, cell_b);
  // And a different seed moves the offsets.
  const auto xc = slot_arrivals(a, 0, 6.0, 8);
  EXPECT_NE(xa, xc);
}

TEST(Arrivals, CsvRoundTrip) {
  Trace trace(2, 2, 2);
  trace.set(0, 0, 0, 3);
  trace.set(1, 1, 1, 4);
  const auto arrivals = expand_arrivals(trace, 6.0, 0x51beef);
  std::ostringstream out;
  write_arrivals_csv(out, arrivals);
  const auto parsed = read_arrivals_csv(out.str());
  EXPECT_EQ(parsed, arrivals);  // bit-exact offsets via round-trip doubles
}

TEST(Arrivals, ReadCsvRejectsMalformedNumbers) {
  const std::string header = "slot,app,device,seq,offset_s\n";
  const auto good = read_arrivals_csv(header + "0,1,2,3,0.25\n");
  ASSERT_EQ(good.size(), 1U);
  EXPECT_EQ(good[0].seq, 3);
  EXPECT_DOUBLE_EQ(good[0].offset_s, 0.25);
  for (const char* row :
       {"0,1,2,3x,0.25", "0,1,2.5,3,0.25", "0,1,2,3,0.25s", "0,1,2,3,nan",
        "0,1,2,3,inf", "0,1,2,3,", "0,1,99999999999,3,0.25"}) {
    EXPECT_THROW((void)read_arrivals_csv(header + row + "\n"),
                 std::logic_error)
        << row;
  }
}

// ------------------------------------------------------------- topology ----

TEST(Topology, DeterministicInConfig) {
  TopologyConfig config;
  config.edges = 40;
  const auto a = generate_topology(config);
  const auto b = generate_topology(config);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.link_mbps.raw(), b.link_mbps.raw());  // bit-identical

  TopologyConfig other = config;
  other.seed = config.seed + 1;
  const auto c = generate_topology(other);
  EXPECT_NE(a.link_mbps.raw(), c.link_mbps.raw());
}

TEST(Topology, GenerateDigestIsPinned) {
  // Device cycle, preferential-attachment links and the jittered link
  // bandwidths of the default config at 40 edges.
  TopologyConfig config;
  config.edges = 40;
  const auto topology = generate_topology(config);
  testutil::Fnv1a digest;
  for (const auto& device : topology.devices) {
    digest.value(device.id);
    digest.value(static_cast<int>(device.type));
    digest.value(device.bandwidth_mbps);
  }
  digest.range(topology.link_mbps.raw());
  EXPECT_EQ(digest.get(), 0x458c556dcb143aefULL) << std::hex << digest.get();
}

TEST(Topology, ConnectedAndSymmetric) {
  TopologyConfig config;
  config.edges = 60;
  const auto topology = generate_topology(config);
  EXPECT_EQ(topology.num_edges(), 60);
  EXPECT_GE(topology.num_links(), topology.num_edges() - 1);
  // Symmetry + zero diagonal.
  for (int a = 0; a < topology.num_edges(); ++a) {
    EXPECT_DOUBLE_EQ(topology.link_mbps(a, a), 0.0);
    for (int b = 0; b < topology.num_edges(); ++b) {
      EXPECT_DOUBLE_EQ(topology.link_mbps(a, b), topology.link_mbps(b, a));
    }
  }
  // Preferential attachment keeps the graph connected: BFS from node 0.
  std::vector<char> seen(static_cast<std::size_t>(topology.num_edges()), 0);
  std::vector<int> frontier{0};
  seen[0] = 1;
  while (!frontier.empty()) {
    const int v = frontier.back();
    frontier.pop_back();
    for (int u = 0; u < topology.num_edges(); ++u) {
      if (!seen[static_cast<std::size_t>(u)] &&
          topology.link_mbps(v, u) > 0.0) {
        seen[static_cast<std::size_t>(u)] = 1;
        frontier.push_back(u);
      }
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](char s) { return s != 0; }));
}

TEST(Topology, ScaleFreeHubsEmerge) {
  // Preferential attachment should concentrate degree: the best-connected
  // node ends well above the mean degree.
  TopologyConfig config;
  config.edges = 120;
  const auto topology = generate_topology(config);
  std::vector<int> degree(static_cast<std::size_t>(topology.num_edges()), 0);
  for (int a = 0; a < topology.num_edges(); ++a) {
    for (int b = 0; b < topology.num_edges(); ++b) {
      if (topology.link_mbps(a, b) > 0.0) ++degree[static_cast<std::size_t>(a)];
    }
  }
  const double mean =
      2.0 * topology.num_links() / static_cast<double>(topology.num_edges());
  const int hub = *std::max_element(degree.begin(), degree.end());
  EXPECT_GT(static_cast<double>(hub), 3.0 * mean);
}

TEST(Topology, CsvRoundTripIsExact) {
  TopologyConfig config;
  config.edges = 25;
  const auto topology = generate_topology(config);
  std::ostringstream out;
  topology.write_csv(out);
  const auto parsed = Topology::read_csv(out.str());
  ASSERT_EQ(parsed.num_edges(), topology.num_edges());
  for (int k = 0; k < topology.num_edges(); ++k) {
    const auto& a = topology.devices[static_cast<std::size_t>(k)];
    const auto& b = parsed.devices[static_cast<std::size_t>(k)];
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.name, b.name);
    EXPECT_DOUBLE_EQ(a.memory_mb, b.memory_mb);
    EXPECT_DOUBLE_EQ(a.bandwidth_mbps, b.bandwidth_mbps);
    EXPECT_DOUBLE_EQ(a.accel_speed, b.accel_speed);
  }
  EXPECT_EQ(parsed.link_mbps.raw(), topology.link_mbps.raw());
}

TEST(Topology, ReadCsvRejectsMalformedNumbers) {
  const std::string devices =
      "kind,a,b,value\n"
      "device,0,0,nx-0\n"
      "device,1,1,nano-1\n";
  const auto good = Topology::read_csv(devices + "link,0,1,40.5\n");
  EXPECT_DOUBLE_EQ(good.link_mbps(1, 0), 40.5);
  // A fractional endpoint used to truncate to edge 0 and a huge one
  // overflowed the int cast; both are malformed integers now.
  for (const char* row :
       {"link,0.7,1,40.5", "link,1e30,1,40.5", "link,0,1x,40.5",
        "link,0,1,40.5mbps", "link,0,1,inf", "device,2x,2,atlas-2"}) {
    EXPECT_THROW((void)Topology::read_csv(devices + row + "\n"),
                 std::logic_error)
        << row;
  }
}

TEST(Topology, MakeClusterMatchesConfigDimensions) {
  TopologyConfig config;
  config.edges = 12;
  config.apps = 4;
  config.variants_per_app = 3;
  const auto topology = generate_topology(config);
  const auto cluster = make_cluster(topology, config);
  EXPECT_EQ(cluster.num_devices(), 12);
  EXPECT_EQ(cluster.num_apps(), 4);
  EXPECT_EQ(cluster.zoo().max_variants(), 3);
  // Device profiles carry through unchanged.
  for (int k = 0; k < cluster.num_devices(); ++k) {
    EXPECT_EQ(cluster.device(k).name,
              topology.devices[static_cast<std::size_t>(k)].name);
  }
}

}  // namespace
}  // namespace birp::workload
