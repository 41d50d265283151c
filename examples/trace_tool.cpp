// Trace tooling: generate, save, load, and summarize workload traces.
// Demonstrates the CSV round-trip used to pin experiment inputs to disk so
// runs are reproducible across machines and library versions.
//
//   ./examples/trace_tool generate <out.csv> [slots] [target]
//   ./examples/trace_tool stats <trace.csv>
//   ./examples/trace_tool requests <trace.csv> [out.csv] [tau] [seed]
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "birp/device/cluster.hpp"
#include "birp/util/stats.hpp"
#include "birp/util/table.hpp"
#include "birp/workload/arrivals.hpp"
#include "birp/workload/generator.hpp"
#include "birp/workload/trace.hpp"

namespace {

int generate(const std::string& path, int slots, double target) {
  const auto cluster = birp::device::ClusterSpec::paper_large();
  birp::workload::GeneratorConfig config;
  config.slots = slots;
  config.mean_per_edge =
      birp::workload::suggested_mean_per_edge(cluster, target);
  const auto trace = birp::workload::generate(cluster, config);

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  trace.write_csv(out);
  std::cout << "wrote " << trace.total() << " requests over " << slots
            << " slots to " << path << "\n";
  return 0;
}

int stats(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto trace = birp::workload::Trace::read_csv(buffer.str());

  birp::util::TextTable shape({"property", "value"});
  shape.add_row({"slots", std::to_string(trace.slots())});
  shape.add_row({"applications", std::to_string(trace.apps())});
  shape.add_row({"edges", std::to_string(trace.devices())});
  shape.add_row({"total requests", std::to_string(trace.total())});
  shape.print(std::cout, "trace " + path);

  // Per-edge intensity and burstiness.
  birp::util::TextTable edges({"edge", "mean/slot", "max/slot", "cv"});
  for (int k = 0; k < trace.devices(); ++k) {
    birp::util::RunningStats stats;
    for (int t = 0; t < trace.slots(); ++t) {
      std::int64_t total = 0;
      for (int i = 0; i < trace.apps(); ++i) total += trace.at(t, i, k);
      stats.add(static_cast<double>(total));
    }
    edges.add_row({std::to_string(k), birp::util::fixed(stats.mean(), 1),
                   birp::util::fixed(stats.max(), 0),
                   birp::util::fixed(stats.stddev() / stats.mean(), 3)});
  }
  edges.print(std::cout, "per-edge load");
  return 0;
}

// Expands a slot trace into the per-request arrival stream the serving
// runtime (birp/serve) replays, and dumps it as CSV — the deterministic
// inverse of the slot aggregation. Rows are cell-major within each slot:
// one run per (app, device) cell, offsets ascending within a run. Writes to
// stdout when no output path is given.
int requests(const std::string& path, const std::string& out_path, double tau,
             std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto trace = birp::workload::Trace::read_csv(buffer.str());
  const auto arrivals = birp::workload::expand_arrivals(trace, tau, seed);

  if (out_path.empty()) {
    birp::workload::write_arrivals_csv(std::cout, arrivals);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  birp::workload::write_arrivals_csv(out, arrivals);
  std::cout << "wrote " << arrivals.size() << " request arrivals ("
            << trace.slots() << " slots, tau " << tau << "s, seed " << seed
            << ") to " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "generate") {
    const int slots = argc > 3 ? std::atoi(argv[3]) : 300;
    const double target = argc > 4 ? std::atof(argv[4]) : 0.7;
    return generate(argv[2], slots, target);
  }
  if (argc >= 3 && std::string(argv[1]) == "stats") {
    return stats(argv[2]);
  }
  if (argc >= 3 && std::string(argv[1]) == "requests") {
    const std::string out_path = argc > 3 ? argv[3] : "";
    const double tau = argc > 4 ? std::atof(argv[4]) : 6.0;
    const std::uint64_t seed =
        argc > 5 ? std::strtoull(argv[5], nullptr, 0) : 0x51beef;
    return requests(argv[2], out_path, tau, seed);
  }
  std::cerr << "usage:\n  trace_tool generate <out.csv> [slots] [target]\n"
               "  trace_tool stats <trace.csv>\n"
               "  trace_tool requests <trace.csv> [out.csv] [tau] [seed]\n";
  return 2;
}
