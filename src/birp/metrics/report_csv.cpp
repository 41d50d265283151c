#include "birp/metrics/report_csv.hpp"

#include <ostream>

#include "birp/util/check.hpp"
#include "birp/util/csv.hpp"

namespace birp::metrics {
namespace {

std::vector<std::string> header_row(const std::vector<NamedRun>& runs,
                                    const std::string& x_name) {
  util::check(!runs.empty(), "csv export: no runs");
  std::vector<std::string> header{x_name};
  for (const auto& run : runs) {
    util::check(run.metrics != nullptr, "csv export: null metrics");
    header.push_back(run.name);
  }
  return header;
}

}  // namespace

void write_cdf_csv(std::ostream& out, const std::vector<NamedRun>& runs,
                   double max_tau, int points) {
  util::check(points >= 2, "csv export: need >= 2 points");
  util::CsvWriter writer(out);
  writer.row(header_row(runs, "tau"));
  for (int p = 0; p < points; ++p) {
    const double x =
        max_tau * static_cast<double>(p) / static_cast<double>(points - 1);
    std::vector<std::string> row{util::format_double(x)};
    for (const auto& run : runs) {
      row.push_back(util::format_double(run.metrics->completion().cdf(x)));
    }
    writer.row(row);
  }
}

void write_slot_loss_csv(std::ostream& out, const std::vector<NamedRun>& runs) {
  util::CsvWriter writer(out);
  writer.row(header_row(runs, "slot"));
  const auto slots = runs.front().metrics->slot_loss().size();
  for (const auto& run : runs) {
    util::check(run.metrics->slot_loss().size() == slots,
                "csv export: runs have different horizons");
  }
  for (std::size_t t = 0; t < slots; ++t) {
    std::vector<std::string> row{std::to_string(t)};
    for (const auto& run : runs) {
      row.push_back(util::format_double(run.metrics->slot_loss()[t]));
    }
    writer.row(row);
  }
}

void write_cumulative_loss_csv(std::ostream& out,
                               const std::vector<NamedRun>& runs) {
  util::CsvWriter writer(out);
  writer.row(header_row(runs, "slot"));
  std::vector<std::vector<double>> series;
  series.reserve(runs.size());
  for (const auto& run : runs) series.push_back(run.metrics->cumulative_loss());
  const auto slots = series.front().size();
  for (const auto& s : series) {
    util::check(s.size() == slots, "csv export: runs have different horizons");
  }
  for (std::size_t t = 0; t < slots; ++t) {
    std::vector<std::string> row{std::to_string(t)};
    for (const auto& s : series) row.push_back(util::format_double(s[t]));
    writer.row(row);
  }
}

void write_summary_csv(std::ostream& out, const std::vector<NamedRun>& runs) {
  util::check(!runs.empty(), "csv export: no runs");
  util::CsvWriter writer(out);
  writer.row({"algorithm", "total_loss", "failure_percent", "dropped",
              "mean_busy", "median_tau", "p95_tau", "solver_fallbacks"});
  for (const auto& run : runs) {
    const auto& m = *run.metrics;
    const bool sampled = m.completion().count() > 0;
    writer.row({run.name, util::format_double(m.total_loss()),
                util::format_double(m.failure_percent()),
                std::to_string(m.dropped()),
                util::format_double(m.edge_busy().mean()),
                sampled ? util::format_double(m.completion().quantile(0.5))
                        : "",
                sampled ? util::format_double(m.completion().quantile(0.95))
                        : "",
                std::to_string(m.solver_fallbacks())});
  }
}

void write_latency_csv(std::ostream& out, const std::vector<NamedRun>& runs) {
  util::check(!runs.empty(), "csv export: no runs");
  util::CsvWriter writer(out);
  writer.row({"algorithm", "p50_tau", "p95_tau", "p99_tau",
              "slo_attainment_percent", "dropped", "queue_dropped",
              "deadline_shed", "breaker_trips", "degraded_slots",
              "mean_queue_depth", "max_queue_depth"});
  for (const auto& run : runs) {
    util::check(run.metrics != nullptr, "csv export: null metrics");
    const auto& m = *run.metrics;
    const bool depth_sampled = m.queue_depth().count() > 0;
    // The first call sorts the samples; the next two read them in place.
    writer.row({run.name, util::format_double(m.latency_quantile(0.5)),
                util::format_double(m.latency_quantile(0.95)),
                util::format_double(m.latency_quantile(0.99)),
                util::format_double(m.slo_attainment_percent()),
                std::to_string(m.dropped()),
                std::to_string(m.queue_dropped()),
                std::to_string(m.deadline_shed()),
                std::to_string(m.breaker_trips()),
                std::to_string(m.degraded_slots()),
                depth_sampled ? util::format_double(m.queue_depth().mean()) : "",
                depth_sampled ? util::format_double(m.queue_depth().max())
                              : ""});
  }
}

}  // namespace birp::metrics
