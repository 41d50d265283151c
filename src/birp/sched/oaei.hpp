// OAEI baseline: the state-of-the-art model-selection-based inference
// workload redistribution algorithm of Jin et al. [19] ("Provisioning Edge
// Inference as a Service via Online Learning", SECON 2020), as the paper
// compares against.
//
// Characteristics reproduced here:
//   * serial execution — every request runs as its own batch-1 launch, so
//     no TIR speedup is available (the core difference from BIRP);
//   * model-version selection per (app, edge) balancing loss vs latency;
//   * fractional relaxation + randomized rounding of the deployment
//     variables, then a second solve with deployments fixed. The relaxation
//     is BIRP's slot problem (core::build_from_terms) under serial terms:
//     kernel cap 1, serve cap the app's cluster-wide demand, compute gamma
//     per request with no fixed charge, every deployment usable. Its LP
//     differs from BIRP's relaxation in those terms only;
//   * online learning of effective edge capacity: an EWMA factor per edge
//     corrects the believed serial latencies from observed busy time.
#pragma once

#include <string>
#include <vector>

#include "birp/device/cluster.hpp"
#include "birp/sim/scheduler.hpp"
#include "birp/util/rng.hpp"

namespace birp::sched {

class OaeiScheduler : public sim::Scheduler {
 public:
  explicit OaeiScheduler(const device::ClusterSpec& cluster);

  [[nodiscard]] std::string name() const override { return "OAEI"; }

  [[nodiscard]] sim::SlotDecision decide(const sim::SlotState& state) override;
  void observe(const sim::SlotFeedback& feedback) override;

  /// Learned capacity-correction factor of edge k (1 = latencies trusted).
  [[nodiscard]] double capacity_factor(int k) const;

 private:
  const device::ClusterSpec& cluster_;
  util::Xoshiro256StarStar rng_;
  std::vector<double> capacity_factor_;
  /// Predicted busy seconds per edge for the decision just issued (the
  /// learning signal's denominator).
  std::vector<double> predicted_busy_s_;
};

}  // namespace birp::sched
