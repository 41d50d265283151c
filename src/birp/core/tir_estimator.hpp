// Online TIR hyperparameter tuner (paper §4.2).
//
// One estimator per (edge, application, model-variant). It maintains
// historical estimates of the three TIR curve hyperparameters
// (eta, beta, C of Eq. 2) and refreshes them from per-batch observations:
//
//   * when the observed TIR exceeds (1 + eps1) * C_bar the batch evidently
//     ran beyond the believed saturation threshold, so beta_bar and C_bar
//     move toward the observation (Eq. 15/16) and n2 increments (Eq. 18);
//   * otherwise the growth exponent is refreshed from
//     eta_hat = ln(TIR_hat) / ln(b) (Eq. 19/21) and n1 increments (Eq. 20).
//
// The values handed to the optimizer are lower confidence bounds
// (Eq. 17/22): estimate * (1 - sqrt(eps2 * ln(t+1) / (n+1))), which keeps
// the computed constraints conservative while the shrinking padding
// re-opens exploration after workload drift — the MAB element of BIRP.
#pragma once

#include <cmath>

#include "birp/device/tir.hpp"

namespace birp::core {

struct TirEstimatorConfig {
  /// Tolerated relative TIR overshoot before the threshold moves (eps1).
  double epsilon1 = 0.04;
  /// Confidence-interval width scale (eps2).
  double epsilon2 = 0.07;
  /// When true, the eta LCB padding uses n2 exactly as printed in Eq. 22;
  /// when false (default) it uses n1, the count that actually grows with
  /// eta observations (we read the printed n2 as a typo; see DESIGN.md).
  bool paper_eq22_uses_n2 = false;
};

class TirEstimator {
 public:
  explicit TirEstimator(const TirEstimatorConfig& config = {});

  /// Consumes one observation: a batch of size `batch` measured at
  /// `observed_tir`, during slot `t` (0-based).
  void update(double observed_tir, int batch, int t);

  /// LCB parameters for slot `t`'s optimization (Eq. 17/22 applied to the
  /// current historical estimates). c is kept continuity-consistent for
  /// reporting; the optimizer itself only consumes eta and beta.
  [[nodiscard]] device::TirParams lower_confidence(int t) const;

  /// Raw historical means (no padding); used for diagnostics and tests.
  [[nodiscard]] device::TirParams mean_estimate() const;

  [[nodiscard]] int within_count() const noexcept { return n1_; }
  [[nodiscard]] int beyond_count() const noexcept { return n2_; }

 private:
  [[nodiscard]] double padding(int t, int n) const {
    // No padding before the first observation: the Eq. 23 initialization is
    // already conservative, and letting sqrt(eps2 ln(t+1)) grow on
    // never-scheduled arms would make them ever less attractive — a
    // cold-start trap where good model versions are never explored.
    // Clamped so small n with large ln(t+1) cannot push the LCB negative.
    if (n == 0) return 0.0;
    return std::min(0.9, std::sqrt(config_.epsilon2 * std::log(static_cast<double>(t) + 1.0) /
                                   (static_cast<double>(n) + 1.0)));
  }

  TirEstimatorConfig config_;
  double eta_bar_;
  double beta_bar_;
  double c_bar_;
  int n1_ = 0;
  int n2_ = 0;
};

}  // namespace birp::core
