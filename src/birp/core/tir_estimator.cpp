#include "birp/core/tir_estimator.hpp"

#include <algorithm>

#include "birp/util/check.hpp"

namespace birp::core {
namespace {

/// Conservative initialization (paper Eq. 23).
constexpr double kInitialEta = 0.1;
constexpr int kInitialBeta = 16;

}  // namespace

TirEstimator::TirEstimator(const TirEstimatorConfig& config)
    : config_(config),
      eta_bar_(kInitialEta),
      beta_bar_(static_cast<double>(kInitialBeta)),
      c_bar_(std::pow(static_cast<double>(kInitialBeta), kInitialEta)) {
  util::check(config.epsilon1 > 0.0 && config.epsilon2 > 0.0,
              "TirEstimator: epsilons must be positive");
}

void TirEstimator::update(double observed_tir, int batch, int t) {
  util::check(batch >= 1, "TirEstimator: batch must be >= 1");
  util::check(observed_tir > 0.0, "TirEstimator: TIR must be positive");
  (void)t;

  if (observed_tir >= (1.0 + config_.epsilon1) * c_bar_) {
    // Beyond the believed threshold (Eq. 15): unbiased running means toward
    // the observation (Eq. 16), counted in n2 (Eq. 18).
    const double n2 = static_cast<double>(n2_) + 1.0;
    beta_bar_ += (static_cast<double>(batch) - beta_bar_) / n2;
    c_bar_ += (observed_tir - c_bar_) / n2;
    ++n2_;
  } else {
    // Within the threshold: refresh the exponent (Eq. 19/21, defined for
    // b > 1; a batch of one carries no slope information), counted in n1.
    if (batch > 1) {
      const double eta_hat =
          std::log(observed_tir) / std::log(static_cast<double>(batch));
      const double n1 = static_cast<double>(n1_) + 1.0;
      eta_bar_ += (eta_hat - eta_bar_) / n1;
    }
    ++n1_;
  }
}

device::TirParams TirEstimator::lower_confidence(int t) const {
  const int eta_n = config_.paper_eq22_uses_n2 ? n2_ : n1_;
  device::TirParams params;
  params.eta = std::max(0.01, eta_bar_ * (1.0 - padding(t, eta_n)));
  params.beta = std::max(
      1, static_cast<int>(std::ceil(beta_bar_ * (1.0 - padding(t, n2_)))));
  const double c_lcb = c_bar_ * (1.0 - padding(t, n2_));
  params.c = std::max(1.0, c_lcb);
  return params;
}

device::TirParams TirEstimator::mean_estimate() const {
  device::TirParams params;
  params.eta = eta_bar_;
  params.beta = std::max(1, static_cast<int>(std::lround(beta_bar_)));
  params.c = c_bar_;
  return params;
}

}  // namespace birp::core
