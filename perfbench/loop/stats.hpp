// Arithmetic the loop benchmark reports with: order statistics over wall-time
// samples, per-slot serve self time, scaling to the reference speed, and the
// decision-stream digest. Kept
// header-only and dependency-free so tests/stats_test.cpp can check it on
// synthetic inputs without building the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {

/// q-quantile (q in [0, 1]) by linear interpolation between the closest
/// ranks: position q * (n - 1) in the sorted sample (NumPy's default, R's
/// type 7). Throws on an empty sample or q outside [0, 1].
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of empty sample");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("q outside [0, 1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double sum(std::span<const double> values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

/// Samples strictly above the q-quantile: how many samples support a tail
/// percentile (ten or more make it meaningful).
inline std::size_t count_beyond(const std::vector<double>& values, double q) {
  const double cut = quantile(values, q);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

/// Slot by slot, the fastest of several repetitions of the same slots.
/// Every episode of a run repeats bit-identical work slot for slot (the
/// decision digest checks it), and noise from other tenants of the machine
/// only ever adds time, so a slot's fastest repetition is the best estimate
/// of what the slot costs. Throws if the repetitions differ in length.
inline std::vector<double> fastest(
    const std::vector<std::vector<double>>& repetitions) {
  if (repetitions.empty()) return {};
  std::vector<double> best = repetitions.front();
  for (const auto& rep : repetitions) {
    if (rep.size() != best.size()) {
      throw std::invalid_argument("repetitions differ in length");
    }
    for (std::size_t t = 0; t < rep.size(); ++t) {
      best[t] = std::min(best[t], rep[t]);
    }
  }
  return best;
}

/// Serve self time of one slot: the step's wall time minus the spans nested
/// inside it (scheduler decide, scheduler observe, probe bookkeeping). The
/// children run sequentially inside the step, so they never overlap; clock
/// granularity can make the remainder a hair negative, which clamps to 0.
inline double self_time(double step, double decide, double observe,
                        double probe) {
  return std::max(0.0, step - decide - observe - probe);
}

/// The factor that turns wall times measured alongside `unit_ms` (times of
/// one fixed unit of reference work) into times at the machine speed where
/// one unit takes `reference_ms`. Throws on an empty sample.
inline double speed_scale(const std::vector<double>& unit_ms,
                          double reference_ms) {
  return reference_ms / median(unit_ms);
}

inline void scale(std::vector<double>& values, double factor) {
  for (double& v : values) v *= factor;
}

/// Share (percent) of `whole` covered by `part`; 0 when `whole` is 0.
inline double share_pct(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

/// Relative change (percent) of `value` against `base`.
inline double change_pct(double value, double base) {
  return base > 0.0 ? 100.0 * (value / base - 1.0) : 0.0;
}

/// max / mean of per-part work (1 = perfectly even); 0 when nothing ran.
inline double skew(std::span<const double> parts) {
  if (parts.empty()) return 0.0;
  const double mean = sum(parts) / static_cast<double>(parts.size());
  if (mean <= 0.0) return 0.0;
  return *std::max_element(parts.begin(), parts.end()) / mean;
}

/// 64-bit FNV-1a over raw bytes: the decision-stream digest.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      state_ ^= p[i];
      state_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(T));
  }
  template <typename T>
  void range(const std::vector<T>& v) {
    value(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  [[nodiscard]] std::uint64_t get() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
