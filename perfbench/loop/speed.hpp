// Machine-speed reference for wall-time metrics. The benchmark runs on
// shared machines whose speed drifts by up to 1.5x over seconds to minutes
// (other tenants compete for the same cores and caches). After every slot
// the loop times a fixed unit of reference work that owes nothing to the
// code under test, and an episode's wall times are scaled by
// kReferenceUnitMs / (the episode's median unit time): they are reported as
// the milliseconds they would have taken at the reference speed. A slow
// spell of the machine slows the program and the reference unit alike and
// cancels out; a change that slows the program moves every scaled time.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// What one reference unit takes on the 4-core x86 VM the benchmark was
/// tuned on, in milliseconds. Scaled times are ms at that speed.
constexpr double kReferenceUnitMs = 0.2;

/// Units behind a stand-alone speed estimate (extra set-ups, replays).
constexpr int kUnitsPerEstimate = 25;

/// One unit of reference work. It mixes the kinds of work the slot loop
/// does: dense floating-point elimination with partial pivoting, a sort, and
/// hash-map inserts and lookups, on a few tens of KiB built from a fixed
/// seed, so every unit does the same work.
inline double reference_work() {
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state >> 33);
  };
  double acc = 0.0;

  constexpr int n = 40;
  std::vector<double> a(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = static_cast<double>(next() % 1000) / 37.0 + 1.0;
  const auto at = [&a](int i, int j) -> double& {
    return a[static_cast<std::size_t>(i * n + j)];
  };
  for (int k = 0; k < n; ++k) {
    int pivot = k;
    for (int i = k + 1; i < n; ++i) {
      if (std::fabs(at(i, k)) > std::fabs(at(pivot, k))) pivot = i;
    }
    if (pivot != k) {
      for (int j = 0; j < n; ++j) std::swap(at(k, j), at(pivot, j));
    }
    for (int i = k + 1; i < n; ++i) {
      const double f = at(i, k) / at(k, k);
      for (int j = k; j < n; ++j) at(i, j) -= f * at(k, j);
    }
  }
  acc += at(n - 1, n - 1);

  std::vector<std::uint32_t> keys(2048);
  for (auto& k : keys) k = next();
  std::sort(keys.begin(), keys.end());
  acc += keys[100];

  std::unordered_map<std::uint32_t, int> map;
  for (int i = 0; i < 1024; ++i) map[next() % 3000] += i;
  for (int i = 0; i < 1024; ++i) {
    const auto it = map.find(next() % 3000);
    if (it != map.end()) acc += it->second;
  }
  return acc;
}

/// Keeps the reference work's result observable, so it is not optimised out.
inline volatile double reference_sink = 0.0;

/// Wall time (ms) of one reference unit. An untimed unit runs first, so the
/// timed one finds its memory in cache whatever the slot before it touched:
/// the figure follows the machine's speed, not the program's footprint.
inline double reference_unit_ms() {
  reference_sink = reference_work();
  const auto start = std::chrono::steady_clock::now();
  reference_sink = reference_work();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The speed scale of this moment, from kUnitsPerEstimate units.
inline double measure_speed_scale() {
  std::vector<double> unit_ms;
  for (int u = 0; u < kUnitsPerEstimate; ++u) {
    unit_ms.push_back(reference_unit_ms());
  }
  return speed_scale(unit_ms, kReferenceUnitMs);
}

}  // namespace perfbench
