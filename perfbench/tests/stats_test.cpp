// Checks the benchmark's own arithmetic on synthetic inputs whose answers are
// known by hand. Exits non-zero on the first failure; run.py runs it after
// every build, before any measurement.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-12 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

void expect_true(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s\n", what);
    ++failures;
  }
}

template <typename Fn>
void expect_throws(Fn&& fn, const char* what) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return;
  }
  std::fprintf(stderr, "FAIL %s: no exception\n", what);
  ++failures;
}

void quantiles() {
  using perfbench::quantile;
  // 1..100 shuffled: position q * 99 in the sorted sample.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect_near(quantile(v, 0.0), 1.0, "q0 is the minimum");
  expect_near(quantile(v, 1.0), 100.0, "q1 is the maximum");
  expect_near(quantile(v, 0.5), 50.5, "median of 1..100");
  expect_near(quantile(v, 0.95), 95.05, "p95 of 1..100 interpolates");
  expect_near(quantile(v, 0.99), 99.01, "p99 of 1..100 interpolates");
  expect_near(perfbench::median({3.0, 1.0, 2.0}), 2.0, "odd median");
  expect_near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5, "even median");
  expect_near(quantile({7.0}, 0.95), 7.0, "single sample");
  expect_near(quantile({1.0, 1.0, 1.0, 9.0}, 0.5), 1.0, "ties");
  expect_throws([] { (void)quantile({}, 0.5); }, "empty sample throws");
  expect_throws([] { (void)quantile({1.0}, 1.5); }, "q > 1 throws");
  // 200 slots: exactly ten lie beyond p95 when the samples are distinct.
  std::vector<double> slots;
  for (int i = 0; i < 200; ++i) slots.push_back(i * 0.5);
  expect_true(perfbench::count_beyond(slots, 0.95) == 10,
              "200 samples leave 10 beyond p95");
}

void fastest_repetitions() {
  const auto best = perfbench::fastest({{3.0, 9.0, 4.0}, {5.0, 2.0, 4.5}, {4.0, 8.0, 1.0}});
  expect_true(best == std::vector<double>({3.0, 2.0, 1.0}), "per-slot minimum");
  expect_true(perfbench::fastest({}).empty(), "no repetitions");
  expect_throws([] { (void)perfbench::fastest({{1.0}, {1.0, 2.0}}); },
                "ragged repetitions throw");
}

void self_times() {
  using perfbench::self_time;
  expect_near(self_time(10.0, 6.0, 1.0, 0.5), 2.5, "self = step - children");
  expect_near(self_time(10.0, 0.0, 0.0, 0.0), 10.0, "no children");
  expect_near(self_time(5.0, 5.0, 0.0001, 0.0), 0.0, "clock jitter clamps to 0");
  // Coverage of a synthetic slot stream: decide + observe + self = wall.
  const std::vector<double> step{10.0, 20.0, 30.0};
  const std::vector<double> decide{8.0, 15.0, 3.0};
  const std::vector<double> observe{0.5, 1.0, 2.0};
  double covered = 0.0;
  for (std::size_t t = 0; t < step.size(); ++t) {
    covered += decide[t] + observe[t] + self_time(step[t], decide[t], observe[t], 0.0);
  }
  expect_near(perfbench::share_pct(covered, perfbench::sum(step)), 100.0,
              "layers cover the slot wall");
  expect_near(perfbench::share_pct(26.0, 60.0), 100.0 * 26.0 / 60.0, "share");
  expect_near(perfbench::share_pct(1.0, 0.0), 0.0, "share of nothing");
  expect_near(perfbench::change_pct(10.5, 10.0), 5.0, "overhead 5%");
}

void speed_scales() {
  // Units took twice the reference time: the machine ran at half speed.
  expect_near(perfbench::speed_scale({0.5, 0.4, 0.4}, 0.2), 0.5, "half speed");
  expect_near(perfbench::speed_scale({0.1, 9.0, 0.2}, 0.2), 1.0,
              "one outlier unit does not move the scale");
  std::vector<double> times{10.0, 30.0};
  perfbench::scale(times, 0.5);
  expect_true(times == std::vector<double>({5.0, 15.0}), "times scaled");
  expect_throws([] { (void)perfbench::speed_scale({}, 0.2); }, "no units throws");
}

void skews_and_digests() {
  expect_near(perfbench::skew(std::vector<double>{1.0, 1.0, 4.0}), 2.0, "max/mean");
  expect_near(perfbench::skew(std::vector<double>{}), 0.0, "no cells");
  expect_near(perfbench::skew(std::vector<double>{0.0, 0.0}), 0.0, "idle cells");
  // FNV-1a 64 reference values.
  perfbench::Digest empty;
  expect_true(empty.get() == 0xcbf29ce484222325ULL, "FNV offset basis");
  perfbench::Digest a;
  a.bytes("a", 1);
  expect_true(a.get() == 0xaf63dc4c8601ec8cULL, "FNV-1a of \"a\"");
  perfbench::Digest x, y;
  x.range(std::vector<int>{1, 2});
  y.range(std::vector<int>{2, 1});
  expect_true(x.get() != y.get(), "digest is order-sensitive");
}

}  // namespace

int main() {
  quantiles();
  fastest_repetitions();
  self_times();
  speed_scales();
  skews_and_digests();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::puts("loopbench_selftest: all checks passed");
  return EXIT_SUCCESS;
}
