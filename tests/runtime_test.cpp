// Tests for the runtime thread pool: the claimed fork-join, its
// spin-then-park wakeup, and calls that find the pool's one job busy.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "birp/runtime/thread_pool.hpp"
#include "birp/util/alloc_count.hpp"

namespace birp::runtime {
namespace {

std::vector<int> iota_order(int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

/// Holds `pool`'s job busy: a second thread forks one position per worker
/// plus its own, and every position waits inside fn until release().
class WorkerBlocker {
 public:
  explicit WorkerBlocker(ThreadPool& pool)
      : positions_(static_cast<int>(pool.size()) + 1) {
    thread_ = std::thread([this, &pool] {
      pool.run_claimed(iota_order(positions_), [this](int) {
        inside_.fetch_add(1);
        gate_.wait();
      });
    });
    while (inside_.load() < positions_) std::this_thread::yield();
  }
  ~WorkerBlocker() { release(); }

  void release() {
    if (!thread_.joinable()) return;
    gate_.count_down();
    thread_.join();
  }

 private:
  int positions_;
  std::latch gate_{1};
  std::atomic<int> inside_{0};
  std::thread thread_;
};

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::vector<int> results(8, 0);
  pool.run_claimed(iota_order(8), [&results](int index) {
    results[static_cast<std::size_t>(index)] = 21 * 2;
  });
  EXPECT_EQ(results, std::vector<int>(8, 42));
}

TEST(ThreadPool, ForwardsArguments) {
  // fn receives order[n], not the position n.
  ThreadPool pool(2);
  const std::vector<int> order{19, 23};
  std::atomic<int> sum{0};
  pool.run_claimed(order, [&sum](int value) { sum += value; });
  EXPECT_EQ(sum.load(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_claimed(iota_order(8),
                                [](int index) {
                                  if (index == 5) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPool, RunsManyTasksOnAllWorkers) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.run_claimed(iota_order(1000), [&counter](int) {
    counter.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, WaitIdleBlocksUntilDrained) {
  // The fork returns only once every position has finished.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.run_claimed(iota_order(16), [&done](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  // Each pool goes right after a fork, while its workers may still be
  // leaving the job or spinning: the destructor stops and joins them.
  std::atomic<int> done{0};
  for (int round = 0; round < 8; ++round) {
    ThreadPool pool(2);
    pool.run_claimed(iota_order(4), [&done](int) { done.fetch_add(1); });
  }
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ActuallyParallel) {
  // Two sleeping positions, one on the caller and one on a worker, should
  // overlap.
  ThreadPool pool(2);
  const auto start = std::chrono::steady_clock::now();
  pool.run_claimed(iota_order(2), [](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  });
  const auto elapsed = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, 110.0);
}

TEST(ThreadPool, EnqueueFromInsideWorkerDoesNotDeadlock) {
  // A fork from inside fn, on the caller and on the one worker, finds the
  // job busy and runs every position on its own thread.
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.run_claimed(iota_order(2), [&](int) {
    pool.run_claimed(iota_order(10), [&sum](int index) { sum += index; });
  });
  EXPECT_EQ(sum.load(), 90);
}

// ------------------------------------------------------ claimed fork-join ----

TEST(ThreadPoolClaimed, RunsEveryIndexExactlyOnce) {
  // n = 0, n < size() and n >> size(), over a permuted order.
  ThreadPool pool(4);
  for (const int n : {0, 1, 3, 500}) {
    std::vector<int> order = iota_order(n);
    std::reverse(order.begin(), order.end());
    std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
    pool.run_claimed(order, [&runs](int index) {
      runs[static_cast<std::size_t>(index)].fetch_add(
          1, std::memory_order_relaxed);
    });
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
          << "n=" << n << " index " << i;
    }
  }
}

TEST(ThreadPoolClaimed, CallerAloneFinishesWhenEveryWorkerIsBlocked) {
  // Every worker waits inside another thread's fork, so no helper can
  // join: the call must still complete, on the calling thread alone.
  ThreadPool pool(2);
  WorkerBlocker blocker(pool);
  const auto caller = std::this_thread::get_id();
  std::vector<int> ran;
  pool.run_claimed(iota_order(16), [&](int index) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran.push_back(index);
  });
  EXPECT_EQ(ran, iota_order(16));  // claimed in list order
}

TEST(ThreadPoolClaimed, ExceptionSurfacesAfterEveryHelperReturned) {
  // Position 0 throws once another participant is inside fn; helpers
  // dwell in every index they claim, while the caller does not. A call
  // that rethrew before joining would return with helpers still inside.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> inside{0};
  int inside_at_throw = -1;
  try {
    pool.run_claimed(iota_order(64), [&](int index) {
      if (index == 0) {
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(1);
        while (inside.load() == 0 && std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
        throw std::runtime_error("cell 0");
      }
      inside.fetch_add(1);
      if (std::this_thread::get_id() != caller) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      inside.fetch_sub(1);
    });
    ADD_FAILURE() << "run_claimed swallowed the exception";
  } catch (const std::runtime_error& error) {
    inside_at_throw = inside.load();
    EXPECT_EQ(std::string(error.what()), "cell 0");
  }
  EXPECT_EQ(inside_at_throw, 0);  // no participant still inside fn
}

TEST(ThreadPoolClaimed, AlongsideRunsOwnWorkOnTheCallerWhileHelpersClaim) {
  // The helpers claim positions while the caller is still in own(): own()
  // waits until some index ran, which only a helper can do by then.
  ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> ran{0};
  std::vector<std::atomic<int>> runs(40);
  bool own_saw_helper_work = false;
  pool.run_claimed_alongside(
      iota_order(40),
      [&] {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (ran.load() == 0 && std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
        own_saw_helper_work = ran.load() > 0;
      },
      [&](int index) {
        runs[static_cast<std::size_t>(index)].fetch_add(1);
        ran.fetch_add(1);
      });
  EXPECT_TRUE(own_saw_helper_work);
  for (const auto& count : runs) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolClaimed, AlongsideRethrowsOwnExceptionAfterHelpersLeft) {
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  int inside_at_throw = -1;
  try {
    pool.run_claimed_alongside(
        iota_order(32), [] { throw std::runtime_error("own"); },
        [&](int) {
          inside.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          inside.fetch_sub(1);
        });
    ADD_FAILURE() << "run_claimed_alongside swallowed the exception";
  } catch (const std::runtime_error& error) {
    inside_at_throw = inside.load();
    EXPECT_EQ(std::string(error.what()), "own");
  }
  EXPECT_EQ(inside_at_throw, 0);
}

TEST(ThreadPoolClaimed, CallerRunsAloneWhenLateHelpersHoldEveryJob) {
  // While another thread's fork holds the pool's one job, each call runs on
  // its caller alone, in list order; once that fork is done, helpers join
  // calls again.
  ThreadPool pool(1);
  WorkerBlocker blocker(pool);
  const auto caller = std::this_thread::get_id();
  for (int call = 0; call < 6; ++call) {
    std::vector<int> ran;
    pool.run_claimed(iota_order(5), [&](int index) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ran.push_back(index);
    });
    EXPECT_EQ(ran, iota_order(5)) << "call " << call;
  }
  blocker.release();
  std::atomic<int> sum{0};
  std::atomic<bool> helped{false};
  pool.run_claimed_alongside(
      iota_order(10),
      [&] {
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!helped.load() && std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
      },
      [&](int index) {
        if (std::this_thread::get_id() != caller) helped.store(true);
        sum += index;
      });
  EXPECT_EQ(sum.load(), 45);
  EXPECT_TRUE(helped.load());  // the job is free again
}

TEST(ThreadPoolClaimed, WarmCallsDoNotAllocate) {
  // The pool's one job lives in the pool, so a claimed fork-join touches
  // the heap on no thread, not even the first time.
  ASSERT_TRUE(util::alloc_counting_active());
  ThreadPool pool(3);
  const auto order = iota_order(24);
  std::atomic<std::int64_t> allocs{0};
  std::atomic<int> sum{0};
  const auto count_allocs = [&](int index) {
    const auto before = util::alloc_counts().allocs;
    sum += index;
    allocs += util::alloc_counts().allocs - before;
  };
  for (int call = 0; call < 50; ++call) {
    const auto before = util::alloc_counts().allocs;
    pool.run_claimed(order, count_allocs);
    pool.run_claimed_alongside(order, [] {}, count_allocs);
    EXPECT_EQ(util::alloc_counts().allocs - before, 0) << "call " << call;
  }
  EXPECT_EQ(allocs.load(), 0);
  EXPECT_EQ(sum.load(), 50 * 2 * 276);
}

TEST(ThreadPoolClaimed, ConcurrentCallersEachRunEveryIndexOnce) {
  // Two threads fork on one pool at once: whichever finds the job busy
  // runs on its caller alone, and either way every index runs exactly once
  // per call.
  ThreadPool pool(3);
  constexpr int kCalls = 2000;
  constexpr int kIndices = 8;
  const auto order = iota_order(kIndices);
  std::atomic<int> wrong{0};
  const auto fork_many = [&] {
    std::vector<std::atomic<int>> runs(kIndices);
    for (int call = 0; call < kCalls; ++call) {
      for (auto& count : runs) count.store(0, std::memory_order_relaxed);
      pool.run_claimed(order, [&runs](int index) {
        runs[static_cast<std::size_t>(index)].fetch_add(
            1, std::memory_order_relaxed);
      });
      for (const auto& count : runs) {
        if (count.load(std::memory_order_relaxed) != 1) wrong.fetch_add(1);
      }
    }
  };
  std::thread other(fork_many);
  fork_many();
  other.join();
  EXPECT_EQ(wrong.load(), 0);
}

// --------------------------------------------------- spin-then-park wakeup ----

TEST(ThreadPoolSpin, SpinningPoolRunsBurstsCorrectly) {
  // Back-to-back forks with idle gaps exercise both halves of the wakeup
  // path: workers caught mid-spin and workers that parked. Also the TSan
  // target for the spin fast path.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int burst = 0; burst < 20; ++burst) {
    for (int fork = 0; fork < 8; ++fork) {
      pool.run_claimed(iota_order(64), [&done](int) {
        done.fetch_add(1, std::memory_order_relaxed);
      });
    }
    if (burst % 5 == 4) {
      // Let every worker exhaust its spin budget and park.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_EQ(done.load(), 20 * 8 * 64);
}

TEST(ThreadPoolSpin, ConcurrentProducersWithSpinStayCoherent) {
  // Three threads fork against spinning workers: the job's seats, cursor
  // and generation must never disagree (every position runs, every call
  // returns).
  ThreadPool pool(4);
  std::atomic<int> done{0};
  constexpr int kPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&pool, &done] {
      for (int i = 0; i < kPerProducer; ++i) {
        pool.run_claimed(iota_order(4), [&done](int) { done.fetch_add(1); });
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(done.load(), 3 * kPerProducer * 4);
}

TEST(ThreadPoolSpin, HandoffLatencyOrdering) {
  // A spinning worker should join a fork at least as fast as a parked one
  // (it skips the futex round trip). The handoff is the time from the call
  // to a worker starting fn; own() waits for it, so only a worker can.
  // Medians over many handoffs with a very generous margin keep this
  // robust on loaded CI machines.
  ThreadPool pool(1);
  const auto median_handoff_s = [&pool](std::chrono::milliseconds idle) {
    constexpr int kIters = 101;
    const std::vector<int> order{0};
    std::vector<double> samples;
    samples.reserve(kIters);
    for (int i = 0; i < kIters; ++i) {
      std::this_thread::sleep_for(idle);
      std::atomic<bool> started{false};
      auto started_at = std::chrono::steady_clock::now();
      const auto forked = std::chrono::steady_clock::now();
      pool.run_claimed_alongside(
          order,
          [&] {
            const auto give_up = forked + std::chrono::seconds(1);
            while (!started.load() &&
                   std::chrono::steady_clock::now() < give_up) {
              std::this_thread::yield();
            }
          },
          [&](int) {
            started_at = std::chrono::steady_clock::now();
            started.store(true);
          });
      samples.push_back(
          std::chrono::duration<double>(started_at - forked).count());
    }
    std::nth_element(samples.begin(), samples.begin() + kIters / 2,
                     samples.end());
    return samples[kIters / 2];
  };
  // Ordering with slack: spinning must not be an order of magnitude worse
  // than parking (it should in fact be faster; the absolute term is a back-
  // stop against scheduler noise making the parked median tiny). Retries
  // keep this robust when a parallel test run swamps every core.
  double spin_median = 0.0;
  double park_median = 0.0;
  bool ordered = false;
  for (int attempt = 0; attempt < 3 && !ordered; ++attempt) {
    spin_median = median_handoff_s(std::chrono::milliseconds(0));
    park_median = median_handoff_s(std::chrono::milliseconds(2));
    ordered = spin_median < park_median * 8.0 + 200e-6;
  }
  EXPECT_TRUE(ordered) << "spin=" << spin_median << "s park=" << park_median
                       << "s";
}

}  // namespace
}  // namespace birp::runtime
