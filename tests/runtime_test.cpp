// Tests for the runtime thread pool (+ spin-then-park wakeup and the
// claimed fork-join).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
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

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  auto future = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ForwardsArguments) {
  ThreadPool pool(2);
  auto future = pool.submit([](int a, int b) { return a + b; }, 19, 23);
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, RunsManyTasksOnAllWorkers) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 1000; ++i) {
    futures.push_back(pool.submit([&counter] {
      counter.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, WaitIdleBlocksUntilDrained) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    (void)pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      (void)pool.submit([&done] { done.fetch_add(1); });
    }
  }  // destructor joins
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ActuallyParallel) {
  // Two sleeping tasks on two workers should overlap.
  ThreadPool pool(2);
  const auto start = std::chrono::steady_clock::now();
  auto a = pool.submit([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  });
  auto b = pool.submit([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  });
  a.get();
  b.get();
  const auto elapsed = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, 110.0);
}

TEST(ThreadPool, EnqueueFromInsideWorkerDoesNotDeadlock) {
  // Workers run task() with no pool lock held, so a task may submit a
  // continuation into the same pool. Single worker on purpose: the
  // continuation can only run after the submitting task returns.
  ThreadPool pool(1);
  std::atomic<int> stage{0};
  std::future<void> inner;
  auto outer = pool.submit([&] {
    inner = pool.submit([&stage] { stage.store(2); });
    stage.store(1);
  });
  outer.get();
  inner.get();
  EXPECT_EQ(stage.load(), 2);
}

TEST(ThreadPool, WaitIdleRacesWithProducer) {
  // wait_idle() must be callable while another thread is still submitting:
  // each call returns at some genuinely idle instant (queue empty, no task
  // running) without hanging or missing wakeups.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  constexpr int kTasks = 200;
  std::thread producer([&] {
    for (int i = 0; i < kTasks; ++i) {
      (void)pool.submit([&done] { done.fetch_add(1); });
      if (i % 16 == 0) std::this_thread::yield();
    }
  });
  for (int i = 0; i < 50; ++i) pool.wait_idle();
  producer.join();
  pool.wait_idle();  // everything is submitted now: idle means all done
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolShutdown, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW((void)pool.submit([] { return 1; }), std::runtime_error);
}

TEST(ThreadPoolShutdown, IsIdempotent) {
  ThreadPool pool(2);
  pool.shutdown();
  pool.shutdown();  // second call must be a harmless no-op
  EXPECT_THROW((void)pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPoolShutdown, DrainsPreviouslySubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&count] { count.fetch_add(1); }));
  }
  pool.shutdown();
  for (auto& future : futures) future.get();
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolShutdown, NonEmptyQueueIsDrainedNotDropped) {
  // Contract: shutdown drains. Tasks already accepted run to completion
  // even when they are still queued behind a busy worker at the moment
  // shutdown() is called — their futures never starve.
  ThreadPool pool(1);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  futures.push_back(pool.submit([&done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    done.fetch_add(1);
  }));
  for (int i = 0; i < 8; ++i) {  // backlog sitting behind the sleeper
    futures.push_back(pool.submit([&done] { done.fetch_add(1); }));
  }
  pool.shutdown();  // returns only after the backlog ran
  EXPECT_EQ(done.load(), 9);
  for (auto& future : futures) EXPECT_NO_THROW(future.get());
}

// ------------------------------------------------------ claimed fork-join ----

std::vector<int> iota_order(int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

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
  // Every worker parks on a gate task, so no helper can start: the call
  // must still complete, on the calling thread alone.
  ThreadPool pool(2);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::vector<std::future<void>> blockers;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    blockers.push_back(pool.submit([opened] { opened.wait(); }));
  }
  const auto caller = std::this_thread::get_id();
  std::vector<int> ran;
  pool.run_claimed(iota_order(16), [&](int index) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran.push_back(index);
  });
  EXPECT_EQ(ran, iota_order(16));  // claimed in list order
  gate.set_value();
  for (auto& blocker : blockers) blocker.get();
  pool.wait_idle();  // the stale helpers leave without calling fn
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

TEST(ThreadPoolClaimed, WorksFromInsideATaskAndAfterShutdown) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  auto nested = pool.submit([&] {
    pool.run_claimed(iota_order(10), [&sum](int index) { sum += index; });
  });
  nested.get();
  EXPECT_EQ(sum.load(), 45);
  pool.shutdown();  // no helper can be submitted: the caller runs all
  pool.run_claimed(iota_order(10), [&sum](int index) { sum += index; });
  EXPECT_EQ(sum.load(), 90);
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
  // The one worker is blocked, so each call's helper stays queued and keeps
  // its claim job. Once every job is held, a call runs on the caller alone;
  // all of them finish, and the queued helpers later leave without work.
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  auto blocker = pool.submit([opened] { opened.wait(); });
  const auto caller = std::this_thread::get_id();
  for (int call = 0; call < 6; ++call) {
    std::vector<int> ran;
    pool.run_claimed(iota_order(5), [&](int index) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ran.push_back(index);
    });
    EXPECT_EQ(ran, iota_order(5)) << "call " << call;
  }
  gate.set_value();
  blocker.get();
  pool.wait_idle();
  std::atomic<int> sum{0};
  pool.run_claimed(iota_order(10), [&sum](int index) { sum += index; });
  EXPECT_EQ(sum.load(), 45);  // jobs are free again
}

TEST(ThreadPoolClaimed, WarmCallsDoNotAllocate) {
  // Claim jobs are recycled and the task ring is pre-sized, so a claimed
  // fork-join touches the heap on no thread, not even the first time.
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

// --------------------------------------------------- spin-then-park wakeup ----

TEST(ThreadPoolSpin, ConfigurationIsExposedAndClampedSane) {
  ThreadPool defaulted(2);
  EXPECT_EQ(defaulted.spin_iterations(), ThreadPool::kDefaultSpinIterations);
  ThreadPool parked(2, 0);  // always park immediately (pre-spin behavior)
  EXPECT_EQ(parked.spin_iterations(), 0);
}

TEST(ThreadPoolSpin, SpinningPoolRunsBurstsCorrectly) {
  // Back-to-back bursts with idle gaps exercise both halves of the wakeup
  // path: workers caught mid-spin and workers that parked. Also the TSan
  // target for the spin fast path.
  ThreadPool pool(4, 1 << 14);
  std::atomic<int> done{0};
  for (int burst = 0; burst < 20; ++burst) {
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 64; ++i) {
      futures.push_back(pool.submit([&done] {
        done.fetch_add(1, std::memory_order_relaxed);
      }));
    }
    for (auto& f : futures) f.get();
    if (burst % 5 == 4) {
      // Let every worker exhaust its spin budget and park.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_EQ(done.load(), 20 * 64);
}

TEST(ThreadPoolSpin, ConcurrentProducersWithSpinStayCoherent) {
  // Multiple submitting threads against spinning workers: the pending
  // counter and queue must never disagree (every future resolves).
  ThreadPool pool(4, 1 << 12);
  std::atomic<int> done{0};
  constexpr int kPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&pool, &done] {
      for (int i = 0; i < kPerProducer; ++i) {
        (void)pool.submit([&done] { done.fetch_add(1); });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.wait_idle();
  EXPECT_EQ(done.load(), 3 * kPerProducer);
}

TEST(ThreadPoolSpin, HandoffLatencyOrdering) {
  // A spinning worker should pick up the next task at least as fast as a
  // parked one (it skips the futex round trip). Medians over many handoffs
  // with a very generous margin keep this robust on loaded CI machines.
  const auto median_handoff_s = [](ThreadPool& pool) {
    constexpr int kIters = 300;
    std::vector<double> samples;
    samples.reserve(kIters);
    for (int i = 0; i < kIters; ++i) {
      const auto submitted = std::chrono::steady_clock::now();
      auto started = pool.submit([] {
        return std::chrono::steady_clock::now();
      });
      samples.push_back(
          std::chrono::duration<double>(started.get() - submitted).count());
    }
    std::nth_element(samples.begin(), samples.begin() + kIters / 2,
                     samples.end());
    return samples[kIters / 2];
  };
  ThreadPool spinning(1, 1 << 16);
  ThreadPool parking(1, 0);
  // Ordering with slack: spinning must not be an order of magnitude worse
  // than parking (it should in fact be faster; the absolute term is a back-
  // stop against scheduler noise making the parked median tiny). Retries
  // keep this robust when a parallel test run swamps every core.
  double spin_median = 0.0;
  double park_median = 0.0;
  bool ordered = false;
  for (int attempt = 0; attempt < 3 && !ordered; ++attempt) {
    spin_median = median_handoff_s(spinning);
    park_median = median_handoff_s(parking);
    ordered = spin_median < park_median * 8.0 + 200e-6;
  }
  EXPECT_TRUE(ordered) << "spin=" << spin_median << "s park=" << park_median
                       << "s";
}

}  // namespace
}  // namespace birp::runtime
