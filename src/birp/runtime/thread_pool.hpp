// Fixed-size worker thread pool.
//
// Runs the serving engine's per-edge slot execution and the cell
// scheduler's per-cell solves concurrently, and parallelizes experiment
// sweeps (the Fig. 4 / Fig. 5 epsilon grids run one full simulation per
// grid point). The slot simulator runs its edges inline and uses no pool.
// Two ways in:
//   * submit(): one type-erased task per call, a std::future for the
//     result (the sweeps);
//   * run_claimed(): a fork-join over a list of indices (the cell solves,
//     the serving engine's arrival cells and edges). The workers and the
//     calling thread claim the indices one at a time, in list order, from a
//     shared cursor, so the caller works instead of blocking, and a list
//     sorted longest-first is list-scheduled (the LPT rule). One task per
//     helping worker, not one per index; run_claimed_alongside() lets the
//     caller run work of its own first while the helpers claim. Neither
//     touches the heap: claim jobs are recycled from a fixed set and the
//     task queue is a ring pre-sized for their helpers.
//
// Wakeup path: an idle worker first spins for a bounded number of
// iterations on an atomic pending-task counter before parking on the
// condition variable. Slot-boundary bursts (the serve engine forks twice
// per slot) then catch workers mid-spin and skip the futex round trip
// entirely; a pool idle longer than the spin budget parks
// and costs nothing. Correctness never depends on the spin — it is a
// wakeup hint only, and every queue access stays under the mutex (the spin
// reads only the atomic counter and stop flag, keeping TSan clean).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

namespace birp::runtime {

class ThreadPool {
 public:
  /// Workers spin this many iterations (pause instructions) for new work
  /// before parking on the condition variable.
  static constexpr int kDefaultSpinIterations = 4096;

  /// Spawns `threads` workers; 0 means hardware concurrency (min 1).
  /// `spin_iterations` bounds the pre-park spin (0 = always park
  /// immediately, the pre-spin behavior).
  explicit ThreadPool(std::size_t threads = 0,
                      int spin_iterations = kDefaultSpinIterations);

  /// Drains outstanding work, then joins all workers (via shutdown()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Begins shutdown: previously submitted tasks still drain, then all
  /// workers join. Idempotent. After shutdown has begun, submit()/enqueue()
  /// reject deterministically with std::runtime_error instead of silently
  /// enqueuing work that would never run.
  void shutdown();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }
  [[nodiscard]] int spin_iterations() const noexcept {
    return spin_iterations_;
  }

  /// Enqueues `fn(args...)`; the returned future delivers the result or the
  /// thrown exception.
  template <typename Fn, typename... Args>
  auto submit(Fn&& fn, Args&&... args)
      -> std::future<std::invoke_result_t<Fn, Args...>> {
    using Result = std::invoke_result_t<Fn, Args...>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        [fn = std::forward<Fn>(fn),
         ... args = std::forward<Args>(args)]() mutable {
          return std::invoke(std::move(fn), std::move(args)...);
        });
    auto future = task->get_future();
    enqueue([task]() mutable { (*task)(); });
    return future;
  }

  /// Fork-join: runs fn(order[n]) exactly once for every n. Up to
  /// min(size(), order.size() - 1) workers and the calling thread claim the
  /// positions one at a time from an atomic cursor, so positions start in
  /// `order`'s order. Returns only after every helper that entered the
  /// claim loop has left it; a helper that had not started by then never
  /// calls fn, so a pool busy with other work cannot deadlock the call (the
  /// caller runs every position itself). The first exception fn throws
  /// stops further claims and is rethrown after that point, when no helper
  /// still touches the caller's frame. Safe to call from inside a task.
  template <typename Fn>
  void run_claimed(std::span<const int> order, Fn&& fn) {
    run_claimed_erased(order, &call_index<Fn>, untyped(fn), nullptr, nullptr);
  }

  /// run_claimed() for a caller with work of its own: the helpers start
  /// claiming positions at once while the calling thread runs own(), then
  /// the caller joins the claim loop. Up to min(size(), order.size())
  /// helpers. An exception from own() stops further claims and is rethrown
  /// (before any from fn) once no helper touches the caller's frame.
  template <typename Own, typename Fn>
  void run_claimed_alongside(std::span<const int> order, Own&& own, Fn&& fn) {
    run_claimed_erased(order, &call_index<Fn>, untyped(fn), &call_own<Own>,
                       untyped(own));
  }

  /// Blocks until every task submitted so far has finished.
  void wait_idle();

 private:
  /// State shared by the participants of one run_claimed() call. The pool
  /// owns it and recycles it once `refs` is back to 0, so a helper that
  /// starts after the call returned still finds it alive, sees `closed` and
  /// leaves without calling fn.
  struct ClaimJob {
    std::span<const int> order;
    void (*call)(void*, int) = nullptr;
    void* fn = nullptr;
    std::atomic<std::size_t> cursor{0};
    /// The caller plus every helper task not yet finished; 0 = free.
    std::atomic<int> refs{0};
    std::mutex mutex;
    std::condition_variable left;
    int inside = 0;       ///< helpers inside the claim loop
    bool closed = false;  ///< the caller is done: no helper may enter
    std::exception_ptr error;
  };

  template <typename Fn>
  static void call_index(void* f, int index) {
    (*static_cast<std::remove_reference_t<Fn>*>(f))(index);
  }
  template <typename Own>
  static void call_own(void* f) {
    (*static_cast<std::remove_reference_t<Own>*>(f))();
  }
  template <typename T>
  static void* untyped(T& object) {
    return const_cast<void*>(static_cast<const void*>(std::addressof(object)));
  }

  void run_claimed_erased(std::span<const int> order,
                          void (*call)(void*, int), void* fn,
                          void (*own_call)(void*), void* own);
  /// A free claim job with refs set to 1 for the caller, or null when late
  /// helpers of earlier calls still hold every one.
  ClaimJob* acquire_job();
  static void claim_loop(ClaimJob& job);
  static void help(ClaimJob& job);
  void enqueue(std::function<void()> task);
  void worker_loop();
  /// Bounded lock-free wait for the pending counter to go nonzero (or for
  /// shutdown). Purely a latency optimization; returns on budget exhaustion
  /// regardless.
  void spin_for_work() const noexcept;

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  /// FIFO task queue: a ring over grow-only storage, `queued_` tasks from
  /// `head_` on.
  std::vector<std::function<void()>> ring_;
  std::size_t head_ = 0;
  std::size_t queued_ = 0;
  /// Recycled by run_claimed(); acquired under mutex_. A call that finds
  /// none free (each still held by a helper task that has not run yet) runs
  /// its positions on the caller alone, so claimed calls never allocate.
  static constexpr std::size_t kClaimJobs = 4;
  std::array<ClaimJob, kClaimJobs> claim_jobs_;
  std::vector<std::thread> workers_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  /// Mirror of queued_, maintained under the mutex but readable
  /// without it — what the pre-park spin polls.
  std::atomic<std::int64_t> pending_{0};
  /// Mirror of stopping_, so the spin can bail without the lock.
  std::atomic<bool> stop_flag_{false};
  int spin_iterations_ = kDefaultSpinIterations;
};

}  // namespace birp::runtime
