// Fixed-size worker thread pool: one fork-join at a time.
//
// Runs the serving engine's arrival cells and edges and the cell
// scheduler's per-cell solves concurrently, and parallelizes experiment
// sweeps (the Fig. 4 / Fig. 5 epsilon grids run one full simulation per
// grid point). The slot simulator runs its edges inline and uses no pool.
//
// The one way in is run_claimed(): a fork-join over a list of indices. The
// call publishes a single job (the list, fn and a number of helper seats);
// the workers and the calling thread claim the indices one at a time, in
// list order, from a shared cursor, so the caller works instead of
// blocking, and a list sorted longest-first is list-scheduled (the LPT
// rule). run_claimed_alongside() lets the caller run work of its own first
// while the helpers claim. Neither touches the heap.
//
// Wakeup path: an idle worker first spins for a bounded number of
// iterations on an atomic job generation counter before parking on the
// condition variable. Slot-boundary bursts (the serve engine forks twice
// per slot) then catch workers mid-spin and skip the futex round trip
// entirely; a pool idle longer than the spin budget parks and costs
// nothing. Correctness never depends on the spin — it is a wakeup hint
// only: a job is published and entered under the mutex, and the spin reads
// only the atomic counter, keeping TSan clean.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

namespace birp::runtime {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Stops and joins all workers. No call may be in progress.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Fork-join: runs fn(order[n]) exactly once for every n. Up to
  /// min(size(), order.size() - 1) workers and the calling thread claim the
  /// positions one at a time from an atomic cursor, so positions start in
  /// `order`'s order. Returns only after every worker that entered the
  /// claim loop has left it. The first exception fn throws stops further
  /// claims and is rethrown after that point, when no worker still touches
  /// the caller's frame. A call made while another is in progress (from
  /// inside fn, or from a second thread) runs every position on its caller.
  template <typename Fn>
  void run_claimed(std::span<const int> order, Fn&& fn) {
    run_claimed_erased(order, &call_index<Fn>, untyped(fn), nullptr, nullptr);
  }

  /// run_claimed() for a caller with work of its own: the helpers start
  /// claiming positions at once while the calling thread runs own(), then
  /// the caller joins the claim loop. Up to min(size(), order.size())
  /// helpers. An exception from own() stops further claims and is rethrown
  /// (before any from fn) once no worker touches the caller's frame.
  template <typename Own, typename Fn>
  void run_claimed_alongside(std::span<const int> order, Own&& own, Fn&& fn) {
    run_claimed_erased(order, &call_index<Fn>, untyped(fn), &call_own<Own>,
                       untyped(own));
  }

 private:
  /// Workers spin this many iterations (pause instructions) for a new job
  /// before parking on the condition variable.
  static constexpr int kSpinIterations = 4096;

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
  void claim_loop();
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable left_;
  // The published job. Every field but the cursor is written under mutex_
  // by the caller before it bumps generation_, and a worker reads them only
  // after entering under mutex_.
  std::span<const int> order_;
  void (*call_)(void*, int) = nullptr;
  void* fn_ = nullptr;
  std::atomic<std::size_t> cursor_{0};
  std::size_t seats_ = 0;    ///< workers that may still enter
  int inside_ = 0;           ///< workers inside the claim loop
  bool open_ = false;        ///< workers may enter
  bool busy_ = false;        ///< a call is in progress
  bool stopping_ = false;
  std::exception_ptr error_;
  /// Bumped under mutex_ for every published job and at stop; what the
  /// workers spin and park on.
  std::atomic<std::uint64_t> generation_{0};
  std::vector<std::thread> workers_;
};

}  // namespace birp::runtime
