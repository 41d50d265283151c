#include "birp/runtime/thread_pool.hpp"

#include <algorithm>

namespace birp::runtime {
namespace {

/// Architecture pause hint inside spin loops: keeps the core's memory
/// pipeline from speculating past the polled atomic and yields decode
/// bandwidth to the sibling hyperthread.
inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  // No portable pause instruction; the loop's atomic load already bounds it.
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
    generation_.fetch_add(1, std::memory_order_release);
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::claim_loop() {
  const std::size_t n = order_.size();
  for (std::size_t pos = cursor_.fetch_add(1); pos < n;
       pos = cursor_.fetch_add(1)) {
    try {
      call_(fn_, order_[pos]);
    } catch (...) {
      cursor_.store(n);  // no further claims
      const std::scoped_lock lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }
}

void ThreadPool::run_claimed_erased(std::span<const int> order,
                                    void (*call)(void*, int), void* fn,
                                    void (*own_call)(void*), void* own) {
  const std::size_t claimers =
      own_call != nullptr || order.empty() ? order.size() : order.size() - 1;
  const std::size_t seats = std::min(workers_.size(), claimers);
  bool published = false;
  if (seats > 0) {
    const std::scoped_lock lock(mutex_);
    if (!busy_) {
      busy_ = true;
      open_ = true;
      order_ = order;
      call_ = call;
      fn_ = fn;
      cursor_.store(0);
      seats_ = seats;
      generation_.fetch_add(1, std::memory_order_release);
      published = true;
    }
  }
  if (!published) {
    if (own_call != nullptr) own_call(own);
    for (const int index : order) call(fn, index);
    return;
  }
  work_available_.notify_all();
  std::exception_ptr error;
  if (own_call != nullptr) {
    try {
      own_call(own);
    } catch (...) {
      error = std::current_exception();
      cursor_.store(order.size());  // no further claims
    }
  }
  claim_loop();
  {
    std::unique_lock lock(mutex_);
    open_ = false;
    left_.wait(lock, [this] { return inside_ == 0; });
    if (!error) error = error_;
    error_ = nullptr;
    busy_ = false;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock lock(mutex_, std::defer_lock);
  while (true) {
    // Spin phase, lock-free: a job published within the budget makes the
    // CV wait below satisfy its predicate immediately — no futex sleep.
    for (int i = 0; i < kSpinIterations &&
                    generation_.load(std::memory_order_acquire) == seen;
         ++i) {
      cpu_pause();
    }
    lock.lock();
    work_available_.wait(lock, [&] { return generation_.load() != seen; });
    seen = generation_.load();
    if (stopping_) return;
    const bool enter = open_ && seats_ > 0;
    if (enter) {
      --seats_;
      ++inside_;
    }
    lock.unlock();
    if (!enter) continue;
    claim_loop();
    lock.lock();
    if (--inside_ == 0 && !open_) left_.notify_one();
    lock.unlock();
  }
}

}  // namespace birp::runtime
