#include "birp/runtime/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

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

ThreadPool::ThreadPool(std::size_t threads, int spin_iterations)
    : spin_iterations_(std::max(0, spin_iterations)) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
    stop_flag_.store(true, std::memory_order_release);
  }
  work_available_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    const std::scoped_lock lock(mutex_);
    if (stopping_) {
      // A task accepted now might never run (workers may already have
      // drained and exited); reject deterministically instead.
      throw std::runtime_error("ThreadPool: submit after shutdown");
    }
    queue_.push_back(std::move(task));
    pending_.fetch_add(1, std::memory_order_release);
  }
  work_available_.notify_one();
}

void ThreadPool::claim_loop(ClaimJob& job) {
  const std::size_t n = job.order.size();
  for (std::size_t pos = job.cursor.fetch_add(1); pos < n;
       pos = job.cursor.fetch_add(1)) {
    try {
      job.call(job.fn, job.order[pos]);
    } catch (...) {
      job.cursor.store(n);  // no further claims
      const std::scoped_lock lock(job.mutex);
      if (!job.error) job.error = std::current_exception();
    }
  }
}

void ThreadPool::run_claimed_erased(std::span<const int> order,
                                    void (*call)(void*, int), void* fn) {
  auto job = std::make_shared<ClaimJob>();
  job->order = order;
  job->call = call;
  job->fn = fn;
  const std::size_t helpers =
      order.empty() ? 0 : std::min(workers_.size(), order.size() - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    try {
      enqueue([job] {
        {
          const std::scoped_lock lock(job->mutex);
          if (job->closed) return;
          ++job->inside;
        }
        claim_loop(*job);
        const std::scoped_lock lock(job->mutex);
        if (--job->inside == 0 && job->closed) job->left.notify_one();
      });
    } catch (...) {
      break;  // shut down (or out of memory): the caller claims the rest
    }
  }
  claim_loop(*job);
  std::unique_lock lock(job->mutex);
  job->closed = true;
  job->left.wait(lock, [&job] { return job->inside == 0; });
  if (job->error) std::rethrow_exception(job->error);
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::spin_for_work() const noexcept {
  for (int i = 0; i < spin_iterations_; ++i) {
    if (pending_.load(std::memory_order_acquire) > 0 ||
        stop_flag_.load(std::memory_order_acquire)) {
      return;
    }
    cpu_pause();
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_, std::defer_lock);
  while (true) {
    // Spin phase, lock-free: a task enqueued within the budget makes the
    // CV wait below satisfy its predicate immediately — no futex sleep.
    spin_for_work();
    lock.lock();
    work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      lock.unlock();
      continue;
    }
    auto task = std::move(queue_.front());
    queue_.pop_front();
    pending_.fetch_sub(1, std::memory_order_release);
    ++active_;
    lock.unlock();
    task();  // packaged_task captures exceptions into the future
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) idle_.notify_all();
    lock.unlock();
  }
}

}  // namespace birp::runtime
