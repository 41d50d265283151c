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
  // Room for every helper task the claim jobs can have queued at once.
  ring_.resize(kClaimJobs * threads);
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
    if (queued_ == ring_.size()) {
      std::vector<std::function<void()>> grown(2 * ring_.size());
      for (std::size_t q = 0; q < queued_; ++q) {
        grown[q] = std::move(ring_[(head_ + q) % ring_.size()]);
      }
      ring_.swap(grown);
      head_ = 0;
    }
    ring_[(head_ + queued_) % ring_.size()] = std::move(task);
    ++queued_;
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

void ThreadPool::help(ClaimJob& job) {
  bool entered = false;
  {
    const std::scoped_lock lock(job.mutex);
    if (!job.closed) {
      ++job.inside;
      entered = true;
    }
  }
  if (entered) {
    claim_loop(job);
    const std::scoped_lock lock(job.mutex);
    if (--job.inside == 0 && job.closed) job.left.notify_one();
  }
  job.refs.fetch_sub(1);  // last touch of the job
}

ThreadPool::ClaimJob* ThreadPool::acquire_job() {
  const std::scoped_lock lock(mutex_);
  for (auto& job : claim_jobs_) {
    // Only a job's owner adds references, so a free job stays free here.
    if (job.refs.load() == 0) {
      job.refs.store(1);
      return &job;
    }
  }
  return nullptr;
}

void ThreadPool::run_claimed_erased(std::span<const int> order,
                                    void (*call)(void*, int), void* fn,
                                    void (*own_call)(void*), void* own) {
  ClaimJob* const free_job = acquire_job();
  if (free_job == nullptr) {
    if (own_call != nullptr) own_call(own);
    for (const int index : order) call(fn, index);
    return;
  }
  ClaimJob& job = *free_job;
  job.order = order;
  job.call = call;
  job.fn = fn;
  job.cursor.store(0);
  job.inside = 0;
  job.closed = false;
  job.error = nullptr;
  const std::size_t claimers =
      own_call != nullptr || order.empty() ? order.size() : order.size() - 1;
  const std::size_t helpers = std::min(workers_.size(), claimers);
  for (std::size_t h = 0; h < helpers; ++h) {
    job.refs.fetch_add(1);
    try {
      // One pointer of capture: std::function keeps it inline, no heap.
      enqueue([&job] { help(job); });
    } catch (...) {
      job.refs.fetch_sub(1);
      break;  // shut down (or out of memory): the caller claims the rest
    }
  }
  std::exception_ptr error;
  if (own_call != nullptr) {
    try {
      own_call(own);
    } catch (...) {
      error = std::current_exception();
      job.cursor.store(order.size());  // no further claims
    }
  }
  claim_loop(job);
  {
    std::unique_lock lock(job.mutex);
    job.closed = true;
    job.left.wait(lock, [&job] { return job.inside == 0; });
    if (!error) error = job.error;
    job.error = nullptr;
  }
  job.refs.fetch_sub(1);
  if (error) std::rethrow_exception(error);
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return queued_ == 0 && active_ == 0; });
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
    work_available_.wait(lock, [this] { return stopping_ || queued_ > 0; });
    if (queued_ == 0) {
      if (stopping_) return;
      lock.unlock();
      continue;
    }
    auto task = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --queued_;
    pending_.fetch_sub(1, std::memory_order_release);
    ++active_;
    lock.unlock();
    task();  // packaged_task captures exceptions into the future
    lock.lock();
    --active_;
    if (queued_ == 0 && active_ == 0) idle_.notify_all();
    lock.unlock();
  }
}

}  // namespace birp::runtime
