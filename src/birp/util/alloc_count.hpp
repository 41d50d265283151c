// Test-only allocation counting.
//
// The serve hot path claims to be allocation-free in steady state; this
// instrument is how that claim is asserted rather than assumed. Targets
// that opt in (util_test, solver_test, serve_test, workload_test,
// bench_serve) compile util/alloc_hook.cpp with -DBIRP_COUNT_ALLOCS, which
// replaces the global operator new/delete with forwarding versions that
// bump the thread-local counters declared here. Everything below is always
// compiled into birp_util, so code can query the counters unconditionally;
// alloc_counting_active() reports whether a hook is actually installed in
// this executable (false in production builds, where the counters simply
// stay zero).
//
// Counters are thread-local on purpose: a worker thread measuring its own
// admission loop must not see allocations from other workers or from the
// main thread's bookkeeping. Measure like:
//
//   const auto before = util::alloc_counts();
//   hot_loop();
//   const auto after = util::alloc_counts();   // capture BEFORE asserting:
//   EXPECT_EQ(after.allocs - before.allocs, 0); // gtest itself allocates
#pragma once

#include <cstddef>
#include <cstdint>

namespace birp::util {

struct AllocCounts {
  std::int64_t allocs = 0;  ///< operator new calls on this thread
  std::int64_t frees = 0;   ///< operator delete calls on this thread
  std::int64_t bytes = 0;   ///< total bytes requested on this thread
};

/// Snapshot of this thread's counters since thread start (or the last
/// reset_alloc_counts()). All zeros when no hook is installed.
[[nodiscard]] AllocCounts alloc_counts() noexcept;

/// Zeroes this thread's counters.
void reset_alloc_counts() noexcept;

/// True when alloc_hook.cpp is linked into this executable with
/// BIRP_COUNT_ALLOCS, i.e. the counters actually count.
[[nodiscard]] bool alloc_counting_active() noexcept;

namespace detail {

// The hook's entry points. Plain constinit-style thread locals: operator
// new can run before any dynamic initializer, so these must need none.
extern thread_local std::int64_t tl_allocs;
extern thread_local std::int64_t tl_frees;
extern thread_local std::int64_t tl_bytes;

// Defined (weakly referenced) by alloc_hook.cpp; alloc_counting_active()
// keys off the flag below instead of a link-time symbol so production
// builds need no special linker support.
void set_counting_active() noexcept;

inline void note_alloc(std::size_t bytes) noexcept {
  ++tl_allocs;
  tl_bytes += static_cast<std::int64_t>(bytes);
}
inline void note_free() noexcept { ++tl_frees; }

}  // namespace detail
}  // namespace birp::util
