// Per-edge admission queue for the serving runtime.
//
// One edge's requests (local arrivals plus redistributed imports) form a
// single chronological stream; the queue admits them in availability order
// against a shared capacity on buffered-not-yet-dispatched requests,
// applying the configured backpressure policy when full. Admitted requests
// wait in per-application FIFOs until the batch assembler takes them;
// dispatch events (launch starts) free their capacity at the right point
// in time, so an admission decision at time T sees exactly the requests
// buffered at T.
//
// The queue has one owner: the edge's worker stages the slot's stream and
// drives every admission, take and dispatch on the same thread. Its
// internals are plain vectors:
//
//   * the staged stream plus a read cursor;
//   * per-app FIFOs linked through the stream by index (one int32 `next`
//     entry per staged request) — an admitted request never moves;
//   * pending departures as (start time, count) pairs with a head index.
//     Launch starts on one edge never go backwards (each starts at or after
//     the previous launch's completion), so the due departures are always a
//     prefix; on_dispatch checks that order.
//
// The admission gate is a non-owning context+function-pointer pair, not a
// std::function — no type-erasure allocation per slot. reset() retains
// every capacity, so an engine reusing one queue per edge across slots
// performs zero heap allocations per request in steady state (asserted in
// serve_test with the BIRP_COUNT_ALLOCS hook). serve_test also pins a
// digest of every admit/shed/drop/defer decision over seeded op scripts.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "birp/serve/request.hpp"
#include "birp/util/stats.hpp"

namespace birp::serve {

/// What to do with an arrival when the queue is at capacity.
enum class QueuePolicy {
  kRejectNewest,  ///< bounce the arriving request
  kEvictOldest,   ///< evict the longest-waiting buffered request instead
};

/// Deadline-aware admission verdict, consulted for each arrival before the
/// capacity check. A non-owning (context, function-pointer) pair: the
/// engine keeps the context alive for the queue's lifetime. Returning
/// false sheds the request (it lands in deadline_shed(), not dropped()).
/// Default-constructed gates admit everything.
class AdmissionGate {
 public:
  using Fn = bool (*)(const void* ctx, const ServeItem& item,
                      std::int64_t buffered_ahead);

  AdmissionGate() = default;
  AdmissionGate(const void* ctx, Fn fn) : ctx_(ctx), fn_(fn) {}

  explicit operator bool() const noexcept { return fn_ != nullptr; }
  bool operator()(const ServeItem& item, std::int64_t buffered_ahead) const {
    return fn_(ctx_, item, buffered_ahead);
  }

 private:
  const void* ctx_ = nullptr;
  Fn fn_ = nullptr;
};

class AdmissionQueue {
 public:
  /// An empty queue; reset() before use (the engine's reuse path).
  AdmissionQueue() = default;

  /// Convenience form (tests, one-shot callers): resets and stages the
  /// whole stream. `stream` must be sorted by (available_s, app, origin,
  /// seq). `capacity` <= 0 means unbounded.
  AdmissionQueue(int apps, const std::vector<ServeItem>& stream,
                 std::int64_t capacity, QueuePolicy policy,
                 AdmissionGate gate = {});

  /// Re-arms the queue for a new slot, retaining all storage so steady-
  /// state reuse allocates nothing.
  void reset(int apps, std::int64_t capacity, QueuePolicy policy,
             AdmissionGate gate);

  /// Appends `items` to the staged stream. Everything staged must be in
  /// (available_s, app, origin, seq) order — the engine stages one merged,
  /// sorted stream per slot.
  void stage(std::span<const ServeItem> items);

  /// Pre-carves the per-app tables and every per-request buffer for
  /// `apps` apps and `items` staged requests, so a subsequent
  /// reset()+stage()+fill() cycle up to that size never allocates.
  void reserve(int apps, std::size_t items);

  /// Processes arrivals chronologically until `app`'s FIFO holds `want`
  /// admitted requests or the stream runs out.
  void fill(int app, std::size_t want) {
    fill_until(app, want, std::numeric_limits<double>::infinity());
  }

  /// Like fill(), but stops before the first arrival with
  /// available_s > threshold_s (that arrival stays unprocessed).
  void fill_until(int app, std::size_t want, double threshold_s);

  /// True when no request of `app` is waiting and none remains upstream.
  [[nodiscard]] bool exhausted(int app) const {
    return fifo(app).size == 0 && upstream(app) == 0;
  }

  /// Requests of `app` still unprocessed in the stream (not yet admitted
  /// or dropped).
  [[nodiscard]] std::int64_t upstream(int app) const {
    return upstream_[static_cast<std::size_t>(app)];
  }

  /// Live, non-owning view of `app`'s waiting FIFO (oldest first). Reads
  /// the queue's current state on every call, so a view taken before a
  /// fill()/take() observes the mutation.
  class WaitingView {
   public:
    class Iterator {
     public:
      Iterator(const AdmissionQueue* queue, std::int32_t idx)
          : queue_(queue), idx_(idx) {}
      const ServeItem& operator*() const {
        return queue_->stream_[static_cast<std::size_t>(idx_)];
      }
      Iterator& operator++() {
        idx_ = queue_->next_[static_cast<std::size_t>(idx_)];
        return *this;
      }
      bool operator==(const Iterator& other) const noexcept {
        return idx_ == other.idx_;
      }

     private:
      const AdmissionQueue* queue_;
      std::int32_t idx_;
    };

    [[nodiscard]] std::size_t size() const noexcept {
      return static_cast<std::size_t>(queue_->fifo(app_).size);
    }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }
    [[nodiscard]] const ServeItem& front() const { return *begin(); }
    [[nodiscard]] Iterator begin() const {
      return Iterator(queue_, queue_->fifo(app_).head);
    }
    [[nodiscard]] Iterator end() const { return Iterator(queue_, kNil); }

   private:
    friend class AdmissionQueue;
    WaitingView(const AdmissionQueue* queue, int app)
        : queue_(queue), app_(app) {}
    const AdmissionQueue* queue_;
    int app_;
  };

  /// Admitted requests of `app` waiting for batch assembly, oldest first.
  [[nodiscard]] WaitingView waiting(int app) const {
    return WaitingView(this, app);
  }

  /// Removes the first `count` waiting requests of `app` (sealed into a
  /// batch) into `out` (cleared first; capacity retained across calls).
  /// Capacity is not released here — call on_dispatch with the launch
  /// start so the departure lands at the right time.
  void take_into(int app, std::size_t count, std::vector<ServeItem>& out);

  /// Allocating convenience wrapper over take_into (tests).
  [[nodiscard]] std::vector<ServeItem> take(int app, std::size_t count);

  /// Registers that `count` buffered requests leave the queue at `start_s`.
  /// Start times must not decrease between calls (std::logic_error).
  void on_dispatch(double start_s, std::size_t count);

  /// Requests dropped by backpressure so far, in drop order.
  [[nodiscard]] const std::vector<ServeItem>& dropped() const noexcept {
    return dropped_;
  }

  /// Requests the admission gate shed at enqueue time, in shed order.
  [[nodiscard]] const std::vector<ServeItem>& deadline_shed() const noexcept {
    return deadline_shed_;
  }

  /// Depth samples taken after every admission decision. Every decision
  /// path (admit, bounce, evict-then-admit) contributes exactly one
  /// sample: the buffered count after the decision.
  [[nodiscard]] const util::RunningStats& depth_stats() const noexcept {
    return depth_stats_;
  }

  /// Requests currently occupying buffer capacity: admitted-and-waiting
  /// plus taken-but-not-yet-departed (their launch has not started).
  [[nodiscard]] std::int64_t depth() const noexcept { return depth_; }

  /// Requests never processed (stream leftovers); drains the stream.
  /// Terminal: settles all pending departures first, so a fully drained
  /// queue reports depth() == waiting count (0 after drain_waiting too).
  void drain_unprocessed_into(std::vector<ServeItem>& out);
  [[nodiscard]] std::vector<ServeItem> drain_unprocessed();

  /// Admitted requests still waiting across all apps. Terminal like
  /// drain_unprocessed(): settles pending departures before removing, so
  /// depth() drops to exactly the in-flight count released by those
  /// departures — never stale.
  void drain_waiting_into(std::vector<ServeItem>& out);
  [[nodiscard]] std::vector<ServeItem> drain_waiting();

 private:
  static constexpr std::int32_t kNil = -1;

  /// One app's FIFO, linked through `next_` by stream index.
  struct Fifo {
    std::int32_t head = kNil;
    std::int32_t tail = kNil;
    std::int64_t size = 0;
  };

  /// `count` buffered requests leave at `time_s`.
  struct Departure {
    double time_s = 0.0;
    std::int64_t count = 0;
  };

  void admit_next();
  /// Applies every pending departure with time_s <= now_s.
  void release_departures(double now_s);
  /// Applies every pending departure regardless of time (used by the
  /// drains: end-of-slot means all registered launches have started).
  void settle_departures();
  /// One depth sample per admission decision (shared by all paths).
  void sample_depth() { depth_stats_.add(static_cast<double>(depth_)); }

  [[nodiscard]] Fifo& fifo(int app) {
    return fifos_[static_cast<std::size_t>(app)];
  }
  [[nodiscard]] const Fifo& fifo(int app) const {
    return fifos_[static_cast<std::size_t>(app)];
  }
  void push_fifo(int app, std::int32_t idx);
  const ServeItem& pop_fifo(int app);

  int apps_ = 0;
  std::vector<ServeItem> stream_;     ///< staged arrivals, in order
  std::size_t cursor_ = 0;            ///< next unprocessed stream index
  std::vector<std::int32_t> next_;    ///< FIFO link per stream index
  std::vector<std::int64_t> upstream_;  ///< per app: staged, unprocessed
  std::int64_t capacity_ = 0;
  QueuePolicy policy_ = QueuePolicy::kRejectNewest;
  AdmissionGate gate_;
  std::int64_t depth_ = 0;
  std::vector<Fifo> fifos_;
  std::vector<Departure> departures_;  ///< nondecreasing time_s
  std::size_t departed_ = 0;           ///< departures_ already applied
  std::vector<ServeItem> dropped_;
  std::vector<ServeItem> deadline_shed_;
  util::RunningStats depth_stats_;
};

}  // namespace birp::serve
