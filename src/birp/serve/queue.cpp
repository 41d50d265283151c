#include "birp/serve/queue.hpp"

#include <limits>

#include "birp/util/check.hpp"

namespace birp::serve {

AdmissionQueue::AdmissionQueue(int apps, const std::vector<ServeItem>& stream,
                               std::int64_t capacity, QueuePolicy policy,
                               AdmissionGate gate) {
  reset(apps, capacity, policy, gate);
  stage(stream);
}

void AdmissionQueue::reset(int apps, std::int64_t capacity,
                           QueuePolicy policy, AdmissionGate gate) {
  util::check(apps > 0, "AdmissionQueue: need at least one app");
  apps_ = apps;
  capacity_ = capacity;
  policy_ = policy;
  gate_ = gate;
  depth_ = 0;

  stream_.clear();
  cursor_ = 0;
  next_.clear();
  upstream_.assign(static_cast<std::size_t>(apps), 0);
  fifos_.assign(static_cast<std::size_t>(apps), Fifo{});
  departures_.clear();
  departed_ = 0;

  dropped_.clear();
  deadline_shed_.clear();
  depth_stats_ = util::RunningStats{};
}

void AdmissionQueue::stage(std::span<const ServeItem> items) {
  util::check(stream_.size() + items.size() <=
                  static_cast<std::size_t>(
                      std::numeric_limits<std::int32_t>::max()),
              "AdmissionQueue: stream too long for int32 links");
  for (const auto& item : items) {
    util::check(item.app >= 0 && item.app < apps_,
                "AdmissionQueue: item app out of range");
    ++upstream_[static_cast<std::size_t>(item.app)];
  }
  stream_.insert(stream_.end(), items.begin(), items.end());
  next_.resize(stream_.size());
}

void AdmissionQueue::reserve(int apps, std::size_t items) {
  util::check(apps > 0, "AdmissionQueue: need at least one app");
  stream_.reserve(items);
  next_.reserve(items);
  departures_.reserve(items);
  dropped_.reserve(items);
  deadline_shed_.reserve(items);
  upstream_.reserve(static_cast<std::size_t>(apps));
  fifos_.reserve(static_cast<std::size_t>(apps));
}

void AdmissionQueue::push_fifo(int app, std::int32_t idx) {
  next_[static_cast<std::size_t>(idx)] = kNil;
  auto& f = fifo(app);
  if (f.tail == kNil) {
    f.head = idx;
  } else {
    next_[static_cast<std::size_t>(f.tail)] = idx;
  }
  f.tail = idx;
  ++f.size;
}

const ServeItem& AdmissionQueue::pop_fifo(int app) {
  auto& f = fifo(app);
  const std::int32_t idx = f.head;
  f.head = next_[static_cast<std::size_t>(idx)];
  if (f.head == kNil) f.tail = kNil;
  --f.size;
  return stream_[static_cast<std::size_t>(idx)];
}

void AdmissionQueue::admit_next() {
  util::check(cursor_ < stream_.size(), "AdmissionQueue: stream exhausted");
  const auto idx = static_cast<std::int32_t>(cursor_);
  const ServeItem& item = stream_[cursor_++];
  --upstream_[static_cast<std::size_t>(item.app)];

  // Apply departures (launch starts) that happened before this arrival.
  release_departures(item.available_s);

  // Deadline-aware shedding happens before the capacity check: a request
  // predicted to miss its SLO is cheap to reject here, and must not evict a
  // still-viable buffered request to make room for itself.
  if (gate_ && !gate_(item, fifo(item.app).size)) {
    deadline_shed_.push_back(item);
    sample_depth();
    return;
  }

  if (capacity_ > 0 && depth_ >= capacity_) {
    if (policy_ == QueuePolicy::kEvictOldest) {
      // Evict the longest-waiting buffered request (ties: lowest app).
      int victim_app = -1;
      double victim_avail = 0.0;
      for (int a = 0; a < apps_; ++a) {
        const auto& f = fifo(a);
        if (f.head == kNil) continue;
        const double avail =
            stream_[static_cast<std::size_t>(f.head)].available_s;
        if (victim_app < 0 || avail < victim_avail) {
          victim_app = a;
          victim_avail = avail;
        }
      }
      if (victim_app >= 0) {
        dropped_.push_back(pop_fifo(victim_app));
        --depth_;
      } else {
        // Every buffered request is already sealed into a launch; nothing
        // is evictable, so the arrival bounces after all.
        dropped_.push_back(item);
        sample_depth();
        return;
      }
    } else {
      dropped_.push_back(item);
      sample_depth();
      return;
    }
  }

  push_fifo(item.app, idx);
  ++depth_;
  sample_depth();
}

void AdmissionQueue::fill_until(int app, std::size_t want,
                                double threshold_s) {
  const auto& f = fifo(app);
  while (static_cast<std::size_t>(f.size) < want && upstream(app) > 0 &&
         stream_[cursor_].available_s <= threshold_s) {
    admit_next();
  }
}

void AdmissionQueue::take_into(int app, std::size_t count,
                               std::vector<ServeItem>& out) {
  out.clear();
  util::check(count <= static_cast<std::size_t>(fifo(app).size),
              "AdmissionQueue: take beyond waiting");
  for (std::size_t r = 0; r < count; ++r) {
    out.push_back(pop_fifo(app));
  }
}

std::vector<ServeItem> AdmissionQueue::take(int app, std::size_t count) {
  std::vector<ServeItem> taken;
  taken.reserve(count);
  take_into(app, count, taken);
  return taken;
}

void AdmissionQueue::on_dispatch(double start_s, std::size_t count) {
  util::check(departures_.empty() || start_s >= departures_.back().time_s,
              "AdmissionQueue: dispatch start times must not decrease");
  if (count == 0) return;
  departures_.push_back({start_s, static_cast<std::int64_t>(count)});
}

void AdmissionQueue::release_departures(double now_s) {
  while (departed_ < departures_.size() &&
         departures_[departed_].time_s <= now_s) {
    depth_ -= departures_[departed_++].count;
  }
}

void AdmissionQueue::settle_departures() {
  // End-of-slot: every registered launch has started, so all deferred
  // departures release their capacity now. Without this, a drained queue
  // kept a depth_ still counting requests that left long ago.
  release_departures(std::numeric_limits<double>::infinity());
  util::check(depth_ >= 0, "AdmissionQueue: departures exceed admissions");
}

void AdmissionQueue::drain_unprocessed_into(std::vector<ServeItem>& out) {
  settle_departures();
  out.clear();
  for (; cursor_ < stream_.size(); ++cursor_) {
    const ServeItem& item = stream_[cursor_];
    --upstream_[static_cast<std::size_t>(item.app)];
    out.push_back(item);
  }
}

std::vector<ServeItem> AdmissionQueue::drain_unprocessed() {
  std::vector<ServeItem> rest;
  drain_unprocessed_into(rest);
  return rest;
}

void AdmissionQueue::drain_waiting_into(std::vector<ServeItem>& out) {
  settle_departures();
  out.clear();
  for (int a = 0; a < apps_; ++a) {
    auto& f = fifo(a);
    depth_ -= f.size;
    while (f.size > 0) out.push_back(pop_fifo(a));
  }
  util::check(depth_ == 0, "AdmissionQueue: depth inconsistent after drain");
}

std::vector<ServeItem> AdmissionQueue::drain_waiting() {
  std::vector<ServeItem> rest;
  drain_waiting_into(rest);
  return rest;
}

}  // namespace birp::serve
