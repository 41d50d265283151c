#include "birp/fault/fault_plan.hpp"

#include <algorithm>
#include <ostream>

#include "birp/util/check.hpp"
#include "birp/util/csv.hpp"
#include "birp/util/rng.hpp"

namespace birp::fault {
namespace {

constexpr double kMinBandwidthFloor = 0.01;

// FaultPlan::generate's episode shapes (see FaultPlanOptions).
constexpr double kMinBandwidthFactor = 0.25;
constexpr int kMinDegradeSlots = 10;
constexpr int kMaxDegradeSlots = 60;
constexpr double kMaxStragglerFactor = 3.0;
constexpr int kMinStragglerSlots = 10;
constexpr int kMaxStragglerSlots = 60;

/// Bandwidth multiplier of a storm-struck rack's surviving members.
constexpr double kCascadeBandwidthFactor = 0.5;

bool covers(const FaultEvent& e, int device, int slot) noexcept {
  return e.device == device && slot >= e.from_slot && slot < e.to_slot;
}

FaultKind kind_from_string(std::string_view text) {
  if (text == "down") return FaultKind::kDown;
  if (text == "bandwidth") return FaultKind::kBandwidth;
  if (text == "straggler") return FaultKind::kStraggler;
  if (text == "up") return FaultKind::kUp;
  util::check(false, "FaultPlan: unknown fault kind in CSV");
  return FaultKind::kDown;
}

}  // namespace

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDown:
      return "down";
    case FaultKind::kBandwidth:
      return "bandwidth";
    case FaultKind::kStraggler:
      return "straggler";
    case FaultKind::kUp:
      return "up";
  }
  return "down";
}

void FaultPlan::add(const FaultEvent& event) {
  util::check(event.device >= 0, "FaultPlan: negative device index");
  util::check(event.from_slot >= 0 && event.from_slot < event.to_slot,
              "FaultPlan: event interval must satisfy 0 <= from < to");
  switch (event.kind) {
    case FaultKind::kDown:
    case FaultKind::kUp:
      break;
    case FaultKind::kBandwidth:
      util::check(event.factor > 0.0 && event.factor <= 1.0,
                  "FaultPlan: bandwidth factor must be in (0, 1]");
      break;
    case FaultKind::kStraggler:
      util::check(event.factor >= 1.0,
                  "FaultPlan: straggler factor must be >= 1");
      break;
  }
  events_.push_back(event);
}

void FaultPlan::add_down(int device, int from_slot, int to_slot) {
  add({FaultKind::kDown, device, from_slot, to_slot, 1.0});
}

void FaultPlan::add_bandwidth(int device, int from_slot, int to_slot,
                              double factor) {
  add({FaultKind::kBandwidth, device, from_slot, to_slot, factor});
}

void FaultPlan::add_straggler(int device, int from_slot, int to_slot,
                              double factor) {
  add({FaultKind::kStraggler, device, from_slot, to_slot, factor});
}

void FaultPlan::add_up(int device, int from_slot, int to_slot) {
  add({FaultKind::kUp, device, from_slot, to_slot, 1.0});
}

bool FaultPlan::is_down(int device, int slot) const noexcept {
  bool down = false;
  for (const FaultEvent& e : events_) {
    if (!covers(e, device, slot)) continue;
    if (e.kind == FaultKind::kUp) return false;  // forced recovery wins
    if (e.kind == FaultKind::kDown) down = true;
  }
  return down;
}

double FaultPlan::bandwidth_factor(int device, int slot) const noexcept {
  double factor = 1.0;
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kBandwidth && covers(e, device, slot)) {
      factor *= e.factor;
    }
  }
  return std::max(factor, kMinBandwidthFloor);
}

double FaultPlan::straggler_factor(int device, int slot) const noexcept {
  double factor = 1.0;
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kStraggler && covers(e, device, slot)) {
      factor *= e.factor;
    }
  }
  return std::max(factor, 1.0);
}

std::vector<std::uint8_t> FaultPlan::up_mask(int devices, int slot) const {
  util::check(devices >= 0, "FaultPlan: negative device count");
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(devices), 1);
  for (int k = 0; k < devices; ++k) {
    if (is_down(k, slot)) mask[static_cast<std::size_t>(k)] = 0;
  }
  return mask;
}

int FaultPlan::down_slots(int device, int slots) const noexcept {
  int down = 0;
  for (int t = 0; t < slots; ++t) {
    if (is_down(device, t)) ++down;
  }
  return down;
}

FaultPlan FaultPlan::single_edge_crash(int device, int from_slot,
                                       int to_slot) {
  FaultPlan plan;
  plan.add_down(device, from_slot, to_slot);
  return plan;
}

FaultPlan FaultPlan::flapping_edge(int device, int from_slot, int horizon,
                                   int down_slots, int up_slots) {
  util::check(down_slots > 0 && up_slots > 0,
              "FaultPlan: flapping periods must be positive");
  FaultPlan plan;
  for (int t = from_slot; t < horizon; t += down_slots + up_slots) {
    plan.add_down(device, t, std::min(t + down_slots, horizon));
  }
  return plan;
}

FaultPlan FaultPlan::degraded_bandwidth(int device, int from_slot, int to_slot,
                                        double factor) {
  FaultPlan plan;
  plan.add_bandwidth(device, from_slot, to_slot, factor);
  return plan;
}

FaultPlan FaultPlan::generate(const FaultPlanOptions& options) {
  util::check(options.slots >= 0 && options.devices >= 0,
              "FaultPlan: negative horizon or device count");
  FaultPlan plan;
  for (int k = 0; k < options.devices; ++k) {
    // One independent stream per device so adding a device does not perturb
    // the others' fault history.
    util::Xoshiro256StarStar rng(options.seed ^
                                 (0x9e3779b97f4a7c15ULL *
                                  (static_cast<std::uint64_t>(k) + 1)));
    int busy_until = 0;  // no overlapping outages on one device
    for (int t = 0; t < options.slots; ++t) {
      if (t >= busy_until && rng.bernoulli(options.crash_rate)) {
        const int len = static_cast<int>(rng.uniform_int(
            options.min_outage_slots, options.max_outage_slots));
        plan.add_down(k, t, std::min(t + len, options.slots));
        busy_until = t + len;
      }
      if (rng.bernoulli(options.degrade_rate)) {
        const int len = static_cast<int>(
            rng.uniform_int(kMinDegradeSlots, kMaxDegradeSlots));
        const double factor = rng.uniform(kMinBandwidthFactor, 1.0);
        plan.add_bandwidth(k, t, std::min(t + len, options.slots), factor);
      }
      if (rng.bernoulli(options.straggler_rate)) {
        const int len = static_cast<int>(
            rng.uniform_int(kMinStragglerSlots, kMaxStragglerSlots));
        const double factor = rng.uniform(1.0, kMaxStragglerFactor);
        plan.add_straggler(k, t, std::min(t + len, options.slots), factor);
      }
    }
  }
  return plan;
}

FaultPlan FaultPlan::generate_correlated(
    const CorrelatedFailureOptions& options) {
  util::check(options.slots >= 0 && options.devices >= 0,
              "FaultPlan: negative horizon or device count");
  util::check(options.group_size >= 1, "FaultPlan: group_size must be >= 1");
  util::check(options.group_fraction > 0.0 && options.group_fraction <= 1.0,
              "FaultPlan: group_fraction must be in (0, 1]");
  util::check(options.rescue_fraction >= 0.0 && options.rescue_fraction <= 1.0,
              "FaultPlan: rescue_fraction must be in [0, 1]");
  util::check(options.min_outage_slots >= 1 &&
                  options.max_outage_slots >= options.min_outage_slots,
              "FaultPlan: outage bounds must satisfy 1 <= min <= max");

  FaultPlan plan;
  if (options.devices == 0 || options.slots == 0) return plan;
  const int group = std::min(options.group_size, options.devices);
  const int racks = (options.devices + group - 1) / group;

  util::Xoshiro256StarStar rng(options.seed);
  int incident = 0;
  int next_allowed = 0;
  for (int t = 0; t < options.slots; ++t) {
    if (t < next_allowed || !rng.bernoulli(options.storm_rate)) continue;

    // One rack is struck; a seeded subset of its members goes down together.
    const int rack = static_cast<int>(rng.uniform_int(0, racks - 1));
    const int first = rack * group;
    const int size = std::min(group, options.devices - first);
    std::vector<int> members(static_cast<std::size_t>(size));
    for (int m = 0; m < size; ++m) members[static_cast<std::size_t>(m)] = first + m;
    rng.shuffle(members);
    const int victims = std::max(
        1, static_cast<int>(options.group_fraction * static_cast<double>(size)));
    const int length = static_cast<int>(rng.uniform_int(
        options.min_outage_slots, options.max_outage_slots));

    for (int v = 0; v < victims; ++v) {
      const int device = members[static_cast<std::size_t>(v)];
      // Recovery wave: the v-th victim stays down v * stagger slots longer.
      const int until = std::min(
          options.slots, t + length + v * options.recovery_stagger_slots);
      if (until <= t) continue;
      plan.add({FaultKind::kDown, device, t, until, 1.0, incident});
      if (options.rescue_fraction > 0.0 &&
          rng.bernoulli(options.rescue_fraction) && until - t >= 4) {
        // Transient mid-outage recovery followed by relapse (a flap): up for
        // the third quarter of the outage window.
        const int rescue_from = t + (until - t) / 2;
        const int rescue_to = t + 3 * (until - t) / 4;
        if (rescue_to > rescue_from) {
          plan.add({FaultKind::kUp, device, rescue_from, rescue_to, 1.0,
                    incident});
        }
      }
    }
    // Cascading bandwidth collapse on the struck rack's survivors: the storm
    // saturates the shared uplink while traffic reroutes.
    for (int v = victims; v < size; ++v) {
      const int device = members[static_cast<std::size_t>(v)];
      const int until = std::min(options.slots, t + length);
      if (until <= t) continue;
      plan.add({FaultKind::kBandwidth, device, t, until,
                kCascadeBandwidthFactor, incident});
    }
    ++incident;
    next_allowed = t + length + options.cooldown_slots;
  }
  return plan;
}

int FaultPlan::num_incidents() const {
  std::vector<int> seen;
  for (const FaultEvent& e : events_) {
    if (e.root_cause < 0) continue;
    if (std::find(seen.begin(), seen.end(), e.root_cause) == seen.end()) {
      seen.push_back(e.root_cause);
    }
  }
  return static_cast<int>(seen.size());
}

void FaultPlan::write_csv(std::ostream& out) const {
  util::CsvWriter writer(out);
  writer.row({"kind", "device", "from_slot", "to_slot", "factor",
              "root_cause"});
  for (const FaultEvent& e : events_) {
    writer.row({to_string(e.kind), std::to_string(e.device),
                std::to_string(e.from_slot), std::to_string(e.to_slot),
                util::format_double(e.factor), std::to_string(e.root_cause)});
  }
}

FaultPlan FaultPlan::from_csv(std::string_view text) {
  const auto rows = util::parse_csv(text);
  util::check(!rows.empty(), "FaultPlan: empty CSV document");
  constexpr const char* kWhat = "FaultPlan::from_csv";
  FaultPlan plan;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    util::check(row.size() == 5 || row.size() == 6,
                "FaultPlan: CSV row must have 5 or 6 fields");
    FaultEvent event;
    event.kind = kind_from_string(row[0]);
    event.device = util::parse_int(row[1], kWhat);
    event.from_slot = util::parse_int(row[2], kWhat);
    event.to_slot = util::parse_int(row[3], kWhat);
    event.factor = util::parse_double(row[4], kWhat);
    if (row.size() == 6) event.root_cause = util::parse_int(row[5], kWhat);
    plan.add(event);
  }
  return plan;
}

}  // namespace birp::fault
