// Deterministic fault injection for the slotted simulator and the serving
// runtime.
//
// A FaultPlan is a list of timed fault events against edge devices:
//
//   * kDown       — the device is offline for [from_slot, to_slot): it serves
//                   nothing, receives nothing, and every request that was
//                   destined for it in those slots is orphaned.
//   * kBandwidth  — the device's uplink/downlink bandwidth is multiplied by
//                   `factor` in (0, 1] for the interval (degradation).
//   * kStraggler  — batch completion times on the device are multiplied by
//                   `factor` >= 1 for the interval (slow node).
//   * kUp         — forced recovery: during [from_slot, to_slot) the device is
//                   up even where kDown intervals cover it. Outages punched
//                   through by kUp model operator intervention and transient
//                   recoveries (an edge that comes back mid-outage and
//                   relapses — the flapping input the control plane's
//                   hysteresis exists for).
//
// Correlated failures: events carry an optional root_cause id (-1 = none), so
// a rack-style storm that downs a whole device group is one labeled incident
// rather than coincidental independent outages. generate_correlated() builds
// seeded storms — grouped edge-down with a shared root cause, staggered
// recovery waves, and cascading bandwidth collapse on the survivors.
//
// Plans are pure data: the runtime (sim::Simulator / serve::ServeEngine)
// applies the observable effects, while schedulers only ever see the
// consequences (a liveness mask in SlotState, degraded TIR observations,
// longer busy times). Plans can be authored directly, generated from a seeded
// config, or round-tripped through CSV, and all queries are deterministic so
// a fixed (plan, seed) pair reproduces a run bit-for-bit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace birp::fault {

enum class FaultKind {
  kDown,
  kBandwidth,
  kStraggler,
  kUp,
};

[[nodiscard]] std::string_view to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kDown;
  int device = 0;
  int from_slot = 0;  ///< inclusive
  int to_slot = 0;    ///< exclusive
  /// kBandwidth: multiplier in (0, 1]; kStraggler: multiplier >= 1;
  /// ignored for kDown and kUp.
  double factor = 1.0;
  /// Shared incident label for correlated failures (-1 = uncorrelated).
  int root_cause = -1;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Seeded random plan generation: each device independently enters outages,
/// bandwidth dips, and straggler episodes with per-slot hazard rates. Dips
/// and straggler episodes last 10-60 slots; a dip's bandwidth factor is drawn
/// uniformly between 0.25 and 1, a straggler's slowdown between 1 and 3.
struct FaultPlanOptions {
  int slots = 0;
  int devices = 0;
  std::uint64_t seed = 0xfa017;
  /// Per-slot probability that an idle device starts an outage.
  double crash_rate = 0.0;
  int min_outage_slots = 5;
  int max_outage_slots = 30;
  /// Per-slot probability that a device starts a bandwidth dip.
  double degrade_rate = 0.0;
  /// Per-slot probability that a device starts a straggler episode.
  double straggler_rate = 0.0;
};

/// Seeded correlated-failure storms: devices are grouped into racks of
/// `group_size` consecutive ids; a storm takes down a seeded fraction of one
/// rack at once (shared root_cause id), recovery arrives as a staggered wave,
/// and the surviving rack-mates run at half bandwidth for the storm's
/// duration. Optionally a seeded fraction of victims flap: a transient kUp
/// rescue window mid-outage followed by relapse — the hysteresis stressor.
struct CorrelatedFailureOptions {
  int slots = 0;
  int devices = 0;
  std::uint64_t seed = 0xc0a5e;
  /// Rack size (consecutive device ids share a rack); clamped to devices.
  int group_size = 8;
  /// Per-slot probability (outside cooldown) that a storm starts.
  double storm_rate = 0.02;
  /// Fraction of the struck rack taken down (at least one device).
  double group_fraction = 1.0;
  int min_outage_slots = 8;
  int max_outage_slots = 24;
  /// Successive victims recover this many slots apart (recovery wave).
  int recovery_stagger_slots = 2;
  /// Fraction of victims that transiently recover mid-outage (kUp window in
  /// the middle half of their outage) and then relapse. 0 disables.
  double rescue_fraction = 0.0;
  /// Minimum slots between storm starts.
  int cooldown_slots = 12;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// True when the plan carries no events; runtimes skip all fault paths.
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }

  /// Appends an event (validated: device >= 0, from_slot < to_slot, factor
  /// positive, straggler factor >= 1).
  void add(const FaultEvent& event);
  void add_down(int device, int from_slot, int to_slot);
  void add_bandwidth(int device, int from_slot, int to_slot, double factor);
  void add_straggler(int device, int from_slot, int to_slot, double factor);
  /// Forced recovery: overrides kDown coverage on [from_slot, to_slot).
  void add_up(int device, int from_slot, int to_slot);

  /// Device is offline during `slot`: covered by a kDown interval and not
  /// rescued by a kUp interval.
  [[nodiscard]] bool is_down(int device, int slot) const noexcept;
  /// Effective bandwidth multiplier at `slot` (overlapping events combine
  /// multiplicatively, floored at 0.01).
  [[nodiscard]] double bandwidth_factor(int device, int slot) const noexcept;
  /// Effective completion-time multiplier at `slot` (overlapping events
  /// combine multiplicatively, never below 1).
  [[nodiscard]] double straggler_factor(int device, int slot) const noexcept;
  /// Liveness mask for one slot: mask[k] == 1 iff device k is up.
  [[nodiscard]] std::vector<std::uint8_t> up_mask(int devices, int slot) const;
  /// Total down slots for `device` over [0, slots).
  [[nodiscard]] int down_slots(int device, int slots) const noexcept;

  /// Canonical scenario: one edge hard-down for [from_slot, to_slot).
  [[nodiscard]] static FaultPlan single_edge_crash(int device, int from_slot,
                                                   int to_slot);
  /// Canonical scenario: edge alternates `down_slots` down / `up_slots` up
  /// starting at `from_slot` until `horizon`.
  [[nodiscard]] static FaultPlan flapping_edge(int device, int from_slot,
                                               int horizon, int down_slots,
                                               int up_slots);
  /// Canonical scenario: bandwidth multiplied by `factor` on [from, to).
  [[nodiscard]] static FaultPlan degraded_bandwidth(int device, int from_slot,
                                                    int to_slot, double factor);
  /// Seeded random plan; same options -> same plan.
  [[nodiscard]] static FaultPlan generate(const FaultPlanOptions& options);
  /// Seeded correlated-failure storms; same options -> same plan.
  [[nodiscard]] static FaultPlan generate_correlated(
      const CorrelatedFailureOptions& options);

  /// Distinct root-cause ids present in the plan (>= 0 only).
  [[nodiscard]] int num_incidents() const;

  /// CSV round-trip: header "kind,device,from_slot,to_slot,factor,root_cause".
  /// from_csv also accepts the legacy 5-column layout (root_cause = -1).
  void write_csv(std::ostream& out) const;
  [[nodiscard]] static FaultPlan from_csv(std::string_view text);

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace birp::fault
