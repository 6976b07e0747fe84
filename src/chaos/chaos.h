// Chaos campaign engine: deterministic, seeded fault-injection campaigns
// against a live DasHarness stack. A campaign is generated purely from its
// seed (FaultPlan), injected burst by burst under live traffic, and scored
// into a Report: per-fault recovery outcome and MTTR, per-window
// availability, replay-correctness verdicts, and the concurrent-recovery
// high-water mark. Same seed + same spec = bit-for-bit the same plan, so a
// failing campaign is replayable from one integer.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "base/panic.h"
#include "base/types.h"
#include "chaos/harness.h"

namespace vampos::chaos {

/// One planned fault: inject `kind` into target `target` (an index into the
/// harness's target list). Faults sharing a `burst` id are injected together
/// before any traffic runs, so their recoveries overlap.
struct PlannedFault {
  std::size_t target = 0;
  FaultKind kind = FaultKind::kPanic;
  std::size_t burst = 0;
};

struct CampaignSpec {
  std::uint64_t seed = 1;
  std::size_t faults = 200;
  /// Percent of bursts that contain 2-3 faults (distinct components) instead
  /// of a single one. A fault's recovery usually completes on the next
  /// Runtime::Step(), before the burst's next fault fires, so bursts rarely
  /// put two recoveries in flight.
  int burst_percent = 35;
  /// Availability windows the campaign's traffic rounds are bucketed into.
  std::size_t windows = 10;
  /// Traffic rounds driven after each burst, beyond recovery completion.
  int settle_rounds = 2;
  /// Weight (out of 100) of hang faults. Each hang costs a real
  /// hang-threshold delay, so campaigns keep this low.
  int hang_weight = 8;
  /// Run the campaign with health telemetry enabled and a metric-driven
  /// rejuvenation scheduler ticking after every traffic round: degraded
  /// components get proactively rebooted between bursts, healthy ones are
  /// left alone. The report gains rejuvenation counts and a per-window
  /// worst-health-score column.
  bool adaptive = false;
  /// Health window for adaptive campaigns. Campaigns run in milliseconds of
  /// real time, so the production default (250 ms) would never close a
  /// window; 2 ms keeps the detectors on campaign timescale.
  Nanos health_window_ns = 2 * kMillisecond;
  /// Adaptive aging phase, driven after the fault plan completes: each round
  /// leaks `age_bytes` from target `age_target`'s arena (allocated, never
  /// freed), until the adaptive scheduler rejuvenates it or the round budget
  /// runs out. 0 = no aging phase.
  std::size_t age_rounds = 0;
  /// Leaked per aging round. Big enough that the injected slope dwarfs the
  /// campaign leak limit on any host; small enough that the round budget
  /// cannot exhaust the victim's arena before detection.
  std::size_t age_bytes = 16384;
  std::size_t age_target = 0;  // index into the harness target list

  /// Seed after the VAMPOS_CHAOS_SEED env override (bit-for-bit repro knob).
  /// A value that is not wholly one unsigned decimal number exits with
  /// status 2.
  [[nodiscard]] std::uint64_t ResolvedSeed() const;
};

/// The full, deterministic schedule of a campaign: a pure function of
/// (spec, number of targets). Timing-independent — generation never looks
/// at a clock, so the plan replays identically on any machine.
struct FaultPlan {
  std::vector<PlannedFault> faults;
  std::size_t bursts = 0;

  static FaultPlan Generate(const CampaignSpec& spec, std::size_t n_targets);
};

struct FaultOutcome {
  std::size_t index = 0;  // position in the plan
  std::string target;
  FaultKind kind = FaultKind::kPanic;
  std::size_t burst = 0;
  bool recovered = false;
  bool reinitialized = false;  // corrupt checkpoint rebuilt from Init
  Nanos mttr_ns = 0;           // reboot total for this component, 0 if lost
};

struct WindowStat {
  std::uint64_t rounds = 0;
  std::uint64_t ok = 0;
  std::uint64_t recoveries = 0;  // reboots completed during this window
  /// Worst per-component health score observed in this window (adaptive
  /// campaigns only; 0 when health is off).
  double worst_score = 0.0;
  [[nodiscard]] double availability() const {
    return rounds == 0 ? 1.0 : static_cast<double>(ok) /
                                   static_cast<double>(rounds);
  }
};

struct Report {
  std::uint64_t seed = 0;
  std::size_t faults_planned = 0;
  std::size_t faults_fired = 0;
  std::size_t recovered = 0;
  std::size_t unrecovered = 0;
  std::size_t reinitialized = 0;
  std::uint64_t reboots = 0;
  std::uint64_t recovery_failures = 0;
  std::uint64_t replay_divergence = 0;
  std::size_t peak_concurrent_recoveries = 0;
  std::size_t overlapped_bursts = 0;  // bursts that reached >=2 in flight
  bool adaptive = false;
  std::uint64_t rejuvenations = 0;   // adaptive scheduler reboots
  std::uint64_t healthy_skips = 0;   // adaptive ticks that rebooted nothing
  double peak_health_score = 0.0;    // worst score seen across the campaign
  std::string aged_target;           // aging-phase victim (adaptive runs)
  std::uint64_t aging_rounds = 0;    // aging-phase rounds actually driven
  /// Rounds of leaking before the adaptive scheduler rejuvenated the aged
  /// component; -1 when it never did (or no aging phase ran).
  std::int64_t aging_rounds_to_rejuvenate = -1;
  /// Reboots of components other than the aged one during the aging phase —
  /// the "clean components left alone" signal; should stay 0.
  std::uint64_t aging_offtarget_reboots = 0;
  bool fail_stopped = false;
  std::vector<FaultOutcome> outcomes;
  std::vector<WindowStat> windows;
  Nanos mttr_p50_ns = 0;
  Nanos mttr_p95_ns = 0;
  Nanos mttr_max_ns = 0;

  [[nodiscard]] double min_availability() const;
  /// Campaign verdict: every fired fault recovered, no fail-stop, no replay
  /// divergence.
  [[nodiscard]] bool clean() const {
    return !fail_stopped && unrecovered == 0 && replay_divergence == 0;
  }

  void WriteJson(std::FILE* out) const;
  /// Availability curve as CSV (window,rounds,ok,availability,recoveries).
  void WriteCurveCsv(std::FILE* out) const;
};

class Campaign {
 public:
  Campaign(DasHarness& harness, CampaignSpec spec);

  /// Runs the whole planned campaign and scores it. Deterministic in its
  /// injection schedule; timings in the report come from the real clock.
  Report Run();

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  DasHarness& h_;
  CampaignSpec spec_;
  FaultPlan plan_;
};

}  // namespace vampos::chaos
