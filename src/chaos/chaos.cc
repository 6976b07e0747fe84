#include "chaos/chaos.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <system_error>
#include <utility>

#include "base/clock.h"
#include "base/rng.h"
#include "core/rejuvenation.h"

namespace vampos::chaos {

std::uint64_t CampaignSpec::ResolvedSeed() const {
  const char* env = std::getenv("VAMPOS_CHAOS_SEED");
  if (env == nullptr) return seed;
  // The whole value must be one number: a typo must not quietly run a
  // different campaign than the one it was meant to reproduce.
  std::uint64_t value = 0;
  const char* end = env + std::strlen(env);
  const auto [ptr, ec] = std::from_chars(env, end, value);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr,
                 "vampos: bad VAMPOS_CHAOS_SEED='%s' (expected a decimal "
                 "number in 0..18446744073709551615)\n",
                 env);
    std::exit(2);
  }
  return value;
}

namespace {

FaultKind PickKind(Rng& rng, int hang_weight) {
  const auto roll = static_cast<int>(rng.Below(100));
  if (roll < hang_weight) return FaultKind::kHang;
  // Remaining probability split evenly across the fail-stop kinds.
  switch ((roll - hang_weight) % 4) {
    case 0:
      return FaultKind::kPanic;
    case 1:
      return FaultKind::kMpkViolation;
    case 2:
      return FaultKind::kDeadlock;
    default:
      return FaultKind::kCorruptCheckpoint;
  }
}

}  // namespace

FaultPlan FaultPlan::Generate(const CampaignSpec& spec,
                              std::size_t n_targets) {
  FaultPlan plan;
  if (n_targets == 0 || spec.faults == 0) return plan;
  Rng rng(spec.seed);
  std::size_t burst = 0;
  while (plan.faults.size() < spec.faults) {
    std::size_t size = 1;
    if (spec.burst_percent > 0 &&
        rng.Chance(static_cast<std::uint64_t>(spec.burst_percent), 100)) {
      size = 2 + rng.Below(2);  // 2..3
    }
    size = std::min({size, n_targets, spec.faults - plan.faults.size()});
    std::vector<std::size_t> picked;
    while (picked.size() < size) {
      const std::size_t t = rng.Below(n_targets);
      if (std::find(picked.begin(), picked.end(), t) == picked.end()) {
        picked.push_back(t);
      }
    }
    for (const std::size_t t : picked) {
      plan.faults.push_back(
          PlannedFault{t, PickKind(rng, spec.hang_weight), burst});
    }
    burst++;
  }
  plan.bursts = burst;
  return plan;
}

Campaign::Campaign(DasHarness& harness, CampaignSpec spec)
    : h_(harness), spec_(std::move(spec)) {
  spec_.seed = spec_.ResolvedSeed();
  plan_ = FaultPlan::Generate(spec_, h_.targets().size());
}

Report Campaign::Run() {
  core::Runtime& rt = h_.rt();
  Report rep;
  rep.seed = spec_.seed;
  rep.faults_planned = plan_.faults.size();

  const auto counter = [&rt](const char* name) {
    return rt.metrics().GetCounter(name).value();
  };
  const std::uint64_t reboots0 = counter("rt.reboots");
  const std::uint64_t failures0 = counter("rt.recovery_failures");
  const std::uint64_t diverge0 = counter("rt.replay_divergence");

  // Adaptive mode: health telemetry plus a metric-driven scheduler. The
  // scheduler only ticks where `allow_rejuv` says so (settle rounds and the
  // aging phase), never while a burst's recoveries are still being counted —
  // an extra reboot mid-wait would satisfy the burst's completion check
  // before the injected faults actually recovered.
  obs::HealthMonitor* health = nullptr;
  std::optional<core::RejuvenationScheduler> sched;
  if (spec_.adaptive) {
    obs::HealthConfig hcfg;
    hcfg.window_ns = spec_.health_window_ns;
    // Campaign-scale detector tuning. Handler latencies are microseconds
    // here, so p99 noise easily doubles — drift needs a wide limit. And a
    // burst's downstream errors or a noisy drift reading alone (terms 0.5
    // 0.5) must not degrade a component that is merely collateral; a
    // saturated leak slope (0.6), an 8x drift (0.6), or a hang/fault (0.8)
    // should.
    hcfg.latency_drift_limit = 8.0;
    hcfg.degrade_score = 0.55;
    hcfg.leak_limit_bps = 2.0 * 1024.0 * 1024.0;
    health = &rt.EnableHealth(hcfg);
    sched.emplace(core::RejuvenationScheduler::ForAllComponents(
        rt, /*interval=*/0));
    sched->set_adaptive(*health);
    rep.adaptive = true;
  }
  bool allow_rejuv = false;

  // Reboots completed as of the end of each traffic round, so recoveries
  // can be attributed to availability windows afterwards. Adaptive runs
  // also keep the per-round worst health score for the window report.
  std::vector<std::size_t> reboots_by_round;
  std::vector<double> score_by_round;
  const auto drive_round = [&] {
    h_.TrafficRound();
    if (health != nullptr) {
      const Nanos now = rt.options().clock->Now();
      double worst = 0.0;
      for (const ComponentId target : h_.targets()) {
        worst = std::max(worst,
                         health->Assess(rt.GroupLeader(target), now).score);
      }
      score_by_round.push_back(worst);
      rep.peak_health_score = std::max(rep.peak_health_score, worst);
      if (sched.has_value() && allow_rejuv && rt.active_recoveries() == 0) {
        (void)sched->Tick();
      }
    }
    reboots_by_round.push_back(rt.reboot_history().size());
  };

  std::size_t i = 0;
  while (i < plan_.faults.size() && !rt.terminal_fault().has_value()) {
    // Inject the whole burst before any traffic runs.
    const std::size_t burst_id = plan_.faults[i].burst;
    std::size_t burst_size = 0;
    const std::size_t first = i;
    while (i < plan_.faults.size() && plan_.faults[i].burst == burst_id) {
      rt.InjectFault(h_.targets()[plan_.faults[i].target],
                     plan_.faults[i].kind);
      burst_size++;
      i++;
    }
    const std::size_t mark = rt.reboot_history().size();
    const std::uint64_t overlaps_before = counter("rt.recovery_overlaps");
    const std::uint64_t reinits_before = counter("rt.recovery_reinits");
    const std::uint64_t failures_before = counter("rt.recovery_failures");

    // Drive traffic until every injected fault has fired and recovered (or
    // provably failed), with a bounded round budget as a safety valve.
    for (int r = 0; r < 8 + 4 * static_cast<int>(burst_size); ++r) {
      drive_round();
      if (rt.terminal_fault().has_value()) break;
      const bool all_recovered =
          rt.reboot_history().size() >= mark + burst_size &&
          rt.active_recoveries() == 0;
      const bool gave_up = counter("rt.recovery_failures") > failures_before;
      if (all_recovered || gave_up) break;
    }
    allow_rejuv = true;
    for (int r = 0; r < spec_.settle_rounds; ++r) drive_round();
    allow_rejuv = false;

    // Score each fault in the burst: a reboot of its component completed
    // after the mark means it recovered; its MTTR is that reboot's total.
    const bool burst_reinit = counter("rt.recovery_reinits") > reinits_before;
    std::vector<bool> claimed(rt.reboot_history().size(), false);
    for (std::size_t f = first; f < i; ++f) {
      FaultOutcome out;
      out.index = f;
      out.target = h_.TargetName(plan_.faults[f].target);
      out.kind = plan_.faults[f].kind;
      out.burst = burst_id;
      const ComponentId id =
          rt.GroupLeader(h_.targets()[plan_.faults[f].target]);
      for (std::size_t hidx = mark; hidx < rt.reboot_history().size();
           ++hidx) {
        const core::RebootReport& rr = rt.reboot_history()[hidx];
        if (rr.component == id && !claimed[hidx]) {
          claimed[hidx] = true;
          out.recovered = true;
          out.mttr_ns = rr.total_ns;
          break;
        }
      }
      out.reinitialized = burst_reinit &&
                          out.kind == FaultKind::kCorruptCheckpoint &&
                          out.recovered;
      rep.faults_fired++;
      if (out.recovered) {
        rep.recovered++;
      } else {
        rep.unrecovered++;
      }
      if (out.reinitialized) rep.reinitialized++;
      rep.outcomes.push_back(std::move(out));
    }
    if (counter("rt.recovery_overlaps") > overlaps_before && burst_size >= 2) {
      rep.overlapped_bursts++;
    }
  }

  // Aging phase: leak real arena bytes from one component each round until
  // the leak-slope detector degrades it and the adaptive scheduler reboots
  // it (rebuilding the arena cures the leak) — or the round budget runs out.
  // Reboots of any *other* component here are the false-positive count.
  if (sched.has_value() && spec_.age_rounds > 0 && !h_.targets().empty() &&
      !rt.terminal_fault().has_value()) {
    const std::size_t tgt = spec_.age_target % h_.targets().size();
    const ComponentId aged = rt.GroupLeader(h_.targets()[tgt]);
    rep.aged_target = h_.TargetName(tgt);
    const std::size_t mark = rt.reboot_history().size();
    allow_rejuv = true;
    for (std::size_t r = 0; r < spec_.age_rounds; ++r) {
      comp::Component& victim = rt.component(aged);
      if (victim.has_alloc()) (void)victim.alloc().Alloc(spec_.age_bytes);
      drive_round();
      rep.aging_rounds++;
      bool rejuvenated = false;
      for (std::size_t hidx = mark; hidx < rt.reboot_history().size();
           ++hidx) {
        if (rt.reboot_history()[hidx].component == aged) {
          rejuvenated = true;
          break;
        }
      }
      if (rejuvenated) {
        rep.aging_rounds_to_rejuvenate = static_cast<std::int64_t>(r + 1);
        break;
      }
    }
    allow_rejuv = false;
    for (std::size_t hidx = mark; hidx < rt.reboot_history().size(); ++hidx) {
      if (rt.reboot_history()[hidx].component != aged) {
        rep.aging_offtarget_reboots++;
      }
    }
  }

  if (sched.has_value()) {
    rep.rejuvenations = sched->adaptive_reboots();
    rep.healthy_skips = sched->healthy_skips();
  }

  rep.fail_stopped = rt.terminal_fault().has_value();
  rep.reboots = counter("rt.reboots") - reboots0;
  rep.recovery_failures = counter("rt.recovery_failures") - failures0;
  rep.replay_divergence = counter("rt.replay_divergence") - diverge0;
  rep.peak_concurrent_recoveries = rt.peak_concurrent_recoveries();

  // Availability windows: bucket the rounds evenly and attribute completed
  // recoveries to the window their round fell in.
  const std::vector<bool>& results = h_.round_results();
  const std::size_t windows = std::max<std::size_t>(1, spec_.windows);
  rep.windows.assign(windows, WindowStat{});
  std::size_t prev_reboots = 0;
  for (std::size_t r = 0; r < results.size(); ++r) {
    WindowStat& w = rep.windows[r * windows / results.size()];
    w.rounds++;
    if (results[r]) w.ok++;
    if (r < reboots_by_round.size()) {
      w.recoveries += reboots_by_round[r] - prev_reboots;
      prev_reboots = reboots_by_round[r];
    }
    if (r < score_by_round.size()) {
      w.worst_score = std::max(w.worst_score, score_by_round[r]);
    }
  }

  std::vector<Nanos> mttrs;
  for (const FaultOutcome& out : rep.outcomes) {
    if (out.recovered) mttrs.push_back(out.mttr_ns);
  }
  if (!mttrs.empty()) {
    std::sort(mttrs.begin(), mttrs.end());
    rep.mttr_p50_ns = mttrs[mttrs.size() / 2];
    rep.mttr_p95_ns = mttrs[(mttrs.size() * 95) / 100];
    rep.mttr_max_ns = mttrs.back();
  }
  return rep;
}

double Report::min_availability() const {
  double min = 1.0;
  for (const WindowStat& w : windows) {
    if (w.rounds > 0) min = std::min(min, w.availability());
  }
  return min;
}

void Report::WriteJson(std::FILE* out) const {
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(seed));
  std::fprintf(out, "  \"faults_planned\": %zu,\n", faults_planned);
  std::fprintf(out, "  \"faults_fired\": %zu,\n", faults_fired);
  std::fprintf(out, "  \"recovered\": %zu,\n", recovered);
  std::fprintf(out, "  \"unrecovered\": %zu,\n", unrecovered);
  std::fprintf(out, "  \"reinitialized\": %zu,\n", reinitialized);
  std::fprintf(out, "  \"reboots\": %llu,\n",
               static_cast<unsigned long long>(reboots));
  std::fprintf(out, "  \"recovery_failures\": %llu,\n",
               static_cast<unsigned long long>(recovery_failures));
  std::fprintf(out, "  \"replay_divergence\": %llu,\n",
               static_cast<unsigned long long>(replay_divergence));
  std::fprintf(out, "  \"peak_concurrent_recoveries\": %zu,\n",
               peak_concurrent_recoveries);
  std::fprintf(out, "  \"overlapped_bursts\": %zu,\n", overlapped_bursts);
  std::fprintf(out, "  \"adaptive\": %s,\n", adaptive ? "true" : "false");
  std::fprintf(out, "  \"rejuvenations\": %llu,\n",
               static_cast<unsigned long long>(rejuvenations));
  std::fprintf(out, "  \"healthy_skips\": %llu,\n",
               static_cast<unsigned long long>(healthy_skips));
  std::fprintf(out, "  \"peak_health_score\": %.3f,\n", peak_health_score);
  std::fprintf(out, "  \"aged_target\": \"%s\",\n", aged_target.c_str());
  std::fprintf(out, "  \"aging_rounds\": %llu,\n",
               static_cast<unsigned long long>(aging_rounds));
  std::fprintf(out, "  \"aging_rounds_to_rejuvenate\": %lld,\n",
               static_cast<long long>(aging_rounds_to_rejuvenate));
  std::fprintf(out, "  \"aging_offtarget_reboots\": %llu,\n",
               static_cast<unsigned long long>(aging_offtarget_reboots));
  std::fprintf(out, "  \"fail_stopped\": %s,\n",
               fail_stopped ? "true" : "false");
  std::fprintf(out, "  \"min_availability\": %.4f,\n", min_availability());
  std::fprintf(out, "  \"mttr_p50_ns\": %lld,\n",
               static_cast<long long>(mttr_p50_ns));
  std::fprintf(out, "  \"mttr_p95_ns\": %lld,\n",
               static_cast<long long>(mttr_p95_ns));
  std::fprintf(out, "  \"mttr_max_ns\": %lld,\n",
               static_cast<long long>(mttr_max_ns));
  std::fprintf(out, "  \"windows\": [");
  for (std::size_t w = 0; w < windows.size(); ++w) {
    std::fprintf(out,
                 "%s\n    {\"rounds\": %llu, \"ok\": %llu, "
                 "\"availability\": %.4f, \"recoveries\": %llu, "
                 "\"worst_score\": %.3f}",
                 w == 0 ? "" : ",",
                 static_cast<unsigned long long>(windows[w].rounds),
                 static_cast<unsigned long long>(windows[w].ok),
                 windows[w].availability(),
                 static_cast<unsigned long long>(windows[w].recoveries),
                 windows[w].worst_score);
  }
  std::fprintf(out, "\n  ],\n");
  std::fprintf(out, "  \"faults\": [");
  for (std::size_t f = 0; f < outcomes.size(); ++f) {
    const FaultOutcome& o = outcomes[f];
    std::fprintf(out,
                 "%s\n    {\"index\": %zu, \"target\": \"%s\", "
                 "\"kind\": \"%s\", \"burst\": %zu, \"recovered\": %s, "
                 "\"reinitialized\": %s, \"mttr_ns\": %lld}",
                 f == 0 ? "" : ",", o.index, o.target.c_str(),
                 ToString(o.kind), o.burst, o.recovered ? "true" : "false",
                 o.reinitialized ? "true" : "false",
                 static_cast<long long>(o.mttr_ns));
  }
  std::fprintf(out, "\n  ]\n}\n");
}

void Report::WriteCurveCsv(std::FILE* out) const {
  std::fprintf(out, "window,rounds,ok,availability,recoveries,worst_score\n");
  for (std::size_t w = 0; w < windows.size(); ++w) {
    std::fprintf(out, "%zu,%llu,%llu,%.4f,%llu,%.3f\n", w,
                 static_cast<unsigned long long>(windows[w].rounds),
                 static_cast<unsigned long long>(windows[w].ok),
                 windows[w].availability(),
                 static_cast<unsigned long long>(windows[w].recoveries),
                 windows[w].worst_score);
  }
}

}  // namespace vampos::chaos
