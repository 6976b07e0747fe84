// Health telemetry tests: WindowedSeries edge cases, the HealthMonitor's
// detectors and hysteresis, the Prometheus exporter, the metrics-format
// knob, and the closed loop — a deterministic FakeClock aging run proving
// adaptive rejuvenation beats the blind round-robin, plus the
// zero-overhead-when-off guarantee (like the flight recorder's).
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <limits>
#include <string>

#include "core/rejuvenation.h"
#include "obs/health.h"
#include "obs/timeseries.h"
#include "testing.h"

namespace vampos {
namespace {

using core::Runtime;
using core::RuntimeOptions;
using obs::HealthConfig;
using obs::HealthMonitor;
using obs::HealthSignals;
using obs::WindowedSeries;
using testing::CounterComponent;
using testing::RunApp;
using testing::StoreComponent;
using testing::TickerComponent;

// ------------------------------------------------------- WindowedSeries

TEST(WindowedSeries, AccumulatesWithinOneWindow) {
  WindowedSeries s(1000, 4);
  s.Record(10, 5);
  s.Record(20, 7);
  s.Record(30, 3);
  EXPECT_EQ(s.closed(), 0u);
  EXPECT_EQ(s.open().count, 3u);
  EXPECT_EQ(s.open().sum, 15);
  EXPECT_EQ(s.open().min, 3);
  EXPECT_EQ(s.open().max, 7);
  EXPECT_EQ(s.open().last, 3);
}

TEST(WindowedSeries, WindowWrapDropsOldestHistory) {
  WindowedSeries s(1000, 4);  // 3 closed windows + the open one
  // One sample per window for 6 windows: only the newest 3 closed survive.
  for (std::int64_t w = 0; w < 6; ++w) {
    s.Record(w * 1000 + 500, w);
  }
  EXPECT_EQ(s.closed(), 3u);
  EXPECT_EQ(s.window(0).last, 4);  // newest closed
  EXPECT_EQ(s.window(1).last, 3);
  EXPECT_EQ(s.window(2).last, 2);  // window 0 and 1 fell off the ring
  EXPECT_EQ(s.open().last, 5);
  // CountOver caps at available history.
  EXPECT_EQ(s.CountOver(100), 4u);
}

TEST(WindowedSeries, EmptyWindowPercentilesReportZero) {
  WindowedSeries s(1000, 4);
  EXPECT_EQ(s.Percentile(99, 4), 0.0);
  // Record in one window, then skip two: skipped windows are closed empty.
  s.Record(500, 42);
  s.Advance(3500);
  EXPECT_EQ(s.closed(), 3u);
  EXPECT_EQ(s.window(0).count, 0u);  // the two skipped windows
  EXPECT_EQ(s.window(1).count, 0u);
  EXPECT_EQ(s.window(2).count, 1u);
  // The merged percentile still finds the one real sample...
  EXPECT_GT(s.Percentile(99, 4), 0.0);
  // ...and a merge over only the empty windows reports 0.
  EXPECT_EQ(s.Merged(0, 2).Percentile(99), 0.0);
}

TEST(WindowedSeries, IdleGapLongerThanRingDiscardsAllHistory) {
  WindowedSeries s(1000, 4);
  for (std::int64_t w = 0; w < 4; ++w) s.Record(w * 1000, 1);
  EXPECT_EQ(s.closed(), 3u);
  // The clock goes idle for far longer than the ring spans.
  s.Advance(1'000'000);
  EXPECT_EQ(s.CountOver(100), 0u);
  EXPECT_EQ(s.RatePerSec(100), 0.0);
  // Everything the ring now holds is a closed empty window.
  for (std::size_t i = 0; i < s.closed(); ++i) {
    EXPECT_EQ(s.window(i).count, 0u);
  }
}

// A component that reboots mid-window restarts its series in the very next
// window; none of the pre-reboot windows may count as its history.
TEST(WindowedSeries, ResetDropsAllHistory) {
  WindowedSeries s(1000, 4);
  for (std::int64_t w = 0; w < 3; ++w) s.Record(w * 1000 + 500, 100);
  EXPECT_EQ(s.closed(), 2u);
  s.Reset();
  EXPECT_EQ(s.closed(), 0u);
  EXPECT_EQ(s.CountOver(100), 0u);
  s.Record(3500, 7);
  EXPECT_EQ(s.closed(), 0u);
  EXPECT_EQ(s.CountOver(100), 1u);
  EXPECT_EQ(s.Percentile(99, 100), 0.0);  // no closed window yet
}

TEST(WindowedSeries, NonMonotonicClockIsANoOp) {
  WindowedSeries s(1000, 4);
  s.Record(5500, 9);
  s.Advance(1200);  // clock stepped backwards: ignored
  EXPECT_EQ(s.open().last, 9);
  s.Record(1200, 7);  // recorded into the still-open newest window
  EXPECT_EQ(s.open().count, 2u);
}

TEST(WindowedSeries, SumSaturatesInsteadOfWrapping) {
  WindowedSeries s(1000, 4);
  const std::int64_t big = std::numeric_limits<std::int64_t>::max() / 2 + 1;
  s.Record(10, big);
  s.Record(20, big);
  s.Record(30, big);
  EXPECT_EQ(s.open().sum, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(s.open().count, 3u);
  EXPECT_EQ(s.open().max, big);
}

TEST(WindowedSeries, SlopeRecoversLinearGrowth) {
  WindowedSeries s(1'000'000'000, 8);  // 1 s windows
  // A gauge growing 4096 per second, one sample per window.
  for (std::int64_t w = 0; w < 6; ++w) {
    s.Record(w * 1'000'000'000 + 500, (w + 1) * 4096);
  }
  EXPECT_NEAR(s.SlopePerSec(8), 4096.0, 1.0);
  // A flat gauge has no slope.
  WindowedSeries flat(1'000'000'000, 8);
  for (std::int64_t w = 0; w < 6; ++w) {
    flat.Record(w * 1'000'000'000 + 500, 777);
  }
  EXPECT_EQ(flat.SlopePerSec(8), 0.0);
  // Fewer than two sampled windows says nothing.
  WindowedSeries thin(1'000'000'000, 8);
  thin.Record(500, 100);
  EXPECT_EQ(thin.SlopePerSec(8), 0.0);
}

TEST(WindowedSeries, RatePerSecCountsClosedWindowsOnly) {
  WindowedSeries s(1'000'000'000, 4);
  for (int i = 0; i < 10; ++i) s.Record(500, 1);     // window 0: 10 samples
  for (int i = 0; i < 20; ++i) s.Record(1'000'000'500, 1);  // window 1
  s.Advance(2'000'000'500);  // close window 1
  EXPECT_NEAR(s.RatePerSec(1), 20.0, 0.01);   // newest closed only
  EXPECT_NEAR(s.RatePerSec(2), 15.0, 0.01);   // averaged over both
}

// -------------------------------------------------------- HealthMonitor

HealthConfig SmallCfg() {
  HealthConfig cfg;
  cfg.window_ns = 1000;  // 1 us windows: trivial to step with integer nows
  cfg.windows = 4;
  cfg.leak_limit_bps = 1024;
  return cfg;
}

TEST(HealthMonitor, LeakSlopeDegradesAndHysteresisHolds) {
  HealthMonitor hm(SmallCfg());
  hm.Track(1, "leaky");
  // Arena grows fast: slope saturates the leak term (weight 0.6 >= 0.5).
  for (std::int64_t w = 0; w < 4; ++w) {
    hm.OnSample(1, w * 1000 + 500, (w + 1) * 100'000, 0);
  }
  HealthSignals s = hm.Assess(1, 4500);
  EXPECT_GT(s.leak_bps, 1024.0);
  EXPECT_GE(s.score, 0.5);
  EXPECT_TRUE(s.degraded);
  EXPECT_TRUE(hm.IsDegraded(1));

  // The leak windows age out without new samples; the score collapses but
  // the latch only releases below healthy_score.
  s = hm.Assess(1, 20'000);  // beyond the ring: history gone
  EXPECT_EQ(s.leak_bps, 0.0);
  EXPECT_LT(s.score, 0.25);
  EXPECT_FALSE(s.degraded);
  EXPECT_FALSE(hm.IsDegraded(1));
}

TEST(HealthMonitor, ErrorRateAloneStaysBelowDegrade) {
  // Errors carry weight 0.5 < degrade_score is false (0.5 >= 0.5) — a fully
  // saturated error rate does degrade, but a half-saturated one does not.
  HealthConfig cfg = SmallCfg();
  cfg.err_rate_limit = 0.5;
  HealthMonitor hm(cfg);
  for (int i = 0; i < 10; ++i) hm.OnRequest(1, 100 + i, 10);
  hm.OnError(1, 150);  // 1 error / 10 requests = 0.1 « limit 0.5
  const HealthSignals s = hm.Assess(1, 900);
  EXPECT_NEAR(s.err_per_req, 0.1, 1e-9);
  EXPECT_LT(s.score, 0.5);
  EXPECT_FALSE(s.degraded);
}

TEST(HealthMonitor, HangOrFaultDegradesImmediately) {
  HealthMonitor hm(SmallCfg());
  hm.OnHang(7, 100);
  EXPECT_TRUE(hm.Assess(7, 200).degraded);
  hm.OnReboot(7, 300);  // reboot clears the history and the latch
  EXPECT_FALSE(hm.Assess(7, 400).degraded);
  EXPECT_EQ(hm.Assess(7, 500).hangs, 0u);
}

TEST(HealthMonitor, WorstPicksHighestScoringDegraded) {
  HealthMonitor hm(SmallCfg());
  hm.OnFault(1, 100);              // score 0.8
  hm.OnFault(2, 100);
  hm.OnHang(2, 100);               // score 1.0 (fault + hang)
  EXPECT_EQ(hm.Worst(200).value_or(-1), 2);
  hm.OnReboot(1, 300);
  hm.OnReboot(2, 300);
  EXPECT_FALSE(hm.Worst(400).has_value());
}

TEST(HealthMonitor, ExportsGaugesToRegistry) {
  obs::MetricsRegistry reg;
  HealthMonitor hm(SmallCfg());
  hm.BindMetrics(&reg);
  hm.Track(3, "vfs");
  for (int i = 0; i < 8; ++i) hm.OnRequest(3, 100 + i, 2000);
  (void)hm.Assess(3, 1500);
  ASSERT_NE(reg.FindCounter("health.vfs.p99_ns"), nullptr);
  ASSERT_NE(reg.FindCounter("health.vfs.score_x1000"), nullptr);
  EXPECT_GT(reg.FindCounter("health.vfs.req_per_sec")->value(), 0u);
  EXPECT_EQ(reg.FindCounter("health.vfs.degraded")->value(), 0u);
  EXPECT_GT(reg.FindCounter("health.assessments")->value(), 0u);
}

// --------------------------------------------------- Prometheus exporter

TEST(Metrics, WritePrometheusEmitsCountersAndSummaries) {
  obs::MetricsRegistry reg;
  reg.GetCounter("rt.reboots").Add(5);
  obs::Histogram& h = reg.GetHistogram("rt.call_ns");
  for (int i = 1; i <= 100; ++i) h.Record(i);

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  reg.WritePrometheus(f);
  std::fseek(f, 0, SEEK_SET);
  std::string out;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) out += buf;
  std::fclose(f);

  EXPECT_NE(out.find("# TYPE vampos_rt_reboots counter"), std::string::npos);
  EXPECT_NE(out.find("vampos_rt_reboots 5"), std::string::npos);
  EXPECT_NE(out.find("# TYPE vampos_rt_call_ns summary"), std::string::npos);
  EXPECT_NE(out.find("vampos_rt_call_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(out.find("vampos_rt_call_ns_count 100"), std::string::npos);
}

// ---------------------------------------------------- metrics-format knob

TEST(MetricsFormatKnobDeathTest, UnknownFormatExitsWithUsageError) {
  EXPECT_EXIT(
      {
        setenv("VAMPOS_METRICS_FORMAT", "xml", 1);
        RuntimeOptions opts;
        Runtime rt(opts);
        std::exit(0);  // unreachable: the ctor must reject the knob
      },
      ::testing::ExitedWithCode(2), "unrecognized VAMPOS_METRICS_FORMAT");
}

TEST(MetricsFormatKnob, KnownFormatsAreAccepted) {
  for (const char* fmt : {"text", "json", "prom"}) {
    setenv("VAMPOS_METRICS_FORMAT", fmt, 1);
    RuntimeOptions opts;
    Runtime rt(opts);  // constructing is the assertion: no exit(2)
  }
  unsetenv("VAMPOS_METRICS_FORMAT");
}

// ------------------------------------------------------ runtime closed loop

struct Rig {
  explicit Rig(RuntimeOptions opts) : rt(opts) {
    store = rt.AddComponent(std::make_unique<StoreComponent>());
    counter = rt.AddComponent(std::make_unique<CounterComponent>());
    ticker = rt.AddComponent(std::make_unique<TickerComponent>());
    rt.AddAppDependency(counter);
    rt.AddAppDependency(ticker);
    rt.AddDependency(counter, store);
  }
  Runtime rt;
  ComponentId store, counter, ticker;
};

RuntimeOptions HealthOpts(FakeClock* clock) {
  RuntimeOptions o;
  o.hang_threshold = 0;
  o.clock = clock;
  o.health = true;
  o.health_config.window_ns = kSecond;
  o.health_config.windows = 8;
  o.health_config.leak_limit_bps = 1024;  // 1 KiB/s counts as a leak
  return o;
}

/// Calls counter.leak(4096) once and pumps the runtime (which also drives
/// the health monitor's periodic arena sampling).
void LeakRound(Rig& rig, FunctionId leak) {
  RunApp(rig.rt, [&] {
    rig.rt.Call(leak, {msg::MsgValue(std::int64_t{4096})});
  });
}

TEST(AdaptiveRejuvenation, RebootsLeakerBeforeRoundRobinWouldReachIt) {
  const Nanos interval = 30 * kSecond;

  // --- adaptive run: leak 4 KiB/s into counter, tick every simulated second
  FakeClock clock;
  Rig rig(HealthOpts(&clock));
  rig.rt.Boot();
  ASSERT_NE(rig.rt.health(), nullptr);
  const FunctionId leak = rig.rt.Lookup("counter", "leak");
  auto sched =
      core::RejuvenationScheduler::ForAllComponents(rig.rt, interval);
  sched.set_adaptive(*rig.rt.health());
  EXPECT_TRUE(sched.adaptive());
  EXPECT_EQ(sched.plan_size(), 3u);  // ticker (stateless first), store, counter

  Nanos adaptive_reboot_at = -1;
  for (int sec = 1; sec <= 120 && adaptive_reboot_at < 0; ++sec) {
    clock.Advance(kSecond);
    LeakRound(rig, leak);
    const auto report = sched.Tick();
    if (report.has_value()) {
      EXPECT_EQ(report->component, rig.counter);  // only the leaker
      adaptive_reboot_at = clock.Now();
    }
  }
  ASSERT_GT(adaptive_reboot_at, 0);
  // The first due tick (one interval in) already picks the leaker: the
  // round-robin plan would spend its first two slots on healthy components.
  EXPECT_EQ(adaptive_reboot_at, interval);
  EXPECT_EQ(sched.adaptive_reboots(), 1u);
  // Zero reboots of clean components, ever.
  for (const core::RebootReport& rr : rig.rt.reboot_history()) {
    EXPECT_EQ(rr.component, rig.counter);
  }
  EXPECT_EQ(rig.rt.reboot_history().size(), 1u);

  // The leak is cured (arena rebuilt): subsequent due ticks skip everyone.
  clock.Advance(interval);
  RunApp(rig.rt, [&] {});  // let the monitor sample the healthy arena
  EXPECT_FALSE(sched.Tick().has_value());
  EXPECT_GT(sched.healthy_skips(), 0u);

  // --- fixed run: same leak, blind round-robin
  FakeClock fclock;
  Rig frig(HealthOpts(&fclock));
  frig.rt.Boot();
  const FunctionId fleak = frig.rt.Lookup("counter", "leak");
  auto fsched =
      core::RejuvenationScheduler::ForAllComponents(frig.rt, interval);
  Nanos fixed_reboot_at = -1;
  std::size_t fixed_clean_reboots = 0;
  for (int sec = 1; sec <= 120 && fixed_reboot_at < 0; ++sec) {
    fclock.Advance(kSecond);
    LeakRound(frig, fleak);
    const auto report = fsched.Tick();
    if (report.has_value()) {
      if (report->component == frig.counter) {
        fixed_reboot_at = fclock.Now();
      } else {
        fixed_clean_reboots++;  // a healthy component paid a reboot
      }
    }
  }
  ASSERT_GT(fixed_reboot_at, 0);
  EXPECT_EQ(fixed_reboot_at, 3 * interval);  // third slot in the plan
  EXPECT_EQ(fixed_clean_reboots, 2u);        // ticker + store, both clean

  // The adaptive scheduler reached the aging component one plan-cycle
  // earlier and disturbed nobody else.
  EXPECT_LT(adaptive_reboot_at, fixed_reboot_at);
}

TEST(HealthOff, NullMonitorZeroAllocationIdenticalBehavior) {
  RuntimeOptions off_opts;
  off_opts.hang_threshold = 0;
  Rig off(off_opts);
  off.rt.Boot();
  const FunctionId inc_off = off.rt.Lookup("counter", "inc");
  RunApp(off.rt, [&] {
    for (int i = 0; i < 16; ++i) off.rt.Call(inc_off, {});
  });

  RuntimeOptions on_opts;
  on_opts.hang_threshold = 0;
  on_opts.health = true;
  Rig on(on_opts);
  on.rt.Boot();
  const FunctionId inc_on = on.rt.Lookup("counter", "inc");
  RunApp(on.rt, [&] {
    for (int i = 0; i < 16; ++i) on.rt.Call(inc_on, {});
  });

  // Off: no monitor object, no health counters in the registry — the hot
  // path is a single null check, exactly like the disabled recorder.
  EXPECT_EQ(off.rt.health(), nullptr);
  EXPECT_EQ(off.rt.metrics().FindCounter("health.samples"), nullptr);
  EXPECT_EQ(off.rt.metrics().FindCounter("health.counter.score_x1000"),
            nullptr);
  // On: monitor tracks the leaders and sampled at least once.
  ASSERT_NE(on.rt.health(), nullptr);
  EXPECT_EQ(on.rt.health()->tracked(), 3u);

  // Health must be purely observational: behavior counters match.
  const core::RuntimeStats a = off.rt.Stats();
  const core::RuntimeStats b = on.rt.Stats();
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.log_appends, b.log_appends);
  EXPECT_EQ(a.reboots, b.reboots);
}

TEST(HealthDump, DumpStateShowsPerComponentLines) {
  RuntimeOptions opts;
  opts.hang_threshold = 0;
  opts.health = true;
  Rig rig(opts);
  rig.rt.Boot();
  const FunctionId inc = rig.rt.Lookup("counter", "inc");
  RunApp(rig.rt, [&] { rig.rt.Call(inc, {}); });

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  rig.rt.DumpState(f);
  std::fseek(f, 0, SEEK_SET);
  std::string out;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) out += buf;
  std::fclose(f);
  EXPECT_NE(out.find("=== health"), std::string::npos);
  EXPECT_NE(out.find("counter"), std::string::npos);
  EXPECT_NE(out.find("score="), std::string::npos);
}

}  // namespace
}  // namespace vampos
