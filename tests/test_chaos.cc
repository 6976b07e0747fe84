// Chaos subsystem: overlapping component recoveries (dependency-ordered
// replay, two jobs in flight, failed-restore isolation) and the seeded
// fault-injection campaign engine (deterministic plans, the env repro knob,
// and a mini-campaign against the live DaS stack). Recovery never starts an
// OS thread: the thread count is checked around whole recoveries.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <iterator>

#include "chaos/chaos.h"
#include "chaos/harness.h"
#include "obs/trace.h"
#include "testing.h"

namespace vampos {
namespace {

using core::Runtime;
using core::RuntimeOptions;
using testing::CounterComponent;
using testing::RunApp;
using testing::StoreComponent;

RuntimeOptions ConcurrentOpts() {
  RuntimeOptions o;
  o.hang_threshold = 0;
  o.tracing = true;
  return o;
}

// OS threads in this process. Tests compare counts taken before and after
// rather than expecting 1, so a sanitizer runtime's own thread is harmless.
std::ptrdiff_t ThreadCount() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator{});
}

struct Pair {
  ComponentId counter = kComponentNone;
  ComponentId store = kComponentNone;
  FunctionId inc = 0;
  FunctionId get = 0;
};

// counter calls store on every inc, so counter's group depends on store's:
// when both are down, store must finish its replay before counter starts.
Pair BuildPair(Runtime& rt) {
  Pair p;
  p.store = rt.AddComponent(std::make_unique<StoreComponent>());
  p.counter = rt.AddComponent(std::make_unique<CounterComponent>());
  rt.AddDependency(p.counter, p.store);
  rt.AddAppDependency(p.counter);
  rt.AddAppDependency(p.store);
  rt.Boot();
  p.inc = rt.Lookup("counter", "inc");
  p.get = rt.Lookup("counter", "get");
  return p;
}

void DriveRecoveries(Runtime& rt) {
  int guard = 0;
  while (rt.active_recoveries() > 0) {
    rt.Step();
    ASSERT_LT(++guard, 2000000) << "recoveries never drained";
  }
}

TEST(ChaosRecovery, DependencyOrderedConcurrentReplay) {
  Runtime rt(ConcurrentOpts());
  Pair p = BuildPair(rt);
  RunApp(rt, [&] {
    for (int i = 0; i < 4; ++i) rt.Call(p.inc, {});
  });

  ASSERT_TRUE(rt.RebootAsync(p.counter).ok());
  ASSERT_TRUE(rt.RebootAsync(p.store).ok());
  EXPECT_EQ(rt.active_recoveries(), 2u);
  DriveRecoveries(rt);

  // The recorder proves the ordering: store's replay must END before
  // counter's replay BEGINS, because counter calls into store.
  Nanos store_replay_end = -1;
  Nanos counter_replay_begin = -1;
  for (const obs::TraceEvent& e : rt.recorder().Snapshot()) {
    if (e.kind != obs::EventKind::kRebootReplay) continue;
    if (e.comp == p.store && e.phase == obs::TracePhase::kEnd) {
      store_replay_end = e.ts;
    }
    if (e.comp == p.counter && e.phase == obs::TracePhase::kBegin &&
        counter_replay_begin < 0) {
      counter_replay_begin = e.ts;
    }
  }
  ASSERT_GE(store_replay_end, 0) << "store replay never recorded";
  ASSERT_GE(counter_replay_begin, 0) << "counter replay never recorded";
  EXPECT_LE(store_replay_end, counter_replay_begin);

  // Both groups are back and the replayed state is intact.
  std::int64_t v = 0;
  RunApp(rt, [&] { v = rt.Call(p.get, {}).i64(); });
  EXPECT_EQ(v, 4);
}

TEST(ChaosRecovery, OverlappingRebootsReachTwoInFlight) {
  const std::ptrdiff_t threads_before = ThreadCount();
  Runtime rt(ConcurrentOpts());
  Pair p = BuildPair(rt);
  RunApp(rt, [&] {
    for (int i = 0; i < 2; ++i) rt.Call(p.inc, {});
  });

  ASSERT_TRUE(rt.RebootAsync(p.store).ok());
  ASSERT_TRUE(rt.RebootAsync(p.counter).ok());
  DriveRecoveries(rt);
  EXPECT_GE(rt.peak_concurrent_recoveries(), 2u);

  // Both whole-reboot spans opened before either closed.
  Nanos last_begin = -1;
  Nanos first_end = -1;
  for (const obs::TraceEvent& e : rt.recorder().Snapshot()) {
    if (e.kind != obs::EventKind::kReboot) continue;
    if (e.phase == obs::TracePhase::kBegin && e.ts > last_begin) {
      last_begin = e.ts;
    }
    if (e.phase == obs::TracePhase::kEnd &&
        (first_end < 0 || e.ts < first_end)) {
      first_end = e.ts;
    }
  }
  ASSERT_GE(last_begin, 0);
  ASSERT_GE(first_end, 0);
  EXPECT_LE(last_begin, first_end);
  // Two recoveries overlapped on the message thread alone.
  EXPECT_EQ(ThreadCount(), threads_before);
}

// Satellite regression: a reboot whose restore fails (corrupt checkpoint,
// no reinit fallback) while another reboot is in flight must fail cleanly —
// bumping rt.recovery_failures — without stalling the other recovery or the
// runtime. This is the "failed job unblocks its dependents" contract.
TEST(ChaosRecovery, FailedRestoreDoesNotStallOtherRecoveries) {
  Runtime rt(ConcurrentOpts());
  Pair p = BuildPair(rt);
  RunApp(rt, [&] {
    for (int i = 0; i < 3; ++i) rt.Call(p.inc, {});
  });

  const std::uint64_t failures0 =
      rt.metrics().GetCounter("rt.recovery_failures").value();
  rt.CorruptCheckpointForTest(p.store);
  ASSERT_TRUE(rt.RebootAsync(p.store).ok());
  ASSERT_TRUE(rt.RebootAsync(p.counter).ok());
  DriveRecoveries(rt);

  // store's job failed and was accounted; counter's reboot — whose replay
  // was dependency-blocked on store's job — still completed.
  EXPECT_EQ(rt.metrics().GetCounter("rt.recovery_failures").value(),
            failures0 + 1);
  std::int64_t v = -1;
  RunApp(rt, [&] { v = rt.Call(p.get, {}).i64(); });
  EXPECT_EQ(v, 3);
  EXPECT_EQ(rt.active_recoveries(), 0u);
}

TEST(ChaosPlan, GenerationIsDeterministic) {
  chaos::CampaignSpec spec;
  spec.seed = 99;
  spec.faults = 60;
  const chaos::FaultPlan a = chaos::FaultPlan::Generate(spec, 5);
  const chaos::FaultPlan b = chaos::FaultPlan::Generate(spec, 5);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  ASSERT_EQ(a.faults.size(), 60u);
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].target, b.faults[i].target) << i;
    EXPECT_EQ(a.faults[i].kind, b.faults[i].kind) << i;
    EXPECT_EQ(a.faults[i].burst, b.faults[i].burst) << i;
  }

  spec.seed = 100;
  const chaos::FaultPlan c = chaos::FaultPlan::Generate(spec, 5);
  bool differs = false;
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    if (a.faults[i].target != c.faults[i].target ||
        a.faults[i].kind != c.faults[i].kind) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs) << "different seeds produced identical plans";
}

TEST(ChaosPlan, EnvSeedOverridesSpec) {
  chaos::CampaignSpec spec;
  spec.seed = 7;
  ASSERT_EQ(setenv("VAMPOS_CHAOS_SEED", "123", 1), 0);
  EXPECT_EQ(spec.ResolvedSeed(), 123u);
  // Both ends of the range are valid seeds.
  ASSERT_EQ(setenv("VAMPOS_CHAOS_SEED", "0", 1), 0);
  EXPECT_EQ(spec.ResolvedSeed(), 0u);
  ASSERT_EQ(setenv("VAMPOS_CHAOS_SEED", "18446744073709551615", 1), 0);
  EXPECT_EQ(spec.ResolvedSeed(), 18446744073709551615u);
  ASSERT_EQ(unsetenv("VAMPOS_CHAOS_SEED"), 0);
  EXPECT_EQ(spec.ResolvedSeed(), 7u);
}

// A malformed override is a usage error: "12x" must not run seed 12, and
// "abc" must not fall back to the spec seed.
TEST(ChaosPlanDeathTest, MalformedEnvSeedExitsWithUsageError) {
  for (const char* bad : {"12x", "abc", "", " 5", "-1",
                          "18446744073709551616"}) {
    EXPECT_EXIT(
        {
          setenv("VAMPOS_CHAOS_SEED", bad, 1);
          (void)chaos::CampaignSpec().ResolvedSeed();
          std::exit(0);  // unreachable: ResolvedSeed must reject the value
        },
        ::testing::ExitedWithCode(2), "bad VAMPOS_CHAOS_SEED")
        << "value '" << bad << "'";
  }
}

// The acceptance mini-campaign: 200 seeded faults against the live stack,
// every fault recovered, no fail-stop, no replay divergence, no OS thread
// started, and the process survives (ASan keeps this honest).
TEST(ChaosCampaign, MiniCampaignRunsClean) {
  const std::ptrdiff_t threads_before = ThreadCount();
  chaos::DasHarness harness;
  chaos::CampaignSpec spec;
  spec.seed = 7;
  spec.faults = 200;
  spec.windows = 5;
  chaos::Campaign campaign(harness, spec);
  const chaos::Report report = campaign.Run();

  EXPECT_TRUE(report.clean())
      << "unrecovered=" << report.unrecovered
      << " fail_stopped=" << report.fail_stopped
      << " replay_divergence=" << report.replay_divergence;
  EXPECT_EQ(report.faults_fired, 200u);
  EXPECT_EQ(report.unrecovered, 0u);
  EXPECT_FALSE(report.fail_stopped);
  EXPECT_EQ(report.recovered, 200u);
  ASSERT_EQ(report.windows.size(), 5u);
  std::uint64_t rounds = 0;
  for (const chaos::WindowStat& w : report.windows) rounds += w.rounds;
  EXPECT_GT(rounds, 0u);
  // Taken while the harness (and its runtime) is still alive.
  EXPECT_EQ(ThreadCount(), threads_before);
}

}  // namespace
}  // namespace vampos
