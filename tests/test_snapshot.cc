// Page-granular checkpoint engine tests: diff-restore equivalence against
// the full-copy engine (randomized mutation fuzz), zero-page elision,
// baseline sharing, size-mismatch error paths, and the runtime-level
// properties the paper cares about — incremental reboots moving a small
// fraction of the bytes, corrupt checkpoints failing the reboot (not the
// process), and rejuvenation-time checkpoint refresh.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "core/rejuvenation.h"
#include "mem/arena.h"
#include "mem/snapshot.h"
#include "testing.h"

namespace vampos {
namespace {

using core::Mode;
using core::RebootReport;
using core::Runtime;
using core::RuntimeOptions;
using mem::Arena;
using mem::PageBaseline;
using mem::Snapshot;
using mem::SnapshotConfig;
using mem::SnapshotMode;
using mem::SnapshotStats;
using msg::MsgValue;
using testing::CounterComponent;
using testing::RunApp;
using testing::TickerComponent;

constexpr std::size_t kPage = Arena::kPageSize;

SnapshotConfig IncrementalCfg(PageBaseline* baseline = nullptr) {
  SnapshotConfig cfg;
  cfg.mode = SnapshotMode::kIncremental;
  cfg.baseline = baseline;
  return cfg;
}

void FillRandom(Arena& arena, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> byte(0, 255);
  for (std::size_t i = 0; i < arena.size(); ++i) {
    arena.base()[i] = static_cast<std::byte>(byte(rng));
  }
}

// --------------------------------------------------- engine equivalence

TEST(SnapshotIncremental, RoundTripRestoresBytes) {
  Arena arena(16 * kPage);
  std::mt19937_64 rng(7);
  FillRandom(arena, rng);
  std::vector<std::byte> original(arena.base(), arena.base() + arena.size());

  Snapshot snap = Snapshot::Capture(arena, IncrementalCfg());
  FillRandom(arena, rng);  // scribble everywhere
  ASSERT_TRUE(snap.Restore(arena, IncrementalCfg()).ok());
  EXPECT_EQ(std::memcmp(arena.base(), original.data(), arena.size()), 0);
}

// The core equivalence property: after any sequence of arena mutations, a
// diff-restore from an incremental snapshot must leave the arena
// byte-identical to a full-copy restore of the same captured image.
TEST(SnapshotIncremental, FuzzDiffRestoreMatchesFullCopy) {
  constexpr std::size_t kPages = 32;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::mt19937_64 rng(seed);
    Arena incr_arena(kPages * kPage, "incr");
    Arena full_arena(kPages * kPage, "full");
    FillRandom(incr_arena, rng);
    // Some all-zero pages in the initial image exercise elision.
    std::memset(incr_arena.base() + 3 * kPage, 0, 2 * kPage);
    std::memcpy(full_arena.base(), incr_arena.base(), incr_arena.size());

    PageBaseline baseline;
    Snapshot incr = Snapshot::Capture(incr_arena, IncrementalCfg(&baseline));
    Snapshot full = Snapshot::Capture(full_arena);

    std::uniform_int_distribution<std::size_t> off_d(0, kPages * kPage - 1);
    std::uniform_int_distribution<std::size_t> len_d(1, 3 * kPage);
    std::uniform_int_distribution<int> kind_d(0, 3);
    std::uniform_int_distribution<int> byte_d(0, 255);
    for (int round = 0; round < 20; ++round) {
      // Mutate both arenas identically: byte scribbles, page zeroing,
      // whole-page rewrites, and cross-page-boundary runs.
      const int mutations = 1 + kind_d(rng);
      for (int m = 0; m < mutations; ++m) {
        const std::size_t off = off_d(rng);
        const std::size_t len =
            std::min(len_d(rng), kPages * kPage - off);
        switch (kind_d(rng)) {
          case 0:
            for (std::size_t i = off; i < off + len; ++i) {
              incr_arena.base()[i] = static_cast<std::byte>(byte_d(rng));
            }
            break;
          case 1:
            std::memset(incr_arena.base() + (off / kPage) * kPage, 0, kPage);
            break;
          case 2:
            std::memset(incr_arena.base() + off, byte_d(rng), len);
            break;
          case 3:
          default:
            break;  // no-op round: clean pages must also restore correctly
        }
      }
      std::memcpy(full_arena.base(), incr_arena.base(), incr_arena.size());

      ASSERT_TRUE(incr.Restore(incr_arena, IncrementalCfg(&baseline)).ok());
      ASSERT_TRUE(full.Restore(full_arena).ok());
      ASSERT_EQ(std::memcmp(incr_arena.base(), full_arena.base(),
                            incr_arena.size()),
                0)
          << "divergence at seed " << seed << " round " << round;
    }
  }
}

// Recapture must track the live arena exactly as a fresh capture would,
// across dirty/zero/clean transitions.
TEST(SnapshotIncremental, FuzzRecaptureMatchesFreshCapture) {
  constexpr std::size_t kPages = 16;
  std::mt19937_64 rng(42);
  Arena arena(kPages * kPage);
  FillRandom(arena, rng);
  Snapshot snap = Snapshot::Capture(arena, IncrementalCfg());

  std::uniform_int_distribution<std::size_t> page_d(0, kPages - 1);
  std::uniform_int_distribution<int> byte_d(0, 255);
  for (int round = 0; round < 30; ++round) {
    const std::size_t page = page_d(rng);
    if (round % 3 == 0) {
      std::memset(arena.base() + page * kPage, 0, kPage);  // page goes zero
    } else {
      arena.base()[page * kPage + static_cast<std::size_t>(byte_d(rng))] =
          static_cast<std::byte>(byte_d(rng));
    }
    ASSERT_TRUE(snap.Recapture(arena, IncrementalCfg()).ok());

    std::vector<std::byte> live(arena.base(), arena.base() + arena.size());
    FillRandom(arena, rng);  // scribble, then prove the recapture stuck
    ASSERT_TRUE(snap.Restore(arena, IncrementalCfg()).ok());
    ASSERT_EQ(std::memcmp(arena.base(), live.data(), arena.size()), 0)
        << "recapture diverged at round " << round;
  }
}

// ------------------------------------------------- zero pages & baseline

TEST(SnapshotIncremental, ZeroPagesTakeNoStorage) {
  Arena arena(64 * kPage);  // arenas start zeroed
  arena.base()[0] = std::byte{0xAA};  // exactly one non-zero page
  SnapshotStats stats;
  Snapshot snap = Snapshot::Capture(arena, IncrementalCfg(), &stats);
  EXPECT_EQ(stats.pages_total, 64u);
  EXPECT_EQ(stats.pages_zero, 63u);
  EXPECT_EQ(stats.pages_dirty, 1u);
  EXPECT_EQ(snap.stored_bytes(), kPage);
  EXPECT_EQ(snap.size_bytes(), arena.size());

  // Scribble a zero-elided page; the diff-restore must zero it again.
  std::memset(arena.base() + 7 * kPage, 0x5C, kPage);
  SnapshotStats rstats;
  ASSERT_TRUE(snap.Restore(arena, IncrementalCfg(), &rstats).ok());
  EXPECT_EQ(rstats.pages_dirty, 1u);
  EXPECT_EQ(rstats.bytes_copied, kPage);
  for (std::size_t i = 0; i < kPage; ++i) {
    ASSERT_EQ(arena.base()[7 * kPage + i], std::byte{0});
  }
}

TEST(SnapshotIncremental, BaselineSharesIdenticalPagesAcrossSnapshots) {
  Arena a(8 * kPage, "a");
  Arena b(8 * kPage, "b");
  std::mt19937_64 rng(3);
  FillRandom(a, rng);
  std::memcpy(b.base(), a.base(), a.size());

  PageBaseline baseline;
  SnapshotStats sa, sb;
  Snapshot snap_a = Snapshot::Capture(a, IncrementalCfg(&baseline), &sa);
  Snapshot snap_b = Snapshot::Capture(b, IncrementalCfg(&baseline), &sb);

  // First capture pools every page; the identical second image copies
  // nothing and shares all of them.
  EXPECT_EQ(sa.pages_dirty, 8u);
  EXPECT_EQ(sb.pages_dirty, 0u);
  EXPECT_EQ(sb.pages_shared, 8u);
  EXPECT_EQ(sb.bytes_copied, 0u);
  EXPECT_EQ(baseline.pages(), 8u);
  EXPECT_EQ(baseline.hits(), 8u);
  EXPECT_EQ(snap_a.stored_bytes(), 0u);  // all pages live in the pool
  EXPECT_EQ(snap_b.stored_bytes(), 0u);

  // Shared storage must not alias: restoring b cannot disturb a's image.
  std::vector<std::byte> image_a(a.base(), a.base() + a.size());
  FillRandom(b, rng);
  ASSERT_TRUE(snap_b.Restore(b, IncrementalCfg(&baseline)).ok());
  EXPECT_EQ(std::memcmp(b.base(), image_a.data(), b.size()), 0);
  FillRandom(a, rng);
  ASSERT_TRUE(snap_a.Restore(a, IncrementalCfg(&baseline)).ok());
  EXPECT_EQ(std::memcmp(a.base(), image_a.data(), a.size()), 0);
}

// -------------------------------------------------------- error surfaces

TEST(SnapshotErrors, RestoreSizeMismatchIsStatusNotFatal) {
  Arena small(4 * kPage, "small");
  Arena big(8 * kPage, "big");
  for (const SnapshotMode mode :
       {SnapshotMode::kFullCopy, SnapshotMode::kIncremental}) {
    SnapshotConfig cfg;
    cfg.mode = mode;
    Snapshot snap = Snapshot::Capture(small, cfg);
    const Status st = snap.Restore(big, cfg);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), Errno::kInval);
    EXPECT_NE(st.message().find("size mismatch"), std::string::npos);
  }
}

TEST(SnapshotErrors, RecaptureSizeMismatchIsStatusNotFatal) {
  Arena small(4 * kPage, "small");
  Arena big(8 * kPage, "big");
  Snapshot snap = Snapshot::Capture(small, IncrementalCfg());
  const Status st = snap.Recapture(big, IncrementalCfg());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Errno::kInval);
}

// ---------------------------------------------------- runtime integration

struct SnapRig {
  explicit SnapRig(SnapshotMode mode) : rt(Opts(mode)) {
    counter = rt.AddComponent(std::make_unique<CounterComponent>());
    ticker = rt.AddComponent(std::make_unique<TickerComponent>());
    rt.AddAppDependency(counter);
    rt.AddAppDependency(ticker);
    rt.Boot();
  }
  static RuntimeOptions Opts(SnapshotMode mode) {
    RuntimeOptions o;
    o.mode = Mode::kVampOS;
    o.hang_threshold = 0;
    o.snapshot_mode = mode;
    return o;
  }
  std::uint64_t BytesCopied() {
    return rt.metrics().FindCounter("snapshot.bytes_copied")->value();
  }
  Runtime rt;
  ComponentId counter, ticker;
};

// The acceptance property: on a mostly-clean workload, incremental reboots
// move at least 5x fewer bytes through the restore path than full copies.
TEST(SnapshotRuntime, IncrementalCopiesAtLeastFiveTimesFewerBytes) {
  constexpr int kReboots = 5;
  std::uint64_t bytes[2] = {0, 0};
  std::size_t pages_total = 0;
  const SnapshotMode modes[] = {SnapshotMode::kFullCopy,
                                SnapshotMode::kIncremental};
  for (int m = 0; m < 2; ++m) {
    SnapRig rig(modes[m]);
    const FunctionId inc = rig.rt.Lookup("counter", "inc");
    RunApp(rig.rt, [&] {
      for (int i = 0; i < 10; ++i) rig.rt.Call(inc, {});
    });
    const std::uint64_t before = rig.BytesCopied();
    for (int i = 0; i < kReboots; ++i) {
      auto result = rig.rt.Reboot(rig.counter);
      ASSERT_TRUE(result.ok());
      pages_total = result.value().snapshot_pages_total;
      rig.rt.RunUntilIdle();
    }
    bytes[m] = rig.BytesCopied() - before;
    // State must survive either engine identically.
    const FunctionId get = rig.rt.Lookup("counter", "get");
    std::int64_t v = 0;
    RunApp(rig.rt, [&] { v = rig.rt.Call(get, {}).i64(); });
    EXPECT_EQ(v, 10);
  }
  EXPECT_GT(pages_total, 0u);
  EXPECT_GT(bytes[0], 0u);
  EXPECT_GE(bytes[0], 5 * std::max<std::uint64_t>(bytes[1], 1))
      << "full-copy moved " << bytes[0] << " bytes, incremental " << bytes[1];
}

TEST(SnapshotRuntime, RebootReportCarriesPageAccounting) {
  SnapRig rig(SnapshotMode::kIncremental);
  const FunctionId inc = rig.rt.Lookup("counter", "inc");
  RunApp(rig.rt, [&] { rig.rt.Call(inc, {}); });
  auto result = rig.rt.Reboot(rig.counter);
  ASSERT_TRUE(result.ok());
  const RebootReport& r = result.value();
  EXPECT_EQ(r.snapshot_pages_total, (256u * 1024u) / kPage);
  EXPECT_GT(r.snapshot_pages_dirty, 0u);
  EXPECT_EQ(r.snapshot_bytes_copied, r.snapshot_pages_dirty * kPage);
}

TEST(SnapshotRuntime, MemoryReportCountsCheckpointStorage) {
  SnapRig rig(SnapshotMode::kIncremental);
  const auto mem_report = rig.rt.Memory();
  // Zero-elision + baseline pooling: private checkpoint storage stays a
  // small fraction of the arena footprint for freshly booted components.
  EXPECT_LT(mem_report.snapshot_stored_bytes + mem_report.snapshot_baseline_bytes,
            (256u + 64u) * 1024u / 4);
  EXPECT_GT(rig.rt.snapshot_baseline().pages(), 0u);
}

TEST(SnapshotRuntime, CorruptCheckpointFailsRebootThroughFaultPath) {
  SnapRig rig(SnapshotMode::kIncremental);
  const FunctionId inc = rig.rt.Lookup("counter", "inc");
  RunApp(rig.rt, [&] { rig.rt.Call(inc, {}); });

  rig.rt.CorruptCheckpointForTest(rig.counter);
  auto result = rig.rt.Reboot(rig.counter);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Errno::kIo);
  EXPECT_NE(result.status().message().find("checkpoint restore failed"),
            std::string::npos);

  // The failure stays contained: no process abort, and the rest of the
  // runtime keeps serving.
  const FunctionId tick = rig.rt.Lookup("ticker", "tick");
  std::int64_t t = 0;
  RunApp(rig.rt, [&] { t = rig.rt.Call(tick, {}).i64(); });
  EXPECT_GT(t, 0);
}

TEST(SnapshotRuntime, FullCopyFallbackStillRecovers) {
  SnapRig rig(SnapshotMode::kFullCopy);
  const FunctionId inc = rig.rt.Lookup("counter", "inc");
  RunApp(rig.rt, [&] {
    for (int i = 0; i < 3; ++i) rig.rt.Call(inc, {});
  });
  ASSERT_TRUE(rig.rt.Reboot(rig.counter).ok());
  rig.rt.RunUntilIdle();
  const FunctionId get = rig.rt.Lookup("counter", "get");
  std::int64_t v = 0;
  RunApp(rig.rt, [&] { v = rig.rt.Call(get, {}).i64(); });
  EXPECT_EQ(v, 3);
}

// Rejuvenation-time checkpoint refresh: the replayed history is folded into
// the checkpoint, so the next reboot replays nothing and still restores the
// same state.
TEST(SnapshotRuntime, RejuvenationRefreshFoldsReplayIntoCheckpoint) {
  SnapRig rig(SnapshotMode::kIncremental);
  const FunctionId inc = rig.rt.Lookup("counter", "inc");
  RunApp(rig.rt, [&] {
    for (int i = 0; i < 6; ++i) rig.rt.Call(inc, {});
  });

  core::RejuvenationScheduler sched(rig.rt, {rig.counter}, 0);
  sched.set_refresh_checkpoints(true);
  auto refreshed = sched.ForceNext();
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_GT(refreshed->entries_replayed, 0u);
  rig.rt.RunUntilIdle();

  // The refresh pruned the replayed entries and re-captured the arena: a
  // second reboot replays nothing but restores the full state.
  auto again = rig.rt.Reboot(rig.counter);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().entries_replayed, 0u);
  rig.rt.RunUntilIdle();
  const FunctionId get = rig.rt.Lookup("counter", "get");
  std::int64_t v = 0;
  RunApp(rig.rt, [&] { v = rig.rt.Call(get, {}).i64(); });
  EXPECT_EQ(v, 6);
}

TEST(SnapshotRuntime, RefreshOffKeepsReplayingHistory) {
  SnapRig rig(SnapshotMode::kIncremental);
  const FunctionId inc = rig.rt.Lookup("counter", "inc");
  RunApp(rig.rt, [&] {
    for (int i = 0; i < 4; ++i) rig.rt.Call(inc, {});
  });
  core::RejuvenationScheduler sched(rig.rt, {rig.counter}, 0);
  ASSERT_TRUE(sched.ForceNext().has_value());
  rig.rt.RunUntilIdle();
  auto again = rig.rt.Reboot(rig.counter);
  ASSERT_TRUE(again.ok());
  EXPECT_GT(again.value().entries_replayed, 0u);  // default: log untouched
}

}  // namespace
}  // namespace vampos
