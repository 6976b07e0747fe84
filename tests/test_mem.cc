// Memory subsystem tests: arena, buddy allocator (splitting, coalescing,
// exhaustion, fragmentation accounting, allocator-state-in-arena), snapshot
// capture/restore, and the arena-backed STL adaptors.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "base/rng.h"
#include "mem/arena.h"
#include "mem/arena_stl.h"
#include "mem/buddy_allocator.h"
#include "mem/snapshot.h"

namespace vampos::mem {
namespace {

TEST(Arena, RoundsUpToPageAndZeroFills) {
  Arena arena(1000, "t");
  EXPECT_EQ(arena.size(), 4096u);
  for (std::size_t i = 0; i < arena.size(); ++i) {
    EXPECT_EQ(arena.base()[i], std::byte{0});
  }
}

TEST(Arena, ContainsAndOffsets) {
  Arena arena(8192);
  EXPECT_TRUE(arena.Contains(arena.base()));
  EXPECT_TRUE(arena.Contains(arena.base() + arena.size() - 1));
  EXPECT_FALSE(arena.Contains(arena.base() + arena.size()));
  EXPECT_FALSE(arena.Contains(arena.base() + arena.size() - 1, 2));
  void* p = arena.AtOffset(100);
  EXPECT_EQ(arena.OffsetOf(p), 100u);
}

// Pages of `arena` that mincore() reports resident.
std::size_t ResidentPages(Arena& arena) {
  std::vector<unsigned char> in_core(arena.size() / Arena::kPageSize);
  EXPECT_EQ(mincore(arena.base(), arena.size(), in_core.data()), 0);
  return static_cast<std::size_t>(std::count_if(
      in_core.begin(), in_core.end(), [](unsigned char v) { return v & 1; }));
}

// A reservation costs memory only for the pages a component writes.
TEST(Arena, PagesAreNotResidentUntilWritten) {
  Arena arena(64u << 20, "lazy");
  EXPECT_EQ(ResidentPages(arena), 0u);
  arena.base()[5 * Arena::kPageSize + 17] = std::byte{1};
  EXPECT_EQ(ResidentPages(arena), 1u);
}

TEST(Buddy, AllocatesAndFrees) {
  Arena arena(1 << 20);
  BuddyAllocator alloc(arena);
  void* a = alloc.Alloc(100);
  void* b = alloc.Alloc(200);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_TRUE(arena.Contains(a, 100));
  EXPECT_TRUE(arena.Contains(b, 200));
  alloc.Free(a);
  alloc.Free(b);
  EXPECT_EQ(alloc.Stats().bytes_in_use, 0u);
}

TEST(Buddy, RoundsToPowerOfTwoBlocks) {
  EXPECT_EQ(BuddyAllocator::BlockSizeFor(1), 64u);
  EXPECT_EQ(BuddyAllocator::BlockSizeFor(64), 64u);
  EXPECT_EQ(BuddyAllocator::BlockSizeFor(65), 128u);
  EXPECT_EQ(BuddyAllocator::BlockSizeFor(4096), 4096u);
  EXPECT_EQ(BuddyAllocator::BlockSizeFor(4097), 8192u);
}

TEST(Buddy, CoalescesOnFree) {
  Arena arena(1 << 20);
  BuddyAllocator alloc(arena);
  const std::size_t largest0 = alloc.LargestFreeBlock();
  std::vector<void*> blocks;
  for (int i = 0; i < 64; ++i) blocks.push_back(alloc.Alloc(64));
  EXPECT_LT(alloc.LargestFreeBlock(), largest0);
  for (void* b : blocks) alloc.Free(b);
  // Everything merged back into one maximal block.
  EXPECT_EQ(alloc.LargestFreeBlock(), largest0);
  EXPECT_EQ(alloc.TotalFreeBytes(), largest0);
}

TEST(Buddy, ExhaustionReturnsNull) {
  Arena arena(64 * 1024);
  BuddyAllocator alloc(arena);
  std::vector<void*> blocks;
  while (void* p = alloc.Alloc(1024)) blocks.push_back(p);
  EXPECT_GT(alloc.Stats().failed_allocs, 0u);
  EXPECT_EQ(alloc.Alloc(1), (void*)nullptr);  // fully fragmented into 1K
  for (void* b : blocks) alloc.Free(b);
  EXPECT_NE(alloc.Alloc(1024), nullptr);
}

TEST(Buddy, OversizeRequestFails) {
  Arena arena(64 * 1024);
  BuddyAllocator alloc(arena);
  EXPECT_EQ(alloc.Alloc(1 << 20), (void*)nullptr);
}

TEST(Buddy, AllocZeroedZeroes) {
  Arena arena(64 * 1024);
  BuddyAllocator alloc(arena);
  auto* p = static_cast<unsigned char*>(alloc.Alloc(256));
  std::memset(p, 0xAB, 256);
  alloc.Free(p);
  auto* q = static_cast<unsigned char*>(alloc.AllocZeroed(256));
  for (int i = 0; i < 256; ++i) EXPECT_EQ(q[i], 0);
}

TEST(Buddy, StatsTrackPeak) {
  Arena arena(1 << 20);
  BuddyAllocator alloc(arena);
  void* a = alloc.Alloc(1024);
  void* b = alloc.Alloc(1024);
  alloc.Free(a);
  alloc.Free(b);
  const auto stats = alloc.Stats();
  EXPECT_EQ(stats.alloc_calls, 2u);
  EXPECT_EQ(stats.free_calls, 2u);
  EXPECT_EQ(stats.bytes_peak, 2048u);
  EXPECT_EQ(stats.bytes_in_use, 0u);
}

TEST(Buddy, AttachSeesExistingState) {
  Arena arena(1 << 20);
  void* p = nullptr;
  {
    BuddyAllocator alloc(arena);
    p = alloc.Alloc(512);
    std::memset(p, 0x5A, 512);
  }
  // Attach (not reformat): the allocation is still there.
  BuddyAllocator attached = BuddyAllocator::Attach(arena);
  EXPECT_EQ(attached.Stats().bytes_in_use, 512u);
  attached.Free(p);
  EXPECT_EQ(attached.Stats().bytes_in_use, 0u);
}

TEST(Buddy, FragmentationSignal) {
  Arena arena(1 << 20);
  BuddyAllocator alloc(arena);
  // Allocate many small blocks and free every other one: total free is
  // large but the largest free block stays small -> fragmentation.
  std::vector<void*> blocks;
  while (void* p = alloc.Alloc(64)) blocks.push_back(p);
  for (std::size_t i = 0; i < blocks.size(); i += 2) alloc.Free(blocks[i]);
  EXPECT_GT(alloc.TotalFreeBytes(), alloc.LargestFreeBlock());
  EXPECT_EQ(alloc.LargestFreeBlock(), 64u);
  for (std::size_t i = 1; i < blocks.size(); i += 2) alloc.Free(blocks[i]);
}

// Property: random alloc/free sequences never hand out overlapping blocks
// and always coalesce back to a single free region.
class BuddyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BuddyProperty, RandomAllocFreeNeverOverlaps) {
  Arena arena(1 << 20);
  BuddyAllocator alloc(arena);
  const std::size_t full = alloc.LargestFreeBlock();
  Rng rng(GetParam());
  struct Block {
    std::byte* p;
    std::size_t size;
    unsigned char tag;
  };
  std::vector<Block> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.Chance(3, 5)) {
      const auto size = static_cast<std::size_t>(rng.Range(1, 2048));
      auto* p = static_cast<std::byte*>(alloc.Alloc(size));
      if (p == nullptr) continue;
      const auto tag = static_cast<unsigned char>(rng.Below(256));
      std::memset(p, tag, size);
      live.push_back({p, size, tag});
    } else {
      const auto idx = rng.Below(live.size());
      Block b = live[idx];
      // Contents intact: nobody else was handed overlapping memory.
      for (std::size_t i = 0; i < b.size; ++i) {
        ASSERT_EQ(b.p[i], static_cast<std::byte>(b.tag));
      }
      alloc.Free(b.p);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  for (const Block& b : live) alloc.Free(b.p);
  EXPECT_EQ(alloc.Stats().bytes_in_use, 0u);
  EXPECT_EQ(alloc.LargestFreeBlock(), full);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyProperty,
                         ::testing::Values(1, 2, 3, 42, 1337, 99991));

// ------------------------------------------------------------- snapshots

TEST(Snapshot, RoundTripRestoresBytes) {
  Arena arena(64 * 1024);
  BuddyAllocator alloc(arena);
  auto* p = static_cast<char*>(alloc.Alloc(128));
  std::strcpy(p, "checkpoint me");
  Snapshot snap = Snapshot::Capture(arena);

  std::strcpy(p, "overwritten!!");
  alloc.Free(p);
  for (int i = 0; i < 10; ++i) (void)alloc.Alloc(512);  // churn + leak

  ASSERT_TRUE(snap.Restore(arena).ok());
  BuddyAllocator restored = BuddyAllocator::Attach(arena);
  EXPECT_STREQ(p, "checkpoint me");          // same address, old content
  EXPECT_EQ(restored.Stats().bytes_in_use, 128u);  // leaks rolled back
}

TEST(Snapshot, EmptyByDefault) {
  Snapshot snap;
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.size_bytes(), 0u);
}

TEST(Snapshot, SizeMatchesArena) {
  Arena arena(128 * 1024);
  Snapshot snap = Snapshot::Capture(arena);
  EXPECT_EQ(snap.size_bytes(), arena.size());
}

// ---------------------------------------------------------- STL adaptors

TEST(ArenaStl, VectorAndStringLiveInArena) {
  Arena arena(1 << 20);
  BuddyAllocator alloc(arena);
  {
    vector<int> v{ArenaStl<int>(&alloc)};
    for (int i = 0; i < 1000; ++i) v.push_back(i);
    EXPECT_TRUE(arena.Contains(v.data(), v.size() * sizeof(int)));
    string s{ArenaStl<char>(&alloc)};
    s = "a moderately long string that defeats SSO for sure!";
    EXPECT_TRUE(arena.Contains(s.data(), s.size()));
  }
  EXPECT_EQ(alloc.Stats().bytes_in_use, 0u);  // destructors freed everything
}

TEST(ArenaStl, MapInArena) {
  Arena arena(1 << 20);
  BuddyAllocator alloc(arena);
  map<int, int> m{ArenaStl<std::pair<const int, int>>(&alloc)};
  for (int i = 0; i < 100; ++i) m[i] = i * i;
  EXPECT_EQ(m.at(9), 81);
  EXPECT_GT(alloc.Stats().bytes_in_use, 0u);
}

TEST(ArenaStl, ExhaustionThrowsComponentFault) {
  Arena arena(64 * 1024);
  BuddyAllocator alloc(arena);
  vector<char> v{ArenaStl<char>(&alloc)};
  EXPECT_THROW(v.resize(10 << 20), ComponentFault);
}

TEST(ArenaStl, NewInDestroyIn) {
  Arena arena(64 * 1024);
  BuddyAllocator alloc(arena);
  struct Obj {
    int x;
    explicit Obj(int v) : x(v) {}
  };
  Obj* o = NewIn<Obj>(alloc, 7);
  EXPECT_EQ(o->x, 7);
  EXPECT_TRUE(arena.Contains(o));
  DestroyIn(alloc, o);
  EXPECT_EQ(alloc.Stats().bytes_in_use, 0u);
}

}  // namespace
}  // namespace vampos::mem
