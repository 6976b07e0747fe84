// Fiber scheduler tests: spawn/dispatch/yield/block/wake, fault capture on
// the fiber's own stack, abandonment semantics, switch accounting, and what
// the register switch must preserve (FP control state, ABI stack alignment,
// unwinding through a long-lived fiber).
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "base/panic.h"
#include "sched/fiber.h"

namespace vampos::sched {
namespace {

TEST(Fiber, RunsToCompletion) {
  FiberManager fm;
  int ran = 0;
  Fiber* f = fm.Spawn("t", 0, [&] { ran = 42; });
  EXPECT_EQ(f->state(), FiberState::kReady);
  EXPECT_EQ(fm.Dispatch(f), FiberState::kDone);
  EXPECT_EQ(ran, 42);
}

TEST(Fiber, YieldReturnsControlAndResumes) {
  FiberManager fm;
  std::vector<int> trace;
  Fiber* f = fm.Spawn("t", 0, [&] {
    trace.push_back(1);
    fm.Yield();
    trace.push_back(2);
  });
  EXPECT_EQ(fm.Dispatch(f), FiberState::kReady);
  trace.push_back(10);
  EXPECT_EQ(fm.Dispatch(f), FiberState::kDone);
  EXPECT_EQ(trace, (std::vector<int>{1, 10, 2}));
}

TEST(Fiber, BlockAndWake) {
  FiberManager fm;
  int phase = 0;
  Fiber* f = fm.Spawn("t", 0, [&] {
    phase = 1;
    fm.Block();
    phase = 2;
  });
  fm.Dispatch(f);
  EXPECT_EQ(f->state(), FiberState::kBlocked);
  EXPECT_EQ(phase, 1);
  fm.Wake(f);
  EXPECT_EQ(f->state(), FiberState::kReady);
  fm.Dispatch(f);
  EXPECT_EQ(phase, 2);
}

TEST(Fiber, InterleavesTwoFibers) {
  FiberManager fm;
  std::string log;
  Fiber* a = fm.Spawn("a", 0, [&] {
    log += "a1 ";
    fm.Yield();
    log += "a2 ";
  });
  Fiber* b = fm.Spawn("b", 1, [&] {
    log += "b1 ";
    fm.Yield();
    log += "b2 ";
  });
  fm.Dispatch(a);
  fm.Dispatch(b);
  fm.Dispatch(a);
  fm.Dispatch(b);
  EXPECT_EQ(log, "a1 b1 a2 b2 ");
}

TEST(Fiber, FaultCapturedNotPropagated) {
  FiberManager fm;
  Fiber* f = fm.Spawn("t", 3, [&]() {
    throw ComponentFault(3, FaultKind::kPanic, "boom");
  });
  // The throw must not escape Dispatch.
  EXPECT_EQ(fm.Dispatch(f), FiberState::kFaulted);
  ASSERT_TRUE(f->fault().has_value());
  EXPECT_EQ(f->fault()->kind(), FaultKind::kPanic);
  EXPECT_EQ(f->fault()->component(), 3);
}

TEST(Fiber, FaultAfterYield) {
  FiberManager fm;
  Fiber* f = fm.Spawn("t", 1, [&] {
    fm.Yield();
    throw ComponentFault(1, FaultKind::kInjected, "later");
  });
  EXPECT_EQ(fm.Dispatch(f), FiberState::kReady);
  EXPECT_EQ(fm.Dispatch(f), FiberState::kFaulted);
}

TEST(Fiber, DestroyAbandonedBlockedFiber) {
  FiberManager fm;
  Fiber* f = fm.Spawn("t", 0, [&] { fm.Block(); });
  fm.Dispatch(f);
  const auto live = fm.live_fibers();
  fm.Destroy(f);  // mid-execution abandonment (component reboot path)
  EXPECT_EQ(fm.live_fibers(), live - 1);
}

TEST(Fiber, CurrentTracksExecution) {
  FiberManager fm;
  EXPECT_EQ(fm.Current(), nullptr);
  Fiber* f = fm.Spawn("t", 0, [&] { EXPECT_EQ(fm.Current()->name(), "t"); });
  fm.Dispatch(f);
  EXPECT_EQ(fm.Current(), nullptr);
}

TEST(Fiber, SwitchesAreCounted) {
  FiberManager fm;
  const auto before = fm.context_switches();
  Fiber* f = fm.Spawn("t", 0, [&] { fm.Yield(); });
  fm.Dispatch(f);  // in + out = 2
  fm.Dispatch(f);  // in + out = 2
  EXPECT_EQ(fm.context_switches(), before + 4);
}

TEST(Fiber, DispatchCountPerFiber) {
  FiberManager fm;
  Fiber* f = fm.Spawn("t", 0, [&] {
    fm.Yield();
    fm.Yield();
  });
  fm.Dispatch(f);
  fm.Dispatch(f);
  fm.Dispatch(f);
  EXPECT_EQ(f->dispatches(), 3u);
}

TEST(Fiber, ManyFibersDeepStacks) {
  FiberManager fm;
  // Each fiber burns a few KB of stack; all must complete cleanly.
  std::vector<Fiber*> fibers;
  int sum = 0;
  for (int i = 0; i < 50; ++i) {
    fibers.push_back(fm.Spawn("f" + std::to_string(i), i, [&sum] {
      volatile char pad[8192];
      pad[0] = 1;
      pad[8191] = 2;
      sum += pad[0] + pad[8191];
    }));
  }
  for (Fiber* f : fibers) EXPECT_EQ(fm.Dispatch(f), FiberState::kDone);
  EXPECT_EQ(sum, 150);
}

TEST(Fiber, NestedSpawnFromFiber) {
  FiberManager fm;
  Fiber* inner = nullptr;
  Fiber* outer = fm.Spawn("outer", 0, [&] {
    inner = fm.Spawn("inner", 1, [] {});
    fm.Yield();
  });
  fm.Dispatch(outer);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(fm.Dispatch(inner), FiberState::kDone);
  EXPECT_EQ(fm.Dispatch(outer), FiberState::kDone);
}

// The switch saves MXCSR and the x87 control word per context, so a rounding
// mode a component sets stays its own. fegetround() reads the x87 word; the
// division checks that SSE arithmetic follows MXCSR.
TEST(Fiber, FloatingPointControlStateIsPerFiber) {
  FiberManager fm;
  volatile double five = 5.0;  // 5/3 rounds up to nearest, so down differs
  volatile double three = 3.0;
  const double nearest = five / three;
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  int resumed_mode = -1;
  double resumed_quotient = 0;
  Fiber* f = fm.Spawn("fp", 0, [&] {
    std::fesetround(FE_DOWNWARD);
    fm.Yield();
    resumed_mode = std::fegetround();
    resumed_quotient = five / three;
  });
  EXPECT_EQ(fm.Dispatch(f), FiberState::kReady);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(five / three, nearest);
  EXPECT_EQ(fm.Dispatch(f), FiberState::kDone);
  EXPECT_EQ(resumed_mode, FE_DOWNWARD);
  EXPECT_LT(resumed_quotient, nearest);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

// Address of an over-aligned local. It lives in its own frame because a
// function with such a local realigns its whole frame, which would hide a
// misaligned caller.
[[gnu::noinline]] std::uintptr_t OverAlignedLocalAddress() {
  alignas(64) volatile char realigned[64] = {};
  return reinterpret_cast<std::uintptr_t>(&realigned[0]);
}

// A fiber's first frame is hand-built; it must give the entry function the
// alignment the ABI promises, or SSE spills (printf's among them) fault.
// The compiler places `by_abi` assuming that alignment, so a first frame
// that is off by 8 shows up as an address 8 mod 16.
TEST(Fiber, FreshFiberStackIsAbiAligned) {
  FiberManager fm;
  std::string printed;
  std::uintptr_t addr16 = 1;
  std::uintptr_t addr64 = 1;
  Fiber* f = fm.Spawn("aligned", 0, [&] {
    alignas(16) volatile char by_abi[16] = {};
    addr16 = reinterpret_cast<std::uintptr_t>(&by_abi[0]);
    addr64 = OverAlignedLocalAddress();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%f", 0.5);
    printed = buf;
  });
  EXPECT_EQ(fm.Dispatch(f), FiberState::kDone);
  EXPECT_EQ(printed, "0.500000");
  EXPECT_EQ(addr16 % 16, 0u);
  EXPECT_EQ(addr64 % 64, 0u);
}

// Recurses `depth` frames, then throws. The store after the call keeps every
// frame live, so the optimizer cannot flatten the recursion into a loop.
[[gnu::noinline]] void ThrowAtDepth(int depth) {
  volatile char frame[64];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) throw ComponentFault(5, FaultKind::kPanic, "deep");
  ThrowAtDepth(depth - 1);
  frame[1] = frame[0];
}

TEST(Fiber, DeepFaultAfterManyYieldsIsCaptured) {
  FiberManager fm;
  Fiber* f = fm.Spawn("deep", 5, [&] {
    for (int i = 0; i < 1000; ++i) fm.Yield();
    ThrowAtDepth(100);
  });
  int yields = 0;
  while (fm.Dispatch(f) == FiberState::kReady) ++yields;
  EXPECT_EQ(yields, 1000);
  EXPECT_EQ(f->state(), FiberState::kFaulted);
  ASSERT_TRUE(f->fault().has_value());
  EXPECT_EQ(f->fault()->component(), 5);
  EXPECT_EQ(f->fault()->kind(), FaultKind::kPanic);
}

}  // namespace
}  // namespace vampos::sched
