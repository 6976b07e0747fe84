// Cooperative fibers (an x86-64 register switch) — the mechanism underneath
// VampOS's per-component threads.
//
// Each unikernel component is executed by its own fiber(s), never by the
// caller's context (paper §V-A). The FiberManager provides only mechanism:
// spawn, switch, block/wake. Dispatch *policy* (round-robin vs
// dependency-aware) lives in comp/runtime, which plays the role of the
// paper's message thread.
//
// Faults: a ComponentFault thrown inside a fiber is caught by the fiber
// trampoline on that fiber's own stack and recorded; control returns to the
// manager with state kFaulted. Exceptions never propagate across context
// switches, so a crashing component cannot unwind another component's stack
// — the scheduling-level half of component isolation.
//
// A fiber abandoned mid-execution (its component got rebooted) is destroyed
// without unwinding; any arena-allocated state it leaked is reclaimed
// wholesale by the arena snapshot restore.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/panic.h"
#include "base/types.h"
#include "obs/trace.h"

namespace vampos::sched {

enum class FiberState {
  kReady,    // runnable, waiting for dispatch
  kRunning,  // currently on CPU
  kBlocked,  // waiting for Wake() (e.g. RPC reply)
  kDone,     // entry function returned
  kFaulted,  // entry function threw ComponentFault
};

class FiberManager;

class Fiber {
 public:
  Fiber(std::string name, ComponentId owner, std::function<void()> entry,
        std::size_t stack_size);
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] ComponentId owner() const { return owner_; }
  [[nodiscard]] FiberState state() const { return state_; }
  [[nodiscard]] const std::optional<ComponentFault>& fault() const {
    return fault_;
  }
  [[nodiscard]] std::uint64_t dispatches() const { return dispatches_; }

  /// Fiber-local current span: the causal identity of the request this
  /// fiber is serving (or issued, for app fibers mid-Call). The runtime
  /// sets it when a traced message starts executing and clears it when the
  /// handler completes; nested Calls read it to become child spans.
  [[nodiscard]] const obs::TraceContext& trace() const { return trace_; }
  void set_trace(const obs::TraceContext& trace) { trace_ = trace; }

 private:
  friend class FiberManager;
  static void Trampoline();

  std::string name_;
  ComponentId owner_;
  std::function<void()> entry_;
  std::vector<std::byte> stack_;
  void* sp_ = nullptr;  // saved stack pointer while switched out
  FiberState state_ = FiberState::kReady;
  std::optional<ComponentFault> fault_;
  std::uint64_t dispatches_ = 0;
  obs::TraceContext trace_;
  FiberManager* manager_ = nullptr;
};

/// Single-threaded fiber switcher. The "main" context is the runtime/message
/// thread; Dispatch() transfers to a fiber until it yields, blocks, finishes,
/// or faults.
class FiberManager {
 public:
  FiberManager();
  ~FiberManager();
  FiberManager(const FiberManager&) = delete;
  FiberManager& operator=(const FiberManager&) = delete;

  /// Creates a fiber; it does not run until Dispatch().
  Fiber* Spawn(std::string name, ComponentId owner,
               std::function<void()> entry,
               std::size_t stack_size = kDefaultStackSize);

  /// Destroys a fiber (must not be the running one). Abandoning a blocked or
  /// ready fiber is allowed — used when rebooting its component.
  void Destroy(Fiber* fiber);

  /// Runs `fiber` until it returns control. Must be called from the main
  /// context. Returns the fiber's state afterwards.
  FiberState Dispatch(Fiber* fiber);

  /// From inside a fiber: give the CPU back to the main context, staying
  /// ready. (Component polling loops call this when their queue is empty.)
  void Yield();

  /// From inside a fiber: block until Wake(). (Callers awaiting RPC replies.)
  void Block();

  /// From the main context (or another fiber's execution path via the
  /// runtime): make a blocked fiber ready again.
  void Wake(Fiber* fiber);

  /// Fiber currently executing, or nullptr if on the main context.
  [[nodiscard]] Fiber* Current() const { return current_; }

  /// Optional flight recorder: Dispatch() records a B/E event pair around
  /// every context switch into a fiber (no-op when the recorder is off).
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

  [[nodiscard]] std::uint64_t context_switches() const { return switches_; }
  [[nodiscard]] std::size_t live_fibers() const { return fibers_.size(); }

  static constexpr std::size_t kDefaultStackSize = 64 * 1024;

 private:
  friend class Fiber;
  /// `finished` marks the fiber's last switch: it is never resumed.
  void SwitchToMain(bool finished = false);

  void* main_sp_ = nullptr;  // main context's stack pointer while in a fiber
  Fiber* current_ = nullptr;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::uint64_t switches_ = 0;
  obs::FlightRecorder* recorder_ = nullptr;
};

}  // namespace vampos::sched
