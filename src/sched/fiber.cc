#include "sched/fiber.h"

#include <algorithm>
#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

#include "obs/trace.h"

#if !defined(__x86_64__)
#error "sched/fiber.cc: the fiber switch is x86-64 assembly"
#endif

// vampos_sched_switch(save_sp, load_sp) pushes what the System V ABI makes
// a callee preserve — rbx, rbp, r12-r15, MXCSR and the x87 control word —
// stores rsp in *save_sp, loads load_sp and pops the target's copy of the
// same state. To the compiler it is an ordinary call, so caller-saved
// registers need no saving. All fibers share the thread's signal mask, so a
// switch leaves it alone and makes no syscall.
extern "C" void vampos_sched_switch(void** save_sp, void* load_sp);

asm(".pushsection .text\n"
    ".globl vampos_sched_switch\n"
    ".hidden vampos_sched_switch\n"
    ".type vampos_sched_switch, @function\n"
    ".p2align 4\n"
    "vampos_sched_switch:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  subq $8, %rsp\n"
    "  stmxcsr (%rsp)\n"
    "  fnstcw 4(%rsp)\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  ldmxcsr (%rsp)\n"
    "  fldcw 4(%rsp)\n"
    "  addq $8, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  ret\n"
    ".size vampos_sched_switch, .-vampos_sched_switch\n"
    ".popsection\n");

namespace vampos::sched {

namespace {
// The trampoline takes no arguments; the manager records which fiber is
// being started and the trampoline reads it. Safe because the whole runtime
// is single-threaded by design.
thread_local FiberManager* g_active_manager = nullptr;

// Bounds of the thread's own (main) stack, which ASan needs for every switch
// back to it. Under ASan a fiber learns them when it first starts; other
// builds never read them.
thread_local const void* g_main_stack_bottom = nullptr;
thread_local std::size_t g_main_stack_size = 0;

// What vampos_sched_switch pops for a fiber that has never run: control
// words, zeroed callee-saved registers, then the address its `ret` enters.
// Above that sits the trampoline's own return address, null, which ends
// every unwind and backtrace on the fiber's stack.
struct InitialFrame {
  std::uint32_t mxcsr;
  std::uint16_t fpu_control;
  std::uint16_t unused;
  std::uint64_t r15, r14, r13, r12, rbx, rbp;
  void (*entry)();
  void* entry_return;
};
static_assert(sizeof(InitialFrame) == 72);

// Switches from the running context to the one saved at `load_sp`, whose
// stack is [bottom, bottom + size). ASan is told about both halves of the
// switch (its fiber protocol); `finished` marks a context that never
// resumes, so its fake stack can be dropped.
void Switch(void** save_sp, void* load_sp,
            [[maybe_unused]] const void* bottom,
            [[maybe_unused]] std::size_t size,
            [[maybe_unused]] bool finished) {
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(finished ? nullptr : &fake_stack, bottom,
                                 size);
#endif
  vampos_sched_switch(save_sp, load_sp);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}
}  // namespace

Fiber::Fiber(std::string name, ComponentId owner, std::function<void()> entry,
             std::size_t stack_size)
    : name_(std::move(name)),
      owner_(owner),
      entry_(std::move(entry)),
      stack_(stack_size) {}

void Fiber::Trampoline() {
#if defined(__SANITIZE_ADDRESS__)
  // Completes the switch Dispatch() started; the stack it left is main's.
  __sanitizer_finish_switch_fiber(nullptr, &g_main_stack_bottom,
                                  &g_main_stack_size);
#endif
  FiberManager* mgr = g_active_manager;
  Fiber* self = mgr->Current();
  try {
    self->entry_();
    self->state_ = FiberState::kDone;
  } catch (const ComponentFault& fault) {
    // Fail-stop: record the fault and return to the message thread, which
    // will trigger the component reboot. The fault never crosses into
    // another component's stack.
    self->fault_ = fault;
    self->state_ = FiberState::kFaulted;
  }
  mgr->SwitchToMain(/*finished=*/true);
  Fatal("resumed a finished fiber '%s'", self->name_.c_str());
}

FiberManager::FiberManager() { g_active_manager = this; }

FiberManager::~FiberManager() {
  if (g_active_manager == this) g_active_manager = nullptr;
}

Fiber* FiberManager::Spawn(std::string name, ComponentId owner,
                           std::function<void()> entry,
                           std::size_t stack_size) {
  auto fiber = std::make_unique<Fiber>(std::move(name), owner,
                                       std::move(entry), stack_size);
  Fiber* raw = fiber.get();
  raw->manager_ = this;
  // Top of stack rounded down to 16, so that `ret` leaves rsp at 8 mod 16:
  // the alignment the ABI gives a function on entry.
  const auto top = (reinterpret_cast<std::uintptr_t>(raw->stack_.data()) +
                    raw->stack_.size()) &
                   ~std::uintptr_t{15};
  auto* frame = new (reinterpret_cast<void*>(top - sizeof(InitialFrame)))
      InitialFrame{};
  // A fiber starts with its spawner's floating-point control state, as a
  // thread does.
  asm("stmxcsr %0" : "=m"(frame->mxcsr));
  asm("fnstcw %0" : "=m"(frame->fpu_control));
  frame->entry = &Fiber::Trampoline;
  raw->sp_ = frame;
  fibers_.push_back(std::move(fiber));
  return raw;
}

void FiberManager::Destroy(Fiber* fiber) {
  if (fiber == current_) {
    Fatal("cannot destroy the running fiber '%s'", fiber->name_.c_str());
  }
  auto it = std::find_if(fibers_.begin(), fibers_.end(),
                         [fiber](const auto& f) { return f.get() == fiber; });
  if (it != fibers_.end()) fibers_.erase(it);
}

FiberState FiberManager::Dispatch(Fiber* fiber) {
  if (current_ != nullptr) {
    Fatal("Dispatch() must run on the main context");
  }
  if (fiber->state_ != FiberState::kReady) {
    Fatal("dispatching fiber '%s' in non-ready state", fiber->name_.c_str());
  }
  g_active_manager = this;
  fiber->state_ = FiberState::kRunning;
  fiber->dispatches_++;
  switches_++;
  if (recorder_ != nullptr) {
    recorder_->Record(obs::EventKind::kDispatch, obs::TracePhase::kBegin,
                      fiber->owner_,
                      static_cast<std::int64_t>(fiber->dispatches_), 0,
                      fiber->trace_);
  }
  current_ = fiber;
  Switch(&main_sp_, fiber->sp_, fiber->stack_.data(), fiber->stack_.size(),
         /*finished=*/false);
  current_ = nullptr;
  if (recorder_ != nullptr) {
    recorder_->Record(obs::EventKind::kDispatch, obs::TracePhase::kEnd,
                      fiber->owner_,
                      static_cast<std::int64_t>(fiber->dispatches_),
                      static_cast<std::int64_t>(fiber->state_),
                      fiber->trace_);
  }
  return fiber->state_;
}

void FiberManager::SwitchToMain(bool finished) {
  Fiber* fiber = current_;
  switches_++;
  Switch(&fiber->sp_, main_sp_, g_main_stack_bottom, g_main_stack_size,
         finished);
}

void FiberManager::Yield() {
  Fiber* fiber = current_;
  if (fiber == nullptr) Fatal("Yield() outside a fiber");
  fiber->state_ = FiberState::kReady;
  SwitchToMain();
}

void FiberManager::Block() {
  Fiber* fiber = current_;
  if (fiber == nullptr) Fatal("Block() outside a fiber");
  fiber->state_ = FiberState::kBlocked;
  SwitchToMain();
}

void FiberManager::Wake(Fiber* fiber) {
  if (fiber->state_ != FiberState::kBlocked) {
    Fatal("Wake() on non-blocked fiber '%s'", fiber->name_.c_str());
  }
  fiber->state_ = FiberState::kReady;
}

}  // namespace vampos::sched
