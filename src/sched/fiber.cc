#include "sched/fiber.h"

#include <algorithm>

#include "obs/trace.h"

namespace vampos::sched {

namespace {
// makecontext() cannot pass pointers portably; the manager records which
// fiber is being started and the trampoline reads it. Safe because the whole
// runtime is single-threaded by design.
thread_local FiberManager* g_active_manager = nullptr;
}  // namespace

Fiber::Fiber(std::string name, ComponentId owner, std::function<void()> entry,
             std::size_t stack_size)
    : name_(std::move(name)),
      owner_(owner),
      entry_(std::move(entry)),
      stack_(stack_size) {}

void Fiber::Trampoline() {
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
  mgr->SwitchToMain();
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
  getcontext(&raw->ctx_);
  raw->ctx_.uc_stack.ss_sp = raw->stack_.data();
  raw->ctx_.uc_stack.ss_size = raw->stack_.size();
  raw->ctx_.uc_link = &main_ctx_;
  makecontext(&raw->ctx_, reinterpret_cast<void (*)()>(&Fiber::Trampoline), 0);
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
  swapcontext(&main_ctx_, &fiber->ctx_);
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

void FiberManager::SwitchToMain() {
  Fiber* fiber = current_;
  switches_++;
  swapcontext(&fiber->ctx_, &main_ctx_);
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
