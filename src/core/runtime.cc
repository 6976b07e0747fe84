#include "core/runtime.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "base/diag.h"
#include "check/isolation_checker.h"

namespace vampos::core {

using comp::CallCtx;
using comp::Component;
using comp::FnOptions;
using comp::InitCtx;
using comp::Statefulness;
using msg::Args;
using msg::Message;
using msg::MsgValue;

// ------------------------------------------------------------- lifecycle

Runtime::Runtime(RuntimeOptions options) : options_(std::move(options)) {
  // Observability: resolve every hot-path counter/histogram once; the
  // recorder stays unallocated unless tracing was requested. Env knobs let
  // operators trace any binary without a code change: VAMPOS_TRACE forces
  // tracing on ("1") or off, VAMPOS_TRACE_EVENTS overrides the ring
  // capacity, VAMPOS_TRACE_DUMP_ON_REBOOT adds a post-reboot dump to the
  // fail-stop/spin-limit auto-dump paths.
  recorder_.set_clock(options_.clock);
  recorder_.set_dropped_counter(&metrics_.GetCounter("obs.dropped_events"));
  bool tracing = options_.tracing;
  if (const char* env = std::getenv("VAMPOS_TRACE")) tracing = env[0] == '1';
  std::size_t trace_capacity = options_.trace_capacity;
  if (const char* env = std::getenv("VAMPOS_TRACE_EVENTS")) {
    if (const long n = std::atol(env); n > 0) {
      trace_capacity = static_cast<std::size_t>(n);
    }
  }
  if (tracing) recorder_.Enable(trace_capacity);
  if (const char* env = std::getenv("VAMPOS_TRACE_DUMP_ON_REBOOT")) {
    dump_trace_on_reboot_ = env[0] == '1';
  }
  // VAMPOS_DIRTY_TRACKING forces write-tracked snapshots on ("1") or off;
  // VAMPOS_SNAPSHOT_AUDIT overrides the randomized audit rate (0 disables,
  // 1 audits every incremental op).
  if (const char* env = std::getenv("VAMPOS_DIRTY_TRACKING")) {
    options_.dirty_tracking = env[0] == '1';
  }
  if (const char* env = std::getenv("VAMPOS_SNAPSHOT_AUDIT")) {
    if (const long n = std::atol(env); n >= 0) {
      options_.dirty_audit_rate = static_cast<std::uint32_t>(n);
    }
  }
  // VAMPOS_HEALTH forces the aging-aware health monitor on ("1") or off;
  // VAMPOS_METRICS_FORMAT picks the VAMPOS_METRICS_DUMP exposition format.
  if (const char* env = std::getenv("VAMPOS_HEALTH")) {
    options_.health = env[0] == '1';
  }
  // VAMPOS_MSG_ZEROCOPY forces zero-copy payload staging on ("1") or off;
  // VAMPOS_INLINE_CALLS opts into the same-destination inline fast path;
  // VAMPOS_TRACE_INLINE keeps it eligible while the flight recorder is on.
  if (const char* env = std::getenv("VAMPOS_MSG_ZEROCOPY")) {
    options_.zero_copy_payloads = env[0] == '1';
  }
  if (const char* env = std::getenv("VAMPOS_INLINE_CALLS")) {
    options_.inline_calls = env[0] == '1';
  }
  if (const char* env = std::getenv("VAMPOS_TRACE_INLINE")) {
    trace_inline_ = env[0] == '1';
  }
  if (const char* env = std::getenv("VAMPOS_METRICS_FORMAT")) {
    const std::string fmt = env;
    if (fmt == "text") {
      metrics_format_ = MetricsFormat::kText;
    } else if (fmt == "json") {
      metrics_format_ = MetricsFormat::kJson;
    } else if (fmt == "prom") {
      metrics_format_ = MetricsFormat::kProm;
    } else {
      std::fprintf(stderr,
                   "vampos: unrecognized VAMPOS_METRICS_FORMAT='%s' "
                   "(expected text, json, or prom)\n",
                   env);
      std::exit(2);
    }
  }
  ct_.calls = &metrics_.GetCounter("rt.calls");
  ct_.direct_calls = &metrics_.GetCounter("rt.direct_calls");
  ct_.messages = &metrics_.GetCounter("rt.messages");
  ct_.empty_polls = &metrics_.GetCounter("rt.empty_polls");
  ct_.log_appends = &metrics_.GetCounter("rt.log_appends");
  ct_.log_pruned_entries = &metrics_.GetCounter("rt.log_pruned_entries");
  ct_.compactions = &metrics_.GetCounter("rt.compactions");
  ct_.compaction_skips = &metrics_.GetCounter("rt.compaction_skips");
  ct_.replies_batched = &metrics_.GetCounter("rt.replies_batched");
  ct_.retries_deduped = &metrics_.GetCounter("rt.retries_deduped");
  ct_.reboots = &metrics_.GetCounter("rt.reboots");
  ct_.recovery_failures = &metrics_.GetCounter("rt.recovery_failures");
  ct_.recovery_reinits = &metrics_.GetCounter("rt.recovery_reinits");
  ct_.recovery_overlaps = &metrics_.GetCounter("rt.recovery_overlaps");
  ct_.replay_divergence = &metrics_.GetCounter("rt.replay_divergence");
  ct_.aux_fibers_spawned = &metrics_.GetCounter("rt.aux_fibers_spawned");
  ct_.hangs_detected = &metrics_.GetCounter("rt.hangs_detected");
  ct_.snapshot_captures = &metrics_.GetCounter("snapshot.captures");
  ct_.snapshot_recaptures = &metrics_.GetCounter("snapshot.recaptures");
  ct_.snapshot_restores = &metrics_.GetCounter("snapshot.restores");
  ct_.snapshot_pages_total = &metrics_.GetCounter("snapshot.pages_total");
  ct_.snapshot_pages_dirty = &metrics_.GetCounter("snapshot.pages_dirty");
  ct_.snapshot_pages_zero = &metrics_.GetCounter("snapshot.pages_zero");
  ct_.snapshot_pages_shared = &metrics_.GetCounter("snapshot.pages_shared");
  ct_.snapshot_bytes_copied = &metrics_.GetCounter("snapshot.bytes_copied");
  ct_.snapshot_dirty_fast_ops = &metrics_.GetCounter("snapshot.dirty_fast_ops");
  ct_.snapshot_dirty_fallback_ops =
      &metrics_.GetCounter("snapshot.dirty_fallback_ops");
  ct_.snapshot_dirty_pages_skipped =
      &metrics_.GetCounter("snapshot.dirty_pages_skipped");
  ct_.snapshot_dirty_audits = &metrics_.GetCounter("snapshot.dirty_audits");
  ct_.snapshot_dirty_audit_misses =
      &metrics_.GetCounter("snapshot.dirty_audit_misses");
  ct_.snapshot_dirty_taints = &metrics_.GetCounter("snapshot.dirty_taints");
  hist_.call_ns = &metrics_.GetHistogram("rt.call_ns");
  hist_.queue_depth = &metrics_.GetHistogram("msg.queue_depth");
  hist_.reboot_stop_ns = &metrics_.GetHistogram("reboot.stop_ns");
  hist_.reboot_snapshot_ns = &metrics_.GetHistogram("reboot.snapshot_ns");
  hist_.reboot_snapshot_hash_ns =
      &metrics_.GetHistogram("reboot.snapshot_hash_ns");
  hist_.reboot_snapshot_copy_ns =
      &metrics_.GetHistogram("reboot.snapshot_copy_ns");
  hist_.reboot_replay_ns = &metrics_.GetHistogram("reboot.replay_ns");
  hist_.reboot_total_ns = &metrics_.GetHistogram("reboot.total_ns");
  hist_.replay_entries = &metrics_.GetHistogram("reboot.replay_entries");
  hist_.trace_queue_ns = &metrics_.GetHistogram("trace.queue_ns");
  hist_.trace_exec_ns = &metrics_.GetHistogram("trace.exec_ns");
  hist_.trace_reply_ns = &metrics_.GetHistogram("trace.reply_ns");
  hist_.trace_stall_ns = &metrics_.GetHistogram("trace.stall_reboot_ns");

  isolation_ = options_.isolation && options_.mode == Mode::kVampOS;
  domain_ = std::make_unique<msg::MessageDomain>(
      options_.msg_arena_size, isolation_ ? &domains_ : nullptr);
  domain_->BindTelemetry(&recorder_, hist_.queue_depth);
  domain_->EnableZeroCopy(options_.zero_copy_payloads);
  fibers_.set_recorder(&recorder_);

  if (options_.isolation_check) {
    checker_ = std::make_unique<check::IsolationChecker>();
    checker_->BindRecorder(&recorder_);
    // The message-domain arena is the trust zone: component payloads must
    // not carry pointers into it either.
    checker_->RegisterRegion(check::IsolationChecker::kMessageDomainOwner,
                             domain_->arena().base(), domain_->arena().size(),
                             "message-domain");
  }

  if (options_.health) EnableHealth(options_.health_config);
}

obs::HealthMonitor& Runtime::EnableHealth(const obs::HealthConfig& config) {
  if (health_ == nullptr) {
    health_ = std::make_unique<obs::HealthMonitor>(config);
    health_->BindMetrics(&metrics_);
    health_->BindRecorder(&recorder_);
    for (const auto& slot : slots_) {
      if (slot.component == nullptr) continue;
      const ComponentId id = slot.component->id();
      if (LeaderOf(id) != id) continue;  // merged members ride the leader
      health_->Track(id, slot.component->name());
    }
  }
  return *health_;
}

// Out of line: check::IsolationChecker is incomplete in the header.
Runtime::~Runtime() = default;

ComponentId Runtime::AddComponent(std::unique_ptr<Component> component) {
  if (booted_) Fatal("AddComponent after Boot()");
  const auto id = static_cast<ComponentId>(slots_.size());
  component->id_ = id;
  Slot slot;
  slot.component = std::move(component);
  slot.leader = id;
  slot.group = {id};
  slots_.push_back(std::move(slot));
  domain_->EnsureCapacity(id);
  return id;
}

void Runtime::AddDependency(ComponentId from, ComponentId to) {
  slots_[from].deps.push_back(to);
}

void Runtime::AddAppDependency(ComponentId to) { app_deps_.push_back(to); }

void Runtime::Merge(const std::vector<ComponentId>& members) {
  if (booted_) Fatal("Merge after Boot()");
  if (members.size() < 2) Fatal("Merge needs at least two components");
  const ComponentId leader = members.front();
  slots_[leader].group = members;
  for (ComponentId m : members) {
    slots_[m].leader = leader;
  }
}

void Runtime::Boot() {
  if (booted_) Fatal("double Boot()");
  // Phase 0: protection domains. Each leader gets one MPK key; merged
  // members share the leader's key (one tag manages the merged domain).
  if (isolation_) {
    if (options_.virtualize_mpk_keys) domains_.EnableKeyVirtualization();
    for (auto& slot : slots_) {
      if (slot.leader != slot.component->id()) continue;
      auto key = domains_.AssignKey(slot.component->arena(),
                                    slot.component->name());
      if (!key.has_value()) {
        // Physical keys exhausted (paper §V-D): isolation degrades to the
        // default key rather than failing boot.
        VAMPOS_ERROR("out of MPK keys at component '%s'; left unisolated",
                     slot.component->name().c_str());
        continue;
      }
      slot.key = *key;
      for (ComponentId m : slot.group) {
        slots_[m].key = *key;
        if (m != slot.component->id()) {
          domains_.TagArena(slots_[m].component->arena(), *key,
                            slots_[m].component->name());
        }
      }
    }
    for (auto& slot : slots_) {
      mpk::Pkru pkru = mpk::Pkru::AllDenied();
      if (slot.key != mpk::kDefaultKey) pkru.Allow(slot.key, /*write=*/true);
      pkru.Allow(domain_->key(), /*write=*/true);
      slot.pkru = pkru;
    }
  }

  // Shadow ownership map: every component arena is claimed for its group
  // leader's protection domain. Overlapping claims mean the domain layout is
  // broken before any component runs — fail loudly at boot.
  if (checker_ != nullptr) {
    for (auto& slot : slots_) {
      const ComponentId id = slot.component->id();
      checker_->RegisterComponentName(id, slot.component->name());
      checker_->RegisterRegion(slot.leader, slot.component->arena().base(),
                               slot.component->arena().size(),
                               slot.component->name());
    }
    if (!checker_->ownership_violations().empty()) {
      Fatal("isolation checker: %s",
            checker_->ownership_violations().front().c_str());
    }
  }

  // Phase 1: Init — allocate state, export functions.
  for (auto& slot : slots_) {
    slot.component->alloc_.emplace(slot.component->arena());
    InitCtx ctx(*this, slot.component->id());
    slot.component->Init(ctx);
  }
  // Phase 2: Bind — resolve imports (all exports now exist).
  for (auto& slot : slots_) {
    InitCtx ctx(*this, slot.component->id());
    slot.component->Bind(ctx);
  }
  // Phase 3: checkpoint-based initialization — capture the post-init image
  // of every stateful component (paper §V-E). The vanilla-Unikraft baseline
  // carries no recovery machinery and skips this.
  if (options_.mode == Mode::kVampOS) {
    for (auto& slot : slots_) {
      if (slot.component->statefulness() == Statefulness::kStateful) {
        slot.checkpoint = CaptureCheckpoint(*slot.component);
      }
    }
  }
  // Phase 4: resident fibers, one per leader (VampOS mode only).
  if (options_.mode == Mode::kVampOS) {
    for (auto& slot : slots_) {
      if (slot.leader != slot.component->id()) continue;
      RespawnResident(slot.component->id());
    }
  }
  booted_ = true;
}

void Runtime::RespawnResident(ComponentId id) {
  Slot& slot = slots_[id];
  slot.resident = fibers_.Spawn(slot.component->name() + "/resident", id,
                                [this, id] { ResidentLoop(id); });
}

// ------------------------------------------------------------- app plane

sched::Fiber* Runtime::SpawnApp(const std::string& name,
                                std::function<void()> body) {
  sched::Fiber* f =
      fibers_.Spawn("app/" + name, kComponentNone, std::move(body));
  app_fibers_.push_back(f);
  return f;
}

namespace {
bool FiberReady(const sched::Fiber* f) {
  return f != nullptr && f->state() == sched::FiberState::kReady;
}
}  // namespace

void Runtime::ParkApp() {
  sched::Fiber* self = fibers_.Current();
  if (self == nullptr || self->owner() != kComponentNone) {
    Fatal("ParkApp() outside an app fiber");
  }
  parked_apps_.push_back(self);
  fibers_.Block();
}

void Runtime::UnparkApps() {
  for (sched::Fiber* f : parked_apps_) {
    if (f->state() == sched::FiberState::kBlocked) fibers_.Wake(f);
  }
  parked_apps_.clear();
}

bool Runtime::RunUntil(const std::function<bool()>& pred) {
  while (!pred()) {
    if (!Step()) return false;
  }
  return true;
}

void Runtime::RunUntilIdle() {
  static const long spin_limit = [] {
    const char* env = std::getenv("VAMPOS_SPIN_LIMIT");
    return env != nullptr ? std::atol(env) : 0L;
  }();
  long steps = 0;
  while (Step()) {
    if (spin_limit > 0 && ++steps > spin_limit) {
      DumpState(stderr);
      WritePostmortemTrace("spin-limit");
      Fatal("RunUntilIdle exceeded VAMPOS_SPIN_LIMIT=%ld steps", spin_limit);
    }
  }
  // Reap finished app fibers so long-running servers that spawn one fiber
  // per request do not accumulate stacks.
  for (auto it = app_fibers_.begin(); it != app_fibers_.end();) {
    if ((*it)->state() == sched::FiberState::kDone) {
      fibers_.Destroy(*it);
      it = app_fibers_.erase(it);
    } else {
      ++it;
    }
  }
}

bool Runtime::Step() {
  DeliverReplies();
  CheckHangs();
  // Finalize restores and run eligible replays between dispatches, so
  // healthy components keep being served while others recover.
  DriveRecovery();
  MaybeSpawnAux();
  if (health_ != nullptr && health_->SampleDue(health_now_)) {
    SampleHealth(health_now_);
  }

  // Idle detection: work exists if an app fiber can run, a message or reply
  // is queued, or a handler is mid-flight.
  bool has_work = domain_->HasReply();
  if (!has_work) {
    for (auto* f : app_fibers_) {
      if (FiberReady(f)) {
        has_work = true;
        break;
      }
    }
  }
  if (!has_work) {
    for (std::size_t id = 0; id < slots_.size() && !has_work; ++id) {
      if (domain_->HasMessage(static_cast<ComponentId>(id)) ||
          slots_[id].busy > 0) {
        has_work = true;
      }
    }
  }
  if (!has_work && recovery_jobs_.empty()) return false;

  sched::Fiber* f = PickNext();
  if (f == nullptr) {
    if (!recovery_jobs_.empty()) {
      // Nothing dispatchable, but recoveries are in flight: advance them
      // (each pass completes at least one job).
      DriveRecovery();
      return true;
    }
    return false;
  }
  InstallPkruFor(f->owner());
  const sched::FiberState st = fibers_.Dispatch(f);
  InstallMessageThreadPkru();
  if (st == sched::FiberState::kFaulted) {
    HandleFaultedFiber(f);
  } else if (st == sched::FiberState::kDone) {
    // Aux fibers finish after one message; reap them here. App fibers are
    // reaped by RunUntilIdle.
    if (f->owner() != kComponentNone) {
      Slot& slot = slots_[LeaderOf(f->owner())];
      auto it = std::find(slot.aux.begin(), slot.aux.end(), f);
      if (it != slot.aux.end()) {
        slot.aux.erase(it);
        fibers_.Destroy(f);
      }
    }
  }
  return true;
}

// ------------------------------------------------------------ scheduling

sched::Fiber* Runtime::PickNext() {
  // Application fibers run as soon as they are ready (their syscall
  // returned); this mirrors the unikernel returning to the app thread.
  for (auto* f : app_fibers_) {
    if (FiberReady(f)) return f;
  }
  return options_.policy == SchedPolicy::kDependencyAware
             ? PickDependencyAware()
             : PickRoundRobin();
}

sched::Fiber* Runtime::PickRoundRobin() {
  // The round-robin scheduler dispatches component threads in ring order,
  // including components whose queues are empty — they poll and yield. This
  // is the overhead VampOS-Noop pays in Fig 5.
  const std::size_t n = slots_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = (rr_cursor_ + i) % n;
    Slot& slot = slots_[idx];
    if (slot.leader != static_cast<ComponentId>(idx)) continue;
    // Aux fibers first: they hold in-flight handlers (possibly just woken
    // by a reply) and would starve behind the always-ready resident poller.
    for (auto* aux : slot.aux) {
      if (FiberReady(aux)) {
        rr_cursor_ = (idx + 1) % n;
        return aux;
      }
    }
    if (FiberReady(slot.resident)) {
      rr_cursor_ = (idx + 1) % n;
      return slot.resident;
    }
  }
  return nullptr;
}

sched::Fiber* Runtime::PickDependencyAware() {
  // Dependency-aware scheduling (§V-C): the candidates are the components
  // correlated with the most recent sender; empty-queue candidates still
  // get a (cheap) poll dispatch, but unrelated components are skipped.
  auto fiber_of = [this](ComponentId leader) -> sched::Fiber* {
    Slot& slot = slots_[leader];
    // Aux before resident: an aux fiber holds an in-flight handler and must
    // not starve behind the resident's ever-ready polling loop.
    for (auto* aux : slot.aux) {
      if (FiberReady(aux)) return aux;
    }
    if (FiberReady(slot.resident)) return slot.resident;
    return nullptr;
  };
  auto group_depth = [this](ComponentId leader) {
    std::size_t depth = 0;
    for (ComponentId m : slots_[leader].group) depth += domain_->QueueDepth(m);
    return depth;
  };

  while (!das_candidates_.empty()) {
    // Queue-depth hint: among the correlated candidates, dispatch the one
    // with the most queued work first — it amortizes its dispatch over a
    // whole execution batch. Ties keep correlation order.
    std::size_t best = 0;
    std::size_t best_depth = group_depth(LeaderOf(das_candidates_[0]));
    for (std::size_t i = 1; i < das_candidates_.size(); ++i) {
      const std::size_t d = group_depth(LeaderOf(das_candidates_[i]));
      if (d > best_depth) {
        best = i;
        best_depth = d;
      }
    }
    const ComponentId c = LeaderOf(das_candidates_[best]);
    das_candidates_.erase(das_candidates_.begin() +
                          static_cast<std::ptrdiff_t>(best));
    if (sched::Fiber* f = fiber_of(c)) return f;
  }
  // Fallbacks: the oldest pending message's destination, then any ready
  // component fiber (e.g. a caller woken by a reply).
  const ComponentId dest = domain_->OldestPendingDestination();
  if (dest != kComponentNone) {
    if (sched::Fiber* f = fiber_of(LeaderOf(dest))) return f;
  }
  // Rotating cursor: a fixed id-order scan would let a low-id component
  // whose fiber is always ready (e.g. parked in an injected hang, yielding
  // forever) starve every higher-id fiber woken by a reply — the starved
  // caller then ages past the hang threshold without ever running.
  const std::size_t n = slots_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = (das_fallback_cursor_ + i) % n;
    const auto cid = static_cast<ComponentId>(idx);
    if (sched::Fiber* f = fiber_of(LeaderOf(cid))) {
      if (slots_[LeaderOf(cid)].busy > 0 || domain_->HasMessage(cid)) {
        das_fallback_cursor_ = (idx + 1) % n;
        return f;
      }
    }
  }
  return nullptr;
}

void Runtime::MaybeSpawnAux() {
  // On-demand thread attach (§V-A): if a component has pending messages but
  // every one of its fibers is blocked inside a handler, attach a fresh
  // fiber so the arriving message can be handled (deadlock avoidance).
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    const auto cid = static_cast<ComponentId>(id);
    if (!domain_->HasMessage(cid)) continue;
    Slot& slot = slots_[LeaderOf(cid)];
    if (slot.failed) continue;
    bool any_available = FiberReady(slot.resident);
    for (auto* aux : slot.aux) {
      any_available = any_available || FiberReady(aux);
    }
    if (any_available) continue;
    if (slot.aux.size() >= kMaxAuxFibers) continue;
    sched::Fiber* aux = fibers_.Spawn(
        slot.component->name() + "/aux", slot.component->id(),
        [this, cid] { ExecuteOne(cid); });
    slot.aux.push_back(aux);
    ct_.aux_fibers_spawned->Add();
  }
}

void Runtime::NoteDispatched(ComponentId) {}

// ------------------------------------------------------------- call plane

msg::MsgValue Runtime::Call(FunctionId fn_id, Args args) {
  const FnEntry& fn = Fn(fn_id);
  ct_.calls->Add();

  // Restore mode: replay runs on the message thread with restore_stack_
  // tracking the component being restored.
  if (!restore_stack_.empty() && fibers_.Current() == nullptr) {
    const ComponentId restoring = restore_stack_.back().component;
    if (SameGroup(restoring, fn.owner)) {
      // Intra-group calls execute for real during replay: the whole merged
      // group is being restored together.
      return DirectInvoke(restoring, fn_id, args, /*restoring=*/true);
    }
    return RestoreFeed(restoring, fn_id);
  }

  if (options_.mode == Mode::kUnikraft) {
    ExecCtx* ctx = CurrentExec();
    const ComponentId caller = ctx ? ctx->component : kComponentNone;
    return DirectInvoke(caller, fn_id, args, /*restoring=*/false);
  }

  ExecCtx* ctx = CurrentExec();
  const ComponentId caller = ctx ? ctx->component : kComponentNone;
  if (caller != kComponentNone && SameGroup(caller, fn.owner)) {
    // Component merging (§V-F): members of a merged component invoke each
    // other with plain function calls, skipping the message path.
    return DirectInvoke(caller, fn_id, args, /*restoring=*/false);
  }
  if (options_.inline_calls) {
    if (auto inlined = TryInlineCall(caller, fn_id, args)) {
      return std::move(*inlined);
    }
  }
  return MessageCall(caller, fn_id, std::move(args));
}

msg::MsgValue Runtime::DirectInvoke(ComponentId /*caller*/, FunctionId fn_id,
                                    const Args& args, bool restoring) {
  ct_.direct_calls->Add();
  const FnEntry& fn = Fn(fn_id);
  CallCtx ctx(*this, fn.owner, restoring);
  TaintComponentEntry(*slots_[fn.owner].component);
  const Nanos t0 = options_.clock->Now();
  MsgValue ret = fn.handler(ctx, args);
  const Nanos t1 = options_.clock->Now();
  fn.latency->Record(t1 - t0);
  const bool failed = ret.is_i64() && ret.i64() < 0;
  if (failed) fn.errors->Add();
  if (health_ != nullptr && !restoring) {
    health_now_ = t1;
    const ComponentId hid = LeaderOf(fn.owner);
    health_->OnRequest(hid, t1, t1 - t0);
    if (failed) health_->OnError(hid, t1);
  }
  return ret;
}

msg::MsgValue Runtime::MessageCall(ComponentId caller, FunctionId fn_id,
                                   Args args) {
  const FnEntry& fn = Fn(fn_id);
  // Outbound dedupe for retried requests: the pre-reboot execution already
  // made this call and observed its return; feed it back instead of
  // re-invoking the peer, whose side effect already happened. A divergent
  // call sequence abandons the feed and executes the rest for real.
  if (ExecCtx* ctx = CurrentExec();
      ctx != nullptr && ctx->feed_cursor < ctx->outbound_feed.size()) {
    if (ctx->outbound_feed[ctx->feed_cursor].first == fn_id) {
      MsgValue fed = ctx->outbound_feed[ctx->feed_cursor++].second;
      // Re-record into the fresh log entry so a later reboot still replays
      // the full outbound history.
      if (ctx->inbound_seq != 0) {
        domain_->LogFor(ctx->component)
            .RecordOutbound(ctx->inbound_seq, fn_id, fed);
      }
      ct_.retries_deduped->Add();
      return fed;
    }
    ctx->outbound_feed.clear();
    ctx->feed_cursor = 0;
  }
  // Calls into a fail-stopped component return immediately: after a
  // fail-stop there is no fiber to serve them, and graceful-termination
  // hooks must not block on the dead component.
  if (slots_[LeaderOf(fn.owner)].failed && terminal_fault_.has_value()) {
    return MsgValue(ToWire(Status::Error(Errno::kIo, "component dead")));
  }
  sched::Fiber* self = fibers_.Current();
  if (self == nullptr) {
    Fatal("message-passing call to %s.%s outside a fiber context",
          slots_[fn.owner].component->name().c_str(), fn.name.c_str());
  }

  if (checker_ != nullptr) {
    // Push-time isolation checks: a payload carrying a pointer into another
    // domain's arena faults the *sender* (kMpkViolation → normal reboot
    // path), and a call that would close a reply wait-for cycle faults it
    // with kDeadlock before the message plane can wedge. Both throws unwind
    // this fiber like any other component fault.
    const ComponentId caller_domain =
        caller == kComponentNone ? kComponentNone : LeaderOf(caller);
    checker_->ScanPayload(caller, caller_domain, args);
    checker_->CheckCallCycle(caller_domain, LeaderOf(fn.owner));
  }

  // Message-thread work: store the arguments in the function-call log before
  // the callee is dispatched (§V-C).
  const LogSeq seq = MaybeLogCall(fn, args);

  Message m;
  m.kind = Message::Kind::kCall;
  m.rpc_id = domain_->NextRpcId();
  m.from = caller;
  m.to = fn.owner;
  m.fn = fn_id;
  m.caller_fiber = self;
  m.enqueued_at = options_.clock->Now();
  m.log_seq = seq;
  // Causal identity (single branch when tracing is off): a call issued
  // while serving a traced request becomes a child span of that request; a
  // call with no active trace — an app-facing entry point — mints a new
  // trace, pinned to this fiber for the duration of the call so the
  // callee's nested calls chain under it.
  bool minted_root = false;
  if (recorder_.enabled()) {
    const obs::TraceContext parent = self->trace();
    if (parent.active()) {
      m.trace = {parent.trace_id, next_span_id_++, parent.span_id};
    } else {
      m.trace = {next_trace_id_++, next_span_id_++, 0};
      self->set_trace(m.trace);
      minted_root = true;
    }
  }
  domain_->Push(m, args);
  ct_.messages->Add();
  pending_replies_[m.rpc_id] = PendingReply{false, MsgValue(), self};
  if (checker_ != nullptr && caller != kComponentNone) {
    checker_->AddWait(m.rpc_id, LeaderOf(caller), LeaderOf(fn.owner));
  }

  if (options_.policy == SchedPolicy::kDependencyAware) {
    // Correlation hint: the sender's dependency set *replaces* the candidate
    // list — the scheduler infers the next dispatches from the component
    // that just sent a message (§V-C), and stale hints from earlier sends
    // would only cause useless empty-poll dispatches.
    das_candidates_.clear();
    const auto& deps =
        caller == kComponentNone ? app_deps_ : slots_[caller].deps;
    for (ComponentId d : deps) das_candidates_.push_back(LeaderOf(d));
  }

  fibers_.Block();  // the message thread takes over; Wake() on reply

  if (checker_ != nullptr) checker_->RemoveWait(m.rpc_id);

  // End-to-end call latency (enqueue to reply pickup) feeds the tail
  // percentiles the bench harness reports.
  hist_.call_ns->Record(options_.clock->Now() - m.enqueued_at);

  // The request is complete: a root minted for this call must not leak
  // onto the app fiber's next, unrelated call.
  if (minted_root) self->set_trace({});

  auto it = pending_replies_.find(m.rpc_id);
  if (it == pending_replies_.end() || !it->second.arrived) {
    // Reply lost: the callee fail-stopped and could not be recovered.
    if (it != pending_replies_.end()) pending_replies_.erase(it);
    return MsgValue(ToWire(Status::Error(Errno::kIo, "component failed")));
  }
  MsgValue ret = std::move(it->second.value);
  pending_replies_.erase(it);
  return ret;
}

std::optional<msg::MsgValue> Runtime::TryInlineCall(ComponentId caller,
                                                    FunctionId fn_id,
                                                    const Args& args) {
  const FnEntry& fn = Fn(fn_id);
  const ComponentId leader = LeaderOf(fn.owner);
  Slot& slot = slots_[leader];
  sched::Fiber* self = fibers_.Current();
  // Eligibility: resident, idle, and indistinguishable from the message path
  // for everything the caller can observe. Anything that relies on queue
  // order or the reboot machinery's mid-call windows — queued work, an armed
  // injection, a pending retry, an outbound replay feed — takes the message
  // path so its semantics are untouched.
  if (self == nullptr || terminal_fault_.has_value()) return std::nullopt;
  if (slot.failed || slot.resident == nullptr || slot.busy > 0 ||
      slot.retried_once) {
    return std::nullopt;
  }
  if (slot.injection.has_value() && slot.injection->armed) return std::nullopt;
  if (recorder_.enabled() && !trace_inline_) return std::nullopt;
  for (ComponentId member : slot.group) {
    if (domain_->HasMessage(member)) return std::nullopt;
  }
  if (ExecCtx* ctx = CurrentExec();
      ctx != nullptr && ctx->feed_cursor < ctx->outbound_feed.size()) {
    return std::nullopt;  // MessageCall owns the retry-dedupe feed
  }

  if (checker_ != nullptr) {
    // Push-time leak scan, same as the message path. No wait edge or cycle
    // check: the call completes synchronously, so it can never participate
    // in a reply wait-for cycle.
    const ComponentId caller_domain =
        caller == kComponentNone ? kComponentNone : LeaderOf(caller);
    checker_->ScanPayload(caller, caller_domain, args);
  }

  // Log before dispatch (§V-C), exactly like the message path: a reboot
  // during the inlined handler must find the inbound call in the log.
  const LogSeq seq = MaybeLogCall(fn, args);

  Message m;
  m.kind = Message::Kind::kCall;
  m.rpc_id = domain_->NextRpcId();
  m.from = caller;
  m.to = fn.owner;
  m.fn = fn_id;
  m.caller_fiber = self;
  m.enqueued_at = options_.clock->Now();
  m.log_seq = seq;

  // Run the handler on this fiber under the callee's execution context, so
  // nested calls, the hang-clock bookkeeping, and a mid-handler reboot all
  // see the same state an ExecuteOne dispatch would produce. The caller's
  // own context is restored afterwards.
  std::optional<ExecCtx> saved;
  if (auto it = exec_ctx_.find(self); it != exec_ctx_.end()) {
    saved = std::move(it->second);
  }
  slot.busy++;
  exec_ctx_[self] =
      ExecCtx{fn.owner, seq, m, args, options_.clock->Now(), {}, 0};
  InstallPkruFor(fn.owner);
  TaintComponentEntry(*slots_[fn.owner].component);

  CallCtx cctx(*this, fn.owner, /*restoring=*/false);
  MsgValue ret;
  Nanos t1 = 0;
  const Nanos t0 = options_.clock->Now();
  try {
    ret = fn.handler(cctx, args);
    t1 = options_.clock->Now();
    if (checker_ != nullptr) {
      checker_->ScanPayload(fn.owner, leader, Args{ret});
    }
  } catch (ComponentFault& fault) {
    if (slot.busy > 0) slot.busy--;  // a racing reboot may have reset it
    exec_ctx_.erase(self);
    if (saved.has_value()) exec_ctx_[self] = std::move(*saved);
    InstallPkruFor(caller);
    if (fault.component() == kComponentNone ||
        LeaderOf(fault.component()) != leader) {
      throw;  // not ours to recover (e.g. a nested callee faulted)
    }
    return RecoverInlineFault(m, args, fault);
  } catch (...) {
    if (slot.busy > 0) slot.busy--;
    exec_ctx_.erase(self);
    if (saved.has_value()) exec_ctx_[self] = std::move(*saved);
    InstallPkruFor(caller);
    throw;
  }
  if (slot.busy > 0) slot.busy--;
  slot.retried_once = false;
  exec_ctx_.erase(self);
  if (saved.has_value()) exec_ctx_[self] = std::move(*saved);
  InstallPkruFor(caller);

  fn.latency->Record(t1 - t0);
  hist_.call_ns->Record(t1 - t0);
  const bool handler_error = ret.is_i64() && ret.i64() < 0;
  if (handler_error) fn.errors->Add();
  if (health_ != nullptr) {
    health_now_ = t1;
    health_->OnRequest(leader, t1, t1 - t0);
    if (handler_error) health_->OnError(leader, t1);
  }
  // A borrowed view returned inline never crosses the reply queue, so the
  // single delivery copy the reply path would make happens here; a view the
  // lender already invalidated becomes the same kIo error the message
  // thread would deliver.
  if (ret.is_view()) {
    ret = ret.ViewUsable()
              ? ret.Compacted()
              : MsgValue(ToWire(Status::Error(
                    Errno::kIo, "reply payload invalidated by lender reboot")));
  }
  if (seq != 0) FinishLog(fn, seq, ret, Args{});
  if (ExecCtx* ctx = CurrentExec(); ctx != nullptr && ctx->inbound_seq != 0) {
    // The caller's own outbound log still needs the return for its replay.
    domain_->LogFor(ctx->component).RecordOutbound(ctx->inbound_seq, fn_id,
                                                   ret);
  }
  ct_.direct_calls->Add();
  return ret;
}

msg::MsgValue Runtime::RecoverInlineFault(const Message& m, const Args& args,
                                          const ComponentFault& fault) {
  // The faulted execution sits on the *caller's* live fiber, so the usual
  // faulted-fiber teardown does not apply: park the interrupted call for the
  // post-reboot retry, kick off recovery, and block like a message-path
  // caller until the retried execution's reply (or a fail-stop) wakes us.
  const ComponentId leader = LeaderOf(m.to);
  Slot& slot = slots_[leader];
  sched::Fiber* self = fibers_.Current();
  slot.failed = true;
  if (health_ != nullptr) {
    health_now_ = options_.clock->Now();
    health_->OnFault(leader, health_now_);
  }
  VAMPOS_INFO("component '%s' failed (inline): %s",
              slots_[leader].component->name().c_str(), fault.what());
  slot.inflight_failed = std::make_pair(m, args);
  pending_replies_[m.rpc_id] = PendingReply{false, MsgValue(), self};
  if (checker_ != nullptr && m.from != kComponentNone) {
    checker_->AddWait(m.rpc_id, LeaderOf(m.from), leader);
  }
  auto begun =
      BeginRecovery(leader, /*refresh=*/false, /*escalate=*/true, fault);
  if (!begun.ok()) FailStop(fault);
  // FailStop wakes only fibers already blocked, so if recovery ended in a
  // fail-stop before we block there is nobody left to wake us: fall through
  // to the reply-lost path instead.
  if (!terminal_fault_.has_value()) {
    fibers_.Block();  // message thread finishes recovery; reply wakes us
  }
  if (checker_ != nullptr) checker_->RemoveWait(m.rpc_id);
  hist_.call_ns->Record(options_.clock->Now() - m.enqueued_at);
  auto it = pending_replies_.find(m.rpc_id);
  if (it == pending_replies_.end() || !it->second.arrived) {
    if (it != pending_replies_.end()) pending_replies_.erase(it);
    return MsgValue(ToWire(Status::Error(Errno::kIo, "component failed")));
  }
  MsgValue ret = std::move(it->second.value);
  pending_replies_.erase(it);
  return ret;
}

void Runtime::ResidentLoop(ComponentId leader) {
  while (true) {
    // Execute up to kExecBatch queued messages per dispatch: the replies
    // accumulate in the domain and the message thread delivers them as one
    // batch instead of paying a full scheduler round trip per message.
    std::size_t executed = 0;
    while (executed < kExecBatch) {
      bool any = false;
      for (ComponentId member : slots_[leader].group) {
        if (ExecuteOne(member)) {
          any = true;
          break;
        }
      }
      if (!any) break;
      executed++;
    }
    if (executed == 0) ct_.empty_polls->Add();
    fibers_.Yield();
  }
}

bool Runtime::ExecuteOne(ComponentId id) {
  auto pulled = domain_->Pull(id);
  if (!pulled.has_value()) return false;
  auto& [m, args] = *pulled;
  Slot& slot = slots_[LeaderOf(id)];
  sched::Fiber* fiber = fibers_.Current();

  // Adopt the message's causal identity before anything can fault or hang:
  // nested calls the handler makes become child spans, and a reboot that
  // interrupts this execution finds the trace on the retry record. The
  // queue-wait share of the request's latency is knowable right here.
  if (recorder_.enabled()) {
    fiber->set_trace(m.trace);
    if (m.trace.active()) {
      hist_.trace_queue_ns->Record(options_.clock->Now() - m.enqueued_at);
    }
  }

  // Fault injection (tests, case studies): trigger before the handler runs.
  if (slot.injection.has_value() && slot.injection->armed) {
    if (slot.injection->remaining-- <= 0) {
      const FaultKind kind = slot.injection->kind;
      if (!slot.injection->sticky) slot.injection->armed = false;
      slot.injection->remaining = 0;
      recorder_.Record(obs::EventKind::kFaultInjected,
                       obs::TracePhase::kInstant, id,
                       static_cast<std::int64_t>(kind),
                       static_cast<std::int64_t>(m.rpc_id));
      if (kind == FaultKind::kHang) {
        // Model a hang: the handler never completes; the hang detector
        // (processing-time threshold) will reboot the component. The
        // in-flight message is retried from the execution context the
        // reboot collects (not inflight_failed — that would retry twice).
        slot.busy++;
        exec_ctx_[fiber] =
            ExecCtx{id, m.log_seq, m, args, options_.clock->Now(), {}, 0};
        // Park until the hang detector's recovery destroys this fiber. A
        // fail-stop ends recovery for good, so unwind then instead: an
        // immortal always-ready fiber would keep the terminal runtime from
        // ever going idle.
        while (!terminal_fault_.has_value()) fibers_.Yield();
        slot.busy--;
        exec_ctx_.erase(fiber);
        throw ComponentFault(id, FaultKind::kHang,
                             "injected hang unwound at fail-stop");
      }
      slot.inflight_failed = std::make_pair(m, args);
      if (kind == FaultKind::kCorruptCheckpoint) {
        // Damage the group's checkpoint before the fault fires, so the
        // reboot this fault triggers fails its restore (and, with the
        // reinit-on-restore-failure fallback, rebuilds the component from
        // Init plus a full log replay instead of fail-stopping).
        for (ComponentId member : slots_[LeaderOf(id)].group) {
          if (slots_[member].component->statefulness() ==
              Statefulness::kStateful) {
            CorruptCheckpoint(member);
            break;
          }
        }
      }
      if (kind == FaultKind::kMpkViolation && isolation_) {
        // Attempt a cross-domain write; the MPK simulator raises the fault.
        for (auto& other : slots_) {
          if (other.key != slot.key && other.key != mpk::kDefaultKey) {
            std::byte poison{0xEF};
            domains_.CheckedWrite(id, other.component->arena().base(),
                                  &poison, 1);
          }
        }
      }
      throw ComponentFault(id, kind == FaultKind::kMpkViolation
                                   ? FaultKind::kPanic  // isolation off
                                   : kind,
                           "injected fault");
    }
  }

  slot.busy++;
  ExecCtx ctx{id, m.log_seq, m, args, options_.clock->Now(), {}, 0};
  if (auto fit = retry_feeds_.find(m.rpc_id); fit != retry_feeds_.end()) {
    ctx.outbound_feed = std::move(fit->second);
    retry_feeds_.erase(fit);
  }
  exec_ctx_[fiber] = std::move(ctx);

  const FnEntry& fn = Fn(m.fn);
  CallCtx cctx(*this, id, /*restoring=*/false);
  TaintComponentEntry(*slots_[id].component);
  MsgValue ret;
  Nanos t1 = 0;
  const Nanos t0 = options_.clock->Now();
  try {
    ret = fn.handler(cctx, args);
    t1 = options_.clock->Now();
    fn.latency->Record(t1 - t0);
    if (recorder_.enabled() && m.trace.active()) {
      hist_.trace_exec_ns->Record(t1 - t0);
    }
    const bool handler_error = ret.is_i64() && ret.i64() < 0;
    if (handler_error) fn.errors->Add();
    if (health_ != nullptr) {
      health_now_ = t1;
      const ComponentId hid = LeaderOf(id);
      health_->OnRequest(hid, t1, t1 - t0);
      if (handler_error) health_->OnError(hid, t1);
    }
    // Reply-side leak scan, still inside the try so a leaked return value
    // gets the same retry-then-fail-stop treatment as a faulting handler.
    if (checker_ != nullptr) {
      checker_->ScanPayload(id, LeaderOf(id), Args{ret});
    }
  } catch (...) {
    slot.busy--;
    slot.inflight_failed = std::make_pair(m, args);
    exec_ctx_.erase(fiber);
    throw;
  }
  slot.busy--;
  slot.retried_once = false;  // forward progress resets the retry budget
  exec_ctx_.erase(fiber);
  if (recorder_.enabled()) fiber->set_trace({});

  Message r;
  r.kind = Message::Kind::kReply;
  r.rpc_id = m.rpc_id;
  r.from = id;
  r.to = m.from;
  r.fn = m.fn;
  r.caller_fiber = m.caller_fiber;
  // Replies inherit the call's identity; enqueued_at doubles as the reply
  // push timestamp so delivery can record the reply-hop latency.
  r.enqueued_at = t1;
  r.log_seq = m.log_seq;
  r.trace = m.trace;
  domain_->PushReply(r, Args{ret});
  ct_.messages->Add();
  // End of the borrower's execution window: revoke the borrow grants made
  // for this call's inbound views. Inbound views echoed into the reply were
  // already materialized by PushReply (granted views take the copy path —
  // one hop only), so nothing downstream still reads through the grant.
  domain_->RevokeBorrows(m.rpc_id);
  return true;
}

void Runtime::DeliverOneReply(const Message& m, Args& payload) {
  MsgValue ret = payload.empty() ? MsgValue() : payload[0];
  // A reply view whose lender rebooted between push and delivery must never
  // be silently read (or logged): the caller gets an explicit I/O error, the
  // same contract as a lost reply.
  if (ret.is_view() && !ret.ViewUsable()) {
    ret = MsgValue(
        ToWire(Status::Error(Errno::kIo,
                             "reply payload invalidated by lender reboot")));
  }
  const FnEntry& fn = Fn(m.fn);
  // Message-thread log work: preserve the return value (§V-C), apply
  // session-aware shrinking, and record the value in the caller's
  // outbound log for its own future restoration.
  if (m.log_seq != 0) FinishLog(fn, m.log_seq, ret, Args{});
  auto it = pending_replies_.find(m.rpc_id);
  // Orphaned (caller rebooted or fail-stopped): its fiber pointer may be
  // dangling or even reused by a new fiber — do not touch it, and do not
  // record outbound returns against whatever now owns that address.
  if (it == pending_replies_.end()) return;
  RecordOutboundForCaller(m, ret);
  if (m.caller_fiber == nullptr ||
      m.caller_fiber->state() != sched::FiberState::kBlocked) {
    pending_replies_.erase(it);
    return;
  }
  it->second.arrived = true;
  it->second.value = std::move(ret);
  recorder_.Record(obs::EventKind::kReplyDeliver, obs::TracePhase::kInstant,
                   m.to, m.fn, static_cast<std::int64_t>(m.rpc_id), m.trace);
  if (recorder_.enabled() && m.trace.active() && m.enqueued_at != 0) {
    hist_.trace_reply_ns->Record(options_.clock->Now() - m.enqueued_at);
  }
  fibers_.Wake(m.caller_fiber);
  // The caller made progress: refresh its hang timer so time spent
  // blocked on a (possibly hung and rebooted) callee is not charged to
  // the caller's own processing time.
  if (auto ctx_it = exec_ctx_.find(m.caller_fiber);
      ctx_it != exec_ctx_.end()) {
    ctx_it->second.started_at = options_.clock->Now();
  }
  if (options_.policy == SchedPolicy::kDependencyAware &&
      m.to != kComponentNone) {
    das_candidates_.push_front(m.to);
  }
}

void Runtime::DeliverReplies() {
  // Coalesced delivery: replies accumulated since the last scheduler turn
  // are flushed in one pass rather than per message. The batching counter
  // covers the whole turn's flush — kReplyBatch is a pull granularity, not
  // a coalescing boundary, so two pulls of one reply each still count as a
  // batch of two.
  std::vector<std::pair<Message, Args>> batch;
  std::uint64_t flushed = 0;
  while (domain_->PullReplies(kReplyBatch, &batch) > 0) {
    flushed += batch.size();
    for (auto& [m, payload] : batch) DeliverOneReply(m, payload);
  }
  if (flushed > 1) ct_.replies_batched->Add(flushed);
}

Runtime::ExecCtx* Runtime::CurrentExec() {
  if (sched::Fiber* f = fibers_.Current()) {
    auto it = exec_ctx_.find(f);
    return it == exec_ctx_.end() ? nullptr : &it->second;
  }
  if (!restore_stack_.empty()) return &restore_stack_.back();
  return nullptr;
}

bool Runtime::SameGroup(ComponentId a, ComponentId b) const {
  return a != kComponentNone && b != kComponentNone &&
         LeaderOf(a) == LeaderOf(b);
}

// ----------------------------------------------------------------- lookup

FunctionId Runtime::Lookup(const std::string& component,
                           const std::string& function) const {
  if (auto id = TryLookup(component, function)) return *id;
  Fatal("unknown function %s.%s", component.c_str(), function.c_str());
}

std::optional<FunctionId> Runtime::TryLookup(
    const std::string& component, const std::string& function) const {
  auto it = fn_by_name_.find(component + "." + function);
  if (it == fn_by_name_.end()) return std::nullopt;
  return it->second;
}

ComponentId Runtime::FindComponent(const std::string& name) const {
  for (const auto& slot : slots_) {
    if (slot.component->name() == name) return slot.component->id();
  }
  return kComponentNone;
}

std::vector<ComponentId> Runtime::Components() const {
  std::vector<ComponentId> ids;
  ids.reserve(slots_.size());
  for (const auto& slot : slots_) ids.push_back(slot.component->id());
  return ids;
}

// ------------------------------------------------------------------ PKRU

void Runtime::InstallPkruFor(ComponentId id) {
  if (!isolation_) return;
  if (id == kComponentNone) {
    mpk::Pkru pkru = mpk::Pkru::AllDenied();
    pkru.Allow(domain_->key(), /*write=*/true);
    domains_.WritePkru(pkru);
    return;
  }
  domains_.WritePkru(slots_[LeaderOf(id)].pkru);
}

void Runtime::InstallMessageThreadPkru() {
  if (!isolation_) return;
  // The message thread is trusted: it owns the message domain and logs.
  mpk::Pkru pkru = mpk::Pkru::AllDenied();
  pkru.Allow(domain_->key(), /*write=*/true);
  domains_.WritePkru(pkru);
}

// ------------------------------------------------------------------ stats

std::vector<FunctionStats> Runtime::TopFunctions(std::size_t limit) const {
  std::vector<FunctionStats> out;
  out.reserve(fns_.size());
  for (const FnEntry& fn : fns_) {
    if (fn.latency == nullptr || fn.latency->count() == 0) continue;
    FunctionStats s;
    s.name = slots_[fn.owner].component->name() + "." + fn.name;
    s.calls = fn.latency->count();
    s.total_ns = static_cast<Nanos>(fn.latency->sum());
    s.errors = fn.errors->value();
    s.p50_ns = static_cast<Nanos>(fn.latency->Percentile(50));
    s.p95_ns = static_cast<Nanos>(fn.latency->Percentile(95));
    s.p99_ns = static_cast<Nanos>(fn.latency->Percentile(99));
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const FunctionStats& a, const FunctionStats& b) {
              return a.total_ns > b.total_ns;
            });
  if (out.size() > limit) out.resize(limit);
  return out;
}

RuntimeStats Runtime::Stats() const {
  RuntimeStats s;
  s.calls = ct_.calls->value();
  s.direct_calls = ct_.direct_calls->value();
  s.messages = ct_.messages->value();
  s.empty_polls = ct_.empty_polls->value();
  s.log_appends = ct_.log_appends->value();
  s.log_pruned_entries = ct_.log_pruned_entries->value();
  s.compactions = ct_.compactions->value();
  s.compaction_skips = ct_.compaction_skips->value();
  s.replies_batched = ct_.replies_batched->value();
  s.retries_deduped = ct_.retries_deduped->value();
  s.reboots = ct_.reboots->value();
  s.aux_fibers_spawned = ct_.aux_fibers_spawned->value();
  s.hangs_detected = ct_.hangs_detected->value();
  s.context_switches = fibers_.context_switches();
  s.pkru_writes = domains_.PkruWrites();
  s.log_scans = domain_->TotalLogScans();
  return s;
}

MemoryReport Runtime::Memory() const {
  MemoryReport r;
  for (const auto& slot : slots_) {
    r.component_arena_bytes += slot.component->arena().size();
    if (slot.component->alloc_.has_value()) {
      r.component_used_bytes += slot.component->alloc_->Stats().bytes_in_use;
    }
    r.snapshot_bytes += slot.checkpoint.size_bytes();
    r.snapshot_stored_bytes += slot.checkpoint.stored_bytes();
  }
  r.snapshot_baseline_bytes = snapshot_baseline_.bytes();
  r.log_bytes = domain_->TotalLogBytes();
  r.log_entries = domain_->TotalLogEntries();
  return r;
}

void Runtime::SampleHealth(Nanos now) {
  for (const auto& slot : slots_) {
    if (slot.component == nullptr) continue;
    const ComponentId id = slot.component->id();
    if (LeaderOf(id) != id) continue;  // merged members ride the leader
    std::int64_t bytes = 0;
    if (slot.component->alloc_.has_value()) {
      bytes = static_cast<std::int64_t>(
          slot.component->alloc_->Stats().bytes_in_use);
    }
    std::int64_t marks = 0;
    if (const mem::DirtyTracker* t = slot.component->arena().dirty_tracker()) {
      marks = static_cast<std::int64_t>(t->marks());
    }
    health_->OnSample(id, now, bytes, marks);
  }
}

std::size_t Runtime::LogEntries(ComponentId id) const {
  return domain_->HasLog(id)
             ? const_cast<Runtime*>(this)->domain_->LogFor(id).size()
             : 0;
}

std::size_t Runtime::LogBytes(ComponentId id) const {
  return domain_->HasLog(id)
             ? const_cast<Runtime*>(this)->domain_->LogFor(id).bytes()
             : 0;
}

int Runtime::MpkTagsInUse() const { return domains_.KeysInUse(); }

void Runtime::DumpState(std::FILE* out) const {
  std::fprintf(out, "=== vampos runtime state ===\n");
  for (const auto& slot : slots_) {
    const ComponentId id = slot.component->id();
    std::fprintf(
        out,
        "  comp %2d %-10s leader=%d failed=%d busy=%d queue=%zu log=%zu "
        "reboots=%llu resident=%s aux=%zu\n",
        id, slot.component->name().c_str(), slot.leader, slot.failed,
        slot.busy, domain_->QueueDepth(id),
        domain_->HasLog(id)
            ? const_cast<msg::MessageDomain&>(*domain_).LogFor(id).size()
            : 0,
        static_cast<unsigned long long>(slot.reboots),
        slot.resident == nullptr
            ? "none"
            : (slot.resident->state() == sched::FiberState::kReady
                   ? "ready"
                   : "blocked/other"),
        slot.aux.size());
  }
  for (const auto* f : app_fibers_) {
    std::fprintf(out, "  app fiber '%s' state=%d\n", f->name().c_str(),
                 static_cast<int>(f->state()));
  }
  std::fprintf(out, "  pending rpcs=%zu exec ctxs=%zu replies queued=%d\n",
               pending_replies_.size(), exec_ctx_.size(),
               domain_->HasReply() ? 1 : 0);
  for (const auto& [rpc, p] : pending_replies_) {
    std::fprintf(out, "    rpc %llu arrived=%d waiter=%s state=%d\n",
                 static_cast<unsigned long long>(rpc), p.arrived,
                 p.waiter != nullptr ? p.waiter->name().c_str() : "null",
                 p.waiter != nullptr ? static_cast<int>(p.waiter->state())
                                     : -1);
  }
  for (const auto& [fiber, ctx] : exec_ctx_) {
    std::fprintf(out, "    exec ctx fiber='%s' comp=%d seq=%llu\n",
                 fiber->name().c_str(), ctx.component,
                 static_cast<unsigned long long>(ctx.inbound_seq));
  }
  std::fprintf(out, "  terminal fault: %s\n",
               terminal_fault_.has_value() ? terminal_fault_->what() : "none");
  if (health_ != nullptr) health_->Dump(out, options_.clock->Now());
  if (checker_ != nullptr) checker_->Dump(out);
  recorder_.DumpTail(out);
}

void Runtime::WritePostmortemTrace(const char* why) const {
  if (recorder_.total_recorded() == 0) return;
  const char* path = std::getenv("VAMPOS_TRACE_DUMP");
  if (path == nullptr) path = "vampos_postmortem_trace.json";
  if (path[0] == '\0') return;  // VAMPOS_TRACE_DUMP="" suppresses the dump
  if (recorder_.WriteChromeTrace(path)) {
    VAMPOS_INFO("post-mortem trace (%s) written to %s", why, path);
  } else {
    VAMPOS_ERROR("cannot write post-mortem trace to %s", path);
  }
  // A companion metrics snapshot (VAMPOS_METRICS_DUMP=path) pairs the
  // trace with the registry state — CI archives both as artifacts. The
  // exposition format follows VAMPOS_METRICS_FORMAT (text/json/prom).
  if (const char* mpath = std::getenv("VAMPOS_METRICS_DUMP");
      mpath != nullptr && mpath[0] != '\0') {
    if (std::FILE* f = std::fopen(mpath, "w")) {
      switch (metrics_format_) {
        case MetricsFormat::kText:
          metrics_.WriteText(f);
          break;
        case MetricsFormat::kJson:
          metrics_.WriteJson(f);
          break;
        case MetricsFormat::kProm:
          metrics_.WritePrometheus(f);
          break;
      }
      std::fclose(f);
    } else {
      VAMPOS_ERROR("cannot write metrics snapshot to %s", mpath);
    }
  }
}

// ------------------------------------------------------------- the vault

void Runtime::SaveRuntimeData(ComponentId id, const std::string& key,
                              MsgValue value) {
  vault_[std::to_string(id) + "/" + key] = std::move(value);
}

std::optional<MsgValue> Runtime::LoadRuntimeData(ComponentId id,
                                                 const std::string& key) {
  auto it = vault_.find(std::to_string(id) + "/" + key);
  if (it == vault_.end()) return std::nullopt;
  return it->second;
}

}  // namespace vampos::core

// ------------------------------------------------- comp:: context methods

namespace vampos::comp {

msg::MsgValue CallCtx::Call(FunctionId fn, msg::Args args) {
  return rt_.Call(fn, std::move(args));
}

void CallCtx::SaveRuntimeData(const std::string& key, msg::MsgValue value) {
  rt_.SaveRuntimeData(self_, key, std::move(value));
}

std::optional<msg::MsgValue> CallCtx::LoadRuntimeData(const std::string& key) {
  return rt_.LoadRuntimeData(self_, key);
}

void CallCtx::Panic(const std::string& detail) {
  vampos::Panic(self_, detail);
}

FunctionId InitCtx::Export(const std::string& name, FnOptions options,
                           Handler handler) {
  return rt_.ExportFn(self_, name, options, std::move(handler));
}

FunctionId InitCtx::Import(const std::string& component,
                           const std::string& function) {
  return rt_.Lookup(component, function);
}

std::optional<FunctionId> InitCtx::TryImport(const std::string& component,
                                             const std::string& function) {
  return rt_.TryLookup(component, function);
}

}  // namespace vampos::comp
