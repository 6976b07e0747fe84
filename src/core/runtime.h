// The VampOS runtime: interface registry, message thread, component
// scheduling, failure detection, and component-level reboot.
//
// One Runtime instance is one unikernel-linked application. The runtime's
// main loop plays the paper's *message thread*: it maintains the message
// domain (buffers + logs), dispatches component fibers under the configured
// scheduling policy, monitors components for failures, and drives
// reboot-based recovery of individual components.
//
// Modes:
//   kUnikraft — baseline: cross-component calls are direct function calls on
//               the caller's context; no logging, isolation, or scheduling.
//   kVampOS   — message-passing calls, per-component fibers + MPK domains,
//               function-call/return-value logging, component reboots.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/clock.h"
#include "base/types.h"
#include "comp/component.h"
#include "mem/snapshot.h"
#include "mpk/mpk.h"
#include "msg/domain.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/fiber.h"

namespace vampos::check {
class IsolationChecker;
}

namespace vampos::core {

enum class Mode { kUnikraft, kVampOS };
enum class SchedPolicy { kRoundRobin, kDependencyAware };

struct RuntimeOptions {
  Mode mode = Mode::kVampOS;
  SchedPolicy policy = SchedPolicy::kDependencyAware;
  /// Enable the MPK protection-domain simulation.
  bool isolation = true;
  /// When components outnumber the 16 hardware protection keys, share keys
  /// (EPK/libmpk-style) instead of leaving the overflow unisolated.
  bool virtualize_mpk_keys = true;
  /// Message-domain arena size (staging buffers).
  std::size_t msg_arena_size = 8u << 20;
  /// Session-aware log shrinking threshold, in entries per component log
  /// (paper default: 100). Compaction hooks fire when a log exceeds it.
  std::size_t log_shrink_threshold = 100;
  /// Master switch for session-aware shrinking (canceling-function pruning
  /// and stale-pair removal). Disabled only to measure the "normal" column
  /// of the paper's Table III.
  bool session_shrink = true;
  /// Hang detector: a message older than this without a reply marks its
  /// component hung (paper default: 1.0 s).
  Nanos hang_threshold = kSecond;
  /// Re-execute the in-flight request after a reboot (non-deterministic
  /// faults won't re-trigger). A second failure of the same request
  /// fail-stops, per the paper's fault model.
  bool retry_inflight = true;
  /// Start with the flight recorder enabled (it can also be toggled later
  /// via Runtime::recorder()). Off by default: the recorder ring is not
  /// even allocated, and every trace point is a single predicted branch.
  /// The VAMPOS_TRACE env var ("1"/"0") overrides this at construction, so
  /// any binary can be traced without a code change.
  bool tracing = false;
  /// Ring capacity (events) used when tracing is enabled. Overridden by
  /// the VAMPOS_TRACE_EVENTS env var when set to a positive integer.
  std::size_t trace_capacity = obs::FlightRecorder::kDefaultCapacity;
  /// Checkpoint engine (paper §V-E). kIncremental (default) captures and
  /// restores at 4 KiB page granularity with per-page content hashes:
  /// restores copy only divergent pages, re-captures copy only pages dirtied
  /// since the last capture, zero pages are elided, and post-init images are
  /// deduplicated through a runtime-wide read-only page baseline. kFullCopy
  /// is the legacy full-arena memcpy fallback (verified byte-equivalent by
  /// tests); both modes feed the snapshot.* metrics.
  mem::SnapshotMode snapshot_mode = mem::SnapshotMode::kIncremental;
  /// Write-time dirty-page tracking (requires kIncremental): every stateful
  /// component arena gets a per-4KiB-page bitmap fed by the sanctioned write
  /// paths (allocator, checked MPK writes, message-domain copies, explicit
  /// Arena::MarkDirty), and Recapture/Restore consume it so their cost is
  /// O(dirty pages) instead of O(footprint). Components that do not declare
  /// a WriteTracking level are conservatively whole-arena-tainted on every
  /// entry, which keeps them correct but un-accelerated. Overridden by the
  /// VAMPOS_DIRTY_TRACKING env var ("1"/"0").
  bool dirty_tracking = false;
  /// Audit sampling for dirty-tracked snapshot operations: roughly 1-in-N
  /// fast-path operations full-hash-scan anyway and flag any page that
  /// changed without its dirty bit (an untracked write). 0 disables audits;
  /// 1 audits every operation. Overridden by VAMPOS_SNAPSHOT_AUDIT.
  std::uint32_t dirty_audit_rate = 64;
  /// Fail-stop (Fatal) on an audit miss instead of counting and resyncing.
  /// Defaults to fail-stop in debug builds, count-and-resync in release.
#ifdef NDEBUG
  bool dirty_audit_fail_stop = false;
#else
  bool dirty_audit_fail_stop = true;
#endif
  /// Debug/CI isolation and liveness checking (vampcheck, see
  /// docs/static-analysis.md): shadow arena-ownership map, cross-domain
  /// pointer-leak scan on every push/reply, and wait-for-graph deadlock
  /// detection over blocked calls. Off by default: the runtime holds a null
  /// checker and every hook is a single predicted branch (same guarantee as
  /// the flight recorder).
  bool isolation_check = false;
  /// Not a knob (restores run on the message thread); perfbench prints it.
  static constexpr int recovery_workers = 0;
  /// When a checkpoint restore fails (corrupt/foreign image), fall back to
  /// re-running Init on a freshly formatted arena, capture a new checkpoint,
  /// and rebuild state through the full log replay, instead of failing the
  /// reboot. Off by default (tests rely on the status-error contract); chaos
  /// campaigns enable it so corrupt-checkpoint faults stay recoverable.
  /// Caveat: incorrect after a refresh pruned replayed history from the log.
  bool reinit_on_restore_failure = false;
  /// Aging-aware health telemetry (docs/observability.md): per-component
  /// windowed series for request rate / errors / p99 latency / hangs /
  /// faults / arena bytes / dirty pages, with leak-slope, latency-drift,
  /// and error-rate detectors feeding a hysteresis health score. Off by
  /// default: the runtime holds a null monitor and every feed point is a
  /// single predicted branch (the flight-recorder guarantee). Overridden by
  /// the VAMPOS_HEALTH env var ("1"/"0"); can also be turned on later via
  /// Runtime::EnableHealth().
  bool health = false;
  /// Window geometry and detector thresholds used when health is enabled.
  obs::HealthConfig health_config = {};
  /// Zero-copy payload staging (docs/message-plane.md "zero-copy borrow
  /// protocol"): borrowed views in payloads cross the message domain as
  /// out-of-line references with a temporary MPK read grant instead of being
  /// copied through the staging arena. Byte-equivalent to the copy path by
  /// construction (fuzzed in test_zerocopy); the VAMPOS_MSG_ZEROCOPY env var
  /// ("1"/"0") overrides this at construction so the copy fallback stays one
  /// knob away.
  bool zero_copy_payloads = true;
  /// Same-destination inline call fast path: when the callee group is
  /// resident and idle (no queued work, no handler mid-flight, no armed
  /// injection or pending retry), run the handler synchronously on the
  /// caller's fiber instead of paying the queue + fiber hop. Counted in
  /// rt.direct_calls. Off by default: like merged-group DirectInvoke, an
  /// inlined handler executes outside the hang detector and the mid-call
  /// reboot window, which several recovery tests orchestrate through.
  /// Overridden by the VAMPOS_INLINE_CALLS env var ("1"/"0").
  bool inline_calls = false;
  Clock* clock = &SteadyClock::Instance();
};

/// Timing breakdown of one component reboot (paper Fig 6).
struct RebootReport {
  ComponentId component = kComponentNone;
  std::string name;
  bool stateless = false;
  Nanos total_ns = 0;
  Nanos stop_ns = 0;       // fiber teardown + queue handling
  Nanos snapshot_ns = 0;   // checkpoint restore (dominant for stateful)
  Nanos replay_ns = 0;     // encapsulated restoration
  std::size_t entries_replayed = 0;
  // Decomposition of the snapshot phase under the page-granular engine:
  // the hash pass (scales with arena size, parallelizable) vs the copy pass
  // (scales with how many pages actually diverged).
  Nanos snapshot_hash_ns = 0;
  Nanos snapshot_copy_ns = 0;
  std::size_t snapshot_pages_total = 0;
  std::size_t snapshot_pages_dirty = 0;   // pages copied by the restore
  std::size_t snapshot_bytes_copied = 0;  // bytes written into arenas
  // Dirty-tracking restore: pages never even read because their bit was
  // clean (nonzero only when the tracker fast path ran).
  std::size_t snapshot_pages_skipped = 0;
  // Rejuvenation refresh (Recapture) breakdown, filled only when the reboot
  // ran with refresh_checkpoint — this is where write-tracking pays: an
  // idle component's refresh should skip nearly every page.
  Nanos refresh_hash_ns = 0;
  Nanos refresh_copy_ns = 0;
  std::size_t refresh_pages_dirty = 0;
  std::size_t refresh_pages_skipped = 0;
};

/// Aggregate counters for the bench harness.
struct RuntimeStats {
  std::uint64_t calls = 0;             // cross-component calls issued
  std::uint64_t direct_calls = 0;      // baseline or intra-merge calls
  std::uint64_t messages = 0;          // messages pushed (calls + replies)
  std::uint64_t context_switches = 0;
  std::uint64_t empty_polls = 0;       // dispatches that found no message
  std::uint64_t pkru_writes = 0;
  std::uint64_t log_appends = 0;
  std::uint64_t log_pruned_entries = 0;
  std::uint64_t compactions = 0;
  std::uint64_t compaction_skips = 0;  // over threshold, no eligible session
  std::uint64_t log_scans = 0;         // full-log passes (should stay flat)
  std::uint64_t replies_batched = 0;   // replies delivered in multi-reply batches
  std::uint64_t retries_deduped = 0;   // outbound calls fed from the log on retry
  std::uint64_t reboots = 0;
  std::uint64_t aux_fibers_spawned = 0;
  std::uint64_t hangs_detected = 0;
};

/// Per-exported-function metrics (observability for operators; also feeds
/// the Fig 5 transition analysis). Backed by the per-function latency
/// histograms in the metrics registry ("fn.<component>.<function>.ns").
struct FunctionStats {
  std::string name;         // "component.function"
  std::uint64_t calls = 0;  // handler executions (message or direct)
  Nanos total_ns = 0;       // time inside the handler
  std::uint64_t errors = 0; // negative-errno returns
  Nanos p50_ns = 0;         // handler-latency percentiles
  Nanos p95_ns = 0;
  Nanos p99_ns = 0;
};

/// Memory accounting across the whole runtime (paper Fig 7b).
struct MemoryReport {
  std::size_t component_arena_bytes = 0;  // sum of arena sizes
  std::size_t component_used_bytes = 0;   // buddy bytes_in_use
  std::size_t log_bytes = 0;              // call/return logs
  std::size_t log_entries = 0;
  std::size_t snapshot_bytes = 0;         // checkpoint images (logical)
  /// Private checkpoint storage actually held — excludes zero-elided pages
  /// and pages served by the shared baseline, so under the incremental
  /// engine this is typically far below snapshot_bytes.
  std::size_t snapshot_stored_bytes = 0;
  /// Read-only page pool shared by all checkpoints (counted once).
  std::size_t snapshot_baseline_bytes = 0;
};

class Runtime {
 public:
  explicit Runtime(RuntimeOptions options = {});
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // ------------------------------------------------------------ assembly
  /// Registers a component. Must precede Boot(). Returns its id.
  ComponentId AddComponent(std::unique_ptr<comp::Component> component);

  /// Declares that `from` sends messages to `to` — feeds dependency-aware
  /// scheduling's correlation table (paper §V-C).
  void AddDependency(ComponentId from, ComponentId to);
  /// Dependency edge from the application layer to a component.
  void AddAppDependency(ComponentId to);

  /// Component merging (§V-F): members share one fiber and one MPK key, and
  /// calls between them become direct function calls. Snapshots and logs
  /// remain per-primitive so the group reboots as a unit but restores each
  /// primitive's image. Call before Boot(). First id is the group leader.
  void Merge(const std::vector<ComponentId>& members);

  /// Initializes all components (Init + Bind), takes post-init checkpoints
  /// of stateful components, assigns MPK keys, spawns resident fibers.
  void Boot();

  // ------------------------------------------------------------- app side
  /// Runs application code on an app fiber; the body may issue Calls.
  sched::Fiber* SpawnApp(const std::string& name,
                         std::function<void()> body);

  /// Drives the message thread until every app fiber is done (or faulted)
  /// and no work is pending.
  void RunUntilIdle();

  /// From inside an app fiber: block until external input arrives. Server
  /// loops park instead of spinning when their sockets are dry; the harness
  /// calls UnparkApps() after injecting client frames.
  void ParkApp();
  void UnparkApps();

  /// Drives until `pred()` is true; returns false if the system went idle
  /// first.
  bool RunUntil(const std::function<bool()>& pred);

  /// One message-thread step: failure checks + one dispatch. Returns false
  /// when idle.
  bool Step();

  // ---------------------------------------------------------- call plane
  /// Issues a call from the current execution context (app fiber, component
  /// fiber, or restore-mode replay). The public API used by the posix
  /// facade and by component handlers via CallCtx.
  msg::MsgValue Call(FunctionId fn, msg::Args args);

  /// Looks up an exported function id; fatal if absent.
  FunctionId Lookup(const std::string& component,
                    const std::string& function) const;
  /// Non-fatal lookup.
  std::optional<FunctionId> TryLookup(const std::string& component,
                                      const std::string& function) const;

  // ------------------------------------------------------------- recovery
  /// Reboots one component (or its merged group): stop fibers, restore the
  /// post-init checkpoint, replay the shrunk log with encapsulated
  /// restoration, respawn fibers. Returns the timing report, or an error
  /// status for unrebootable components or a corrupt checkpoint (a bad
  /// checkpoint fails the reboot through the normal fault path instead of
  /// killing the process).
  ///
  /// `refresh_checkpoint`: after a successful replay, incrementally
  /// re-capture each stateful member's checkpoint (only pages the replay
  /// dirtied are copied) and drop the now-baked-in log entries, so future
  /// reboots restore directly to this point. Used by periodic rejuvenation
  /// to keep both the replay log and the re-snapshot cost near zero.
  Result<RebootReport> Reboot(ComponentId id, bool refresh_checkpoint = false);

  /// Starts a reboot without waiting for it to finish: the component's
  /// fibers stop and its checkpoint restores immediately, and replay happens
  /// on a later Step() once every component it depends on is back, so
  /// several failed components can be in recovery at once while the message
  /// thread keeps serving the rest. If a recovery for the same group is
  /// already in flight, joins it. Outcomes land in reboot_history() / the
  /// rt.recovery_failures counter.
  Status RebootAsync(ComponentId id, bool refresh_checkpoint = false);

  /// Recoveries currently in flight (stopped but not yet fully replayed).
  [[nodiscard]] std::size_t active_recoveries() const {
    return recovery_jobs_.size();
  }
  /// High-water mark of concurrently in-flight recoveries.
  [[nodiscard]] std::size_t peak_concurrent_recoveries() const {
    return peak_concurrent_recoveries_;
  }

  /// Injects a fail-stop fault: after `trigger_after` further messages, the
  /// component fails with `kind`. All FaultKinds route through here —
  /// kCorruptCheckpoint damages the group's checkpoint image before the
  /// fault fires, so the subsequent reboot exercises the restore-failure
  /// path; kHang parks the handler for the hang detector; the rest throw.
  /// `sticky` keeps the fault armed across reboots — a *deterministic* bug
  /// that re-triggers on the retried input and drives the runtime to
  /// fail-stop (paper §II-B).
  void InjectFault(ComponentId id, FaultKind kind, int trigger_after = 0,
                   bool sticky = false);

  /// Proactive rejuvenation: reboot every rebootable component, one by one.
  std::vector<RebootReport> RejuvenateAll();

  /// Graceful termination (§VIII): registers application code to run when
  /// the runtime fail-stops. Hooks run on app fibers after the fail-stop is
  /// recorded, while undamaged components still serve — e.g. a KVS can
  /// flush its in-memory table through a still-working VFS before exit.
  void RegisterTerminationHook(std::function<void()> hook);

  /// Multi-versioning (§VIII): registers an alternate implementation of a
  /// component (same name, same exported interface). When the primary faces
  /// its failure *again* after a reboot — a deterministic bug — the runtime
  /// swaps in the variant, replays the log into it, and continues instead
  /// of fail-stopping.
  void RegisterVariant(ComponentId id,
                       std::unique_ptr<comp::Component> variant);

  /// Number of variant swaps performed (introspection for tests/benches).
  [[nodiscard]] std::uint64_t variant_swaps() const { return variant_swaps_; }

  // ------------------------------------------------------- introspection
  [[nodiscard]] const RuntimeOptions& options() const { return options_; }
  [[nodiscard]] RuntimeStats Stats() const;
  /// Flight recorder: enable/disable tracing, snapshot events, export
  /// Chrome trace JSON (see docs/observability.md).
  [[nodiscard]] obs::FlightRecorder& recorder() { return recorder_; }
  [[nodiscard]] const obs::FlightRecorder& recorder() const {
    return recorder_;
  }
  /// Isolation/deadlock checker; nullptr unless
  /// RuntimeOptions::isolation_check was set.
  [[nodiscard]] check::IsolationChecker* checker() { return checker_.get(); }
  [[nodiscard]] const check::IsolationChecker* checker() const {
    return checker_.get();
  }
  /// Metrics registry holding every named counter and histogram
  /// (RuntimeStats and FunctionStats are snapshot views over it).
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }
  /// Health monitor; nullptr unless RuntimeOptions::health / VAMPOS_HEALTH
  /// enabled it (or EnableHealth() was called).
  [[nodiscard]] obs::HealthMonitor* health() { return health_.get(); }
  [[nodiscard]] const obs::HealthMonitor* health() const {
    return health_.get();
  }
  /// Allocates and wires the health monitor (idempotent): binds it to the
  /// metrics registry and flight recorder and tracks every component that
  /// is already registered. Exported functions track their owner at export
  /// time, so enabling before assembly also works.
  obs::HealthMonitor& EnableHealth(const obs::HealthConfig& config = {});
  /// Snapshot of per-function metrics, sorted by total handler time.
  [[nodiscard]] std::vector<FunctionStats> TopFunctions(
      std::size_t limit = 16) const;
  [[nodiscard]] MemoryReport Memory() const;
  [[nodiscard]] msg::MessageDomain& domain() { return *domain_; }
  [[nodiscard]] mpk::DomainManager* domains() {
    return isolation_ ? &domains_ : nullptr;
  }
  [[nodiscard]] comp::Component& component(ComponentId id) {
    return *slots_[id].component;
  }
  [[nodiscard]] ComponentId FindComponent(const std::string& name) const;
  /// Ids of all registered components (group members included).
  [[nodiscard]] std::vector<ComponentId> Components() const;
  /// Group leader of a component (itself unless merged).
  [[nodiscard]] ComponentId GroupLeader(ComponentId id) const {
    return LeaderOf(id);
  }
  [[nodiscard]] std::size_t LogEntries(ComponentId id) const;
  [[nodiscard]] std::size_t LogBytes(ComponentId id) const;
  [[nodiscard]] int MpkTagsInUse() const;
  [[nodiscard]] const std::vector<RebootReport>& reboot_history() const {
    return reboot_history_;
  }
  /// Fault observed for a component that could not be recovered (fail-stop).
  [[nodiscard]] const std::optional<ComponentFault>& terminal_fault() const {
    return terminal_fault_;
  }
  /// Shared read-only page pool backing incremental checkpoints.
  [[nodiscard]] const mem::PageBaseline& snapshot_baseline() const {
    return snapshot_baseline_;
  }

  /// Test hook: replaces a component's checkpoint with one of the wrong
  /// size, simulating a corrupted/foreign image. The next reboot of the
  /// component must fail with a status error (never a process abort).
  void CorruptCheckpointForTest(ComponentId id);

  /// Dumps the full runtime state (component table, fibers, queues, logs,
  /// pending rpcs) for debugging. Also triggered automatically when
  /// RunUntilIdle exceeds the VAMPOS_SPIN_LIMIT step budget, if set.
  void DumpState(std::FILE* out) const;

  // ------------------------------------------------- runtime-data vault
  void SaveRuntimeData(ComponentId id, const std::string& key,
                       msg::MsgValue value);
  std::optional<msg::MsgValue> LoadRuntimeData(ComponentId id,
                                               const std::string& key);

  /// Registers an exported function (used by InitCtx::Export; public so
  /// harnesses can export helper functions too).
  FunctionId ExportFn(ComponentId owner, const std::string& name,
                      comp::FnOptions options, comp::Handler handler);

  static constexpr std::size_t kMaxAuxFibers = 64;
  /// Messages a resident fiber executes per dispatch before yielding, and
  /// replies the message thread drains per batch. Bounded so one busy
  /// component cannot monopolize the message thread.
  static constexpr std::size_t kExecBatch = 8;
  static constexpr std::size_t kReplyBatch = 32;

 private:
  friend class comp::CallCtx;
  friend class comp::InitCtx;

  struct FnEntry {
    FunctionId id;
    ComponentId owner;
    std::string name;
    comp::FnOptions options;
    comp::Handler handler;
    // Registry-backed metrics, resolved once at export time (stable
    // addresses; updated on the call path, reads are snapshots).
    obs::Histogram* latency = nullptr;  // "fn.<comp>.<fn>.ns"
    obs::Counter* errors = nullptr;     // "fn.<comp>.<fn>.errors"
  };

  struct FaultInjection {
    FaultKind kind;
    int remaining;  // messages to process before triggering
    bool armed = true;
    bool sticky = false;  // deterministic bug: re-arms after reboot
  };

  struct Slot {
    std::unique_ptr<comp::Component> component;
    std::vector<ComponentId> deps;
    sched::Fiber* resident = nullptr;
    std::vector<sched::Fiber*> aux;
    int busy = 0;                 // fibers currently inside a handler
    mem::Snapshot checkpoint;
    mpk::Pkru pkru;
    mpk::Key key = mpk::kDefaultKey;
    bool failed = false;
    std::uint64_t reboots = 0;
    std::optional<FaultInjection> injection;
    // Merging: leader == id for standalone/leaders; members listed on the
    // leader only.
    ComponentId leader;
    std::vector<ComponentId> group;  // leader first
    // In-flight message that died with a faulted fiber (for retry).
    std::optional<std::pair<msg::Message, msg::Args>> inflight_failed;
    bool retried_once = false;
    // Alternate implementation for deterministic-bug failover (§VIII).
    std::unique_ptr<comp::Component> variant;
  };

  struct ExecCtx {
    ComponentId component = kComponentNone;
    LogSeq inbound_seq = 0;       // current logged inbound call, 0 = none
    msg::Message msg;             // message being executed
    msg::Args args;
    Nanos started_at = 0;         // processing start, for the hang detector
    // Outbound dedupe for retried requests: return values the pre-reboot
    // execution already observed, fed back in order instead of re-invoking
    // the peers (their side effects already happened).
    std::vector<std::pair<FunctionId, msg::MsgValue>> outbound_feed;
    std::size_t feed_cursor = 0;
  };

  /// An interrupted or still-queued request carried across a reboot.
  struct RetryRecord {
    msg::Message msg;
    msg::Args args;
    // Outbound returns recorded for the erased in-flight log entry (empty
    // for never-executed queued messages).
    std::vector<std::pair<FunctionId, msg::MsgValue>> outbound_feed;
  };

  struct PendingReply {
    bool arrived = false;
    msg::MsgValue value;
    sched::Fiber* waiter = nullptr;
  };

  // Call plane internals.
  msg::MsgValue CallFromApp(FunctionId fn, msg::Args args);
  msg::MsgValue DirectInvoke(ComponentId caller, FunctionId fn,
                             const msg::Args& args, bool restoring);
  msg::MsgValue MessageCall(ComponentId caller, FunctionId fn,
                            msg::Args args);
  msg::MsgValue RestoreFeed(ComponentId caller, FunctionId fn);
  /// Same-destination inline fast path (options_.inline_calls): runs the
  /// handler on the caller's fiber when the callee is resident, idle, and
  /// untraced-or-traced-inline. nullopt = conditions not met; take the
  /// message path.
  std::optional<msg::MsgValue> TryInlineCall(ComponentId caller,
                                             FunctionId fn,
                                             const msg::Args& args);
  /// Fault thrown by an inlined handler: the faulting execution sits on the
  /// caller's live fiber (which must survive), so recovery is kicked off
  /// here and the interrupted call is parked for the message-path retry.
  msg::MsgValue RecoverInlineFault(const msg::Message& m,
                                   const msg::Args& args,
                                   const ComponentFault& fault);

  // Message thread internals.
  void ResidentLoop(ComponentId id);
  bool ExecuteOne(ComponentId id);   // pull + run one message, reply
  void DeliverReplies();
  void DeliverOneReply(const msg::Message& m, msg::Args& payload);
  sched::Fiber* PickNext();
  sched::Fiber* PickRoundRobin();
  sched::Fiber* PickDependencyAware();
  void MaybeSpawnAux();
  void HandleFaultedFiber(sched::Fiber* fiber);
  void CheckHangs();
  void NoteDispatched(ComponentId id);

  // Recovery work runs on the message thread (stop, restore, replay, reinit
  // recapture) and can pause dispatch for milliseconds. The guard shifts
  // every in-flight handler's hang timer forward by the pause so CheckHangs
  // charges that time to the recovery, not to whichever healthy handler
  // happened to be mid-call.
  class HangClockPause {
   public:
    explicit HangClockPause(Runtime& rt)
        : rt_(rt), t0_(rt.options_.clock->Now()) {}
    ~HangClockPause() {
      const Nanos dt = rt_.options_.clock->Now() - t0_;
      if (dt <= 0) return;
      for (auto& kv : rt_.exec_ctx_) kv.second.started_at += dt;
    }
    HangClockPause(const HangClockPause&) = delete;
    HangClockPause& operator=(const HangClockPause&) = delete;

   private:
    Runtime& rt_;
    Nanos t0_;
  };

  // Logging internals (run conceptually on the message thread).
  LogSeq MaybeLogCall(const FnEntry& fn, const msg::Args& args);
  void FinishLog(const FnEntry& fn, LogSeq seq, const msg::MsgValue& ret,
                 const msg::Args& args);
  void RecordOutboundForCaller(const msg::Message& reply,
                               const msg::MsgValue& ret);
  void ApplySessionShrink(const FnEntry& fn, LogSeq seq,
                          const msg::MsgValue& ret, const msg::Args& args);
  void MaybeCompact(ComponentId owner);

  // Recovery internals. A reboot is a RecoveryJob: stop + restore (in
  // BeginRecovery) → finalize the restore and replay (DriveRecovery,
  // dependency ordered). The sync Reboot() wrapper drives its job to
  // completion; RebootAsync() leaves the job for Step()/DriveRecovery().
  struct RecoveryJob {
    ComponentId leader = kComponentNone;
    bool refresh = false;
    // Fault-path job: a failure escalates to FailStop (after the other
    // in-flight recoveries complete — they must not be stranded).
    bool escalate = false;
    std::optional<ComponentFault> origin;
    RebootReport report;
    std::vector<RetryRecord> inflight;  // interrupted mid-handler
    std::vector<RetryRecord> queued;    // drained, never executed
    struct MemberRestore {
      ComponentId member = kComponentNone;
      Status status;
      mem::SnapshotStats stats;
    };
    std::vector<MemberRestore> restores;
    bool restored = false;   // FinalizeRestore accounted the restores
    bool done = false;
    bool ok = false;
    Status error;
    Nanos t0 = 0, t1 = 0, t2 = 0;  // begin / stop-end / restore-end
  };

  Result<std::shared_ptr<RecoveryJob>> BeginRecovery(
      ComponentId id, bool refresh, bool escalate,
      std::optional<ComponentFault> origin);
  /// Finalizes restored jobs and replays eligible ones. Returns whether any
  /// job advanced; with jobs in flight, every call advances at least one.
  bool DriveRecovery();
  void FinalizeRestore(const std::shared_ptr<RecoveryJob>& job);
  void FinalizeReplay(const std::shared_ptr<RecoveryJob>& job);
  void FailJob(const std::shared_ptr<RecoveryJob>& job, Status error,
               obs::EventKind phase);
  /// A job replays only after the components its group calls into are back
  /// (no active recovery for any dependency leader).
  [[nodiscard]] bool ReplayBlockedByDeps(const RecoveryJob& job) const;
  void RemoveJob(const std::shared_ptr<RecoveryJob>& job);
  /// Replaces `id`'s checkpoint with a wrong-size image (corrupt-checkpoint
  /// fault injection; also the CorruptCheckpointForTest seam).
  void CorruptCheckpoint(ComponentId id);

  void StopComponentFibers(ComponentId id, std::vector<RetryRecord>* inflight,
                           std::vector<RetryRecord>* queued);
  void ReplayLog(ComponentId id, RebootReport& report);
  /// Snapshot knobs for this runtime: mode from RuntimeOptions, the
  /// shared baseline, and the runtime clock for the hash/copy phase split.
  [[nodiscard]] mem::SnapshotConfig SnapshotCfg();
  /// Captures a component checkpoint under SnapshotCfg(), bumping the
  /// snapshot.* metrics and recorder events.
  mem::Snapshot CaptureCheckpoint(comp::Component& c);
  /// Rejuvenation refresh: re-capture each stateful member's checkpoint
  /// incrementally and prune the log entries the capture baked in.
  void RefreshCheckpoints(Slot& slot, RebootReport& report);
  void AccountSnapshot(ComponentId id, const mem::SnapshotStats& stats);
  /// Applies a component's write-tracking level before control enters it
  /// (dispatch, replay, restore hooks); no-op when tracking is off.
  void TaintComponentEntry(comp::Component& c);
  void RespawnResident(ComponentId id);
  void FailStop(const ComponentFault& fault);
  bool TrySwapVariant(ComponentId leader);

  // PKRU management for the dispatch path.
  void InstallPkruFor(ComponentId id);
  void InstallMessageThreadPkru();

  // Observability internals.
  /// Writes the recorder ring as Chrome trace JSON to VAMPOS_TRACE_DUMP (or
  /// vampos_postmortem_trace.json). Called on fail-stop and on the
  /// VAMPOS_SPIN_LIMIT dump; a never-enabled recorder writes nothing.
  void WritePostmortemTrace(const char* why) const;
  /// VAMPOS_METRICS_DUMP output format (VAMPOS_METRICS_FORMAT).
  enum class MetricsFormat { kText, kJson, kProm };
  /// Feeds the health monitor one gauge round: every group leader's arena
  /// bytes-in-use and cumulative dirty-page marks. Called from Step() when
  /// HealthMonitor::SampleDue() fires.
  void SampleHealth(Nanos now);

  [[nodiscard]] ComponentId LeaderOf(ComponentId id) const {
    return slots_[id].leader;
  }
  [[nodiscard]] bool SameGroup(ComponentId a, ComponentId b) const;
  [[nodiscard]] const FnEntry& Fn(FunctionId id) const {
    return fns_[static_cast<std::size_t>(id)];
  }

  ExecCtx* CurrentExec();

  RuntimeOptions options_;
  bool isolation_ = false;
  bool booted_ = false;

  // Observability: registry + recorder are constructed first (the domain
  // and fiber manager hold pointers into them) and destroyed last.
  obs::MetricsRegistry metrics_;
  obs::FlightRecorder recorder_;
  // Aging-aware health telemetry; null when off so every feed point is a
  // single predicted branch and disabled runs allocate nothing.
  std::unique_ptr<obs::HealthMonitor> health_;
  // Latest handler-completion timestamp, reused to drive SampleDue() so
  // Step() never pays a clock read for health (that alone costs percents of
  // call throughput on the unlogged path).
  Nanos health_now_ = 0;
  /// Hot-path counters, resolved once from the registry at construction.
  struct HotCounters {
    obs::Counter* calls = nullptr;
    obs::Counter* direct_calls = nullptr;
    obs::Counter* messages = nullptr;
    obs::Counter* empty_polls = nullptr;
    obs::Counter* log_appends = nullptr;
    obs::Counter* log_pruned_entries = nullptr;
    obs::Counter* compactions = nullptr;
    obs::Counter* compaction_skips = nullptr;
    obs::Counter* replies_batched = nullptr;
    obs::Counter* retries_deduped = nullptr;
    obs::Counter* reboots = nullptr;
    obs::Counter* aux_fibers_spawned = nullptr;
    obs::Counter* hangs_detected = nullptr;
    // Checkpoint engine (cold path: bumped per capture/restore, not per
    // page). bytes_copied is the headline: it scales with the delta under
    // the incremental engine and with arena size under full copy.
    obs::Counter* snapshot_captures = nullptr;
    obs::Counter* snapshot_recaptures = nullptr;
    obs::Counter* snapshot_restores = nullptr;
    obs::Counter* snapshot_pages_total = nullptr;
    obs::Counter* snapshot_pages_dirty = nullptr;
    obs::Counter* snapshot_pages_zero = nullptr;
    obs::Counter* snapshot_pages_shared = nullptr;
    obs::Counter* snapshot_bytes_copied = nullptr;
    // Write-tracking dirty pages (snapshot.dirty_*): fast-path operations
    // vs full-scan fallbacks, pages skipped outright, audit activity, and
    // conservative whole-arena taints.
    obs::Counter* snapshot_dirty_fast_ops = nullptr;
    obs::Counter* snapshot_dirty_fallback_ops = nullptr;
    obs::Counter* snapshot_dirty_pages_skipped = nullptr;
    obs::Counter* snapshot_dirty_audits = nullptr;
    obs::Counter* snapshot_dirty_audit_misses = nullptr;
    obs::Counter* snapshot_dirty_taints = nullptr;
    // Concurrent recovery + replay verdicts.
    obs::Counter* recovery_failures = nullptr;  // jobs that did not recover
    obs::Counter* recovery_reinits = nullptr;   // reinit-on-restore fallbacks
    obs::Counter* recovery_overlaps = nullptr;  // a job began with >=1 active
    obs::Counter* replay_divergence = nullptr;  // replayed ret != logged ret
  } ct_;
  /// Hot-path histograms, likewise registry-backed.
  struct HotHistograms {
    obs::Histogram* call_ns = nullptr;        // end-to-end message call
    obs::Histogram* queue_depth = nullptr;    // inbox depth at push
    obs::Histogram* reboot_stop_ns = nullptr;
    obs::Histogram* reboot_snapshot_ns = nullptr;
    obs::Histogram* reboot_snapshot_hash_ns = nullptr;  // hash-pass share
    obs::Histogram* reboot_snapshot_copy_ns = nullptr;  // copy-pass share
    obs::Histogram* reboot_replay_ns = nullptr;
    obs::Histogram* reboot_total_ns = nullptr;
    obs::Histogram* replay_entries = nullptr;  // replay batch size
    // Per-request latency decomposition, recorded only for traced calls
    // (the recorder's enabled flag gates them along with span minting).
    obs::Histogram* trace_queue_ns = nullptr;   // push → pull wait
    obs::Histogram* trace_exec_ns = nullptr;    // handler execution
    obs::Histogram* trace_reply_ns = nullptr;   // reply push → deliver
    obs::Histogram* trace_stall_ns = nullptr;   // "trace.stall_reboot_ns"
  } hist_;

  // Shared read-only page pool for incremental checkpoints: components with
  // mostly-identical post-init images (merged twins, repeated stacks) hold
  // one pooled copy instead of N private ones.
  mem::PageBaseline snapshot_baseline_;

  mpk::DomainManager domains_;
  std::unique_ptr<msg::MessageDomain> domain_;
  // Null unless options_.isolation_check (hot-path hooks branch on it once).
  std::unique_ptr<check::IsolationChecker> checker_;
  sched::FiberManager fibers_;

  std::vector<Slot> slots_;
  std::vector<FnEntry> fns_;
  std::unordered_map<std::string, FunctionId> fn_by_name_;  // "comp.fn"
  std::vector<ComponentId> app_deps_;

  // Fiber-local execution contexts (single OS thread; keyed by fiber).
  std::unordered_map<sched::Fiber*, ExecCtx> exec_ctx_;
  // Restore-mode execution (runs on the message thread, no fiber).
  std::vector<ExecCtx> restore_stack_;
  // Replay feed cursor during encapsulated restoration.
  const msg::CallLogEntry* replay_entry_ = nullptr;
  std::size_t replay_outbound_cursor_ = 0;

  std::unordered_map<std::uint64_t, PendingReply> pending_replies_;
  // In-flight and pending recoveries. Jobs are owned here; the sync Reboot
  // wrapper and the chaos engine hold shared_ptrs across DriveRecovery.
  std::vector<std::shared_ptr<RecoveryJob>> recovery_jobs_;
  std::size_t peak_concurrent_recoveries_ = 0;
  // Escalating job failed while others were in flight: FailStop deferred
  // until the survivors finish recovering (they must not be stranded).
  std::optional<ComponentFault> pending_failstop_;
  // rpc_id -> outbound feed for a retried request awaiting execution.
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<FunctionId, msg::MsgValue>>>
      retry_feeds_;
  std::vector<sched::Fiber*> app_fibers_;
  std::vector<sched::Fiber*> parked_apps_;

  // Scheduling state.
  std::size_t rr_cursor_ = 0;
  std::size_t das_fallback_cursor_ = 0;
  std::deque<ComponentId> das_candidates_;

  // Runtime-data vault: survives component reboots by construction.
  std::unordered_map<std::string, msg::MsgValue> vault_;

  // Causal tracing: monotonically increasing ids minted when a traced call
  // enters the message plane (see MessageCall). Only advanced while the
  // recorder is enabled, so untraced runs never touch them.
  std::uint64_t next_trace_id_ = 1;
  std::uint64_t next_span_id_ = 1;
  // Write the trace dump after every completed reboot
  // (VAMPOS_TRACE_DUMP_ON_REBOOT=1), in addition to the fail-stop and
  // spin-limit dumps — all three honor VAMPOS_TRACE_DUMP.
  bool dump_trace_on_reboot_ = false;
  // VAMPOS_TRACE_INLINE=1 keeps the inline call fast path eligible while the
  // flight recorder is on (inlined calls produce no queue/exec/reply spans,
  // so tracing normally forces the message path).
  bool trace_inline_ = false;
  // Format for the VAMPOS_METRICS_DUMP snapshot written alongside each
  // trace dump (VAMPOS_METRICS_FORMAT={text,json,prom}, default json).
  MetricsFormat metrics_format_ = MetricsFormat::kJson;

  std::vector<RebootReport> reboot_history_;
  std::optional<ComponentFault> terminal_fault_;
  std::vector<std::function<void()>> termination_hooks_;
  bool termination_hooks_ran_ = false;
  std::uint64_t variant_swaps_ = 0;
};

}  // namespace vampos::core
