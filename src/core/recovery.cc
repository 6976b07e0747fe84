// Recovery half of the VampOS runtime: function-call logging, session-aware
// log shrinking, component reboot, encapsulated restoration, and failure
// detection/handling.
#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>

#include "base/diag.h"
#include "check/isolation_checker.h"
#include "core/runtime.h"

namespace vampos::core {

using comp::CallCtx;
using comp::FnOptions;
using comp::Statefulness;
using msg::Args;
using msg::CallLogEntry;
using msg::Message;
using msg::MsgValue;

// ----------------------------------------------------------- registration

FunctionId Runtime::ExportFn(ComponentId owner, const std::string& name,
                             FnOptions options, comp::Handler handler) {
  const std::string qualified =
      slots_[owner].component->name() + "." + name;
  // Re-Init of a stateless component re-exports its functions: replace the
  // handler in place so FunctionIds (and therefore logs) stay stable.
  if (auto it = fn_by_name_.find(qualified); it != fn_by_name_.end()) {
    fns_[static_cast<std::size_t>(it->second)].handler = std::move(handler);
    fns_[static_cast<std::size_t>(it->second)].options = options;
    return it->second;
  }
  const auto id = static_cast<FunctionId>(fns_.size());
  FnEntry entry{id, owner, name, options, std::move(handler)};
  entry.latency = &metrics_.GetHistogram("fn." + qualified + ".ns");
  entry.errors = &metrics_.GetCounter("fn." + qualified + ".errors");
  fns_.push_back(std::move(entry));
  fn_by_name_.emplace(qualified, id);
  // Health series are kept per group leader (a merged group ages and
  // reboots as a unit), under the leader's display name.
  if (health_ != nullptr) {
    const ComponentId leader = LeaderOf(owner);
    health_->Track(leader, slots_[leader].component->name());
  }
  return id;
}

// ---------------------------------------------------------------- logging

LogSeq Runtime::MaybeLogCall(const FnEntry& fn, const Args& args) {
  if (!fn.options.logged) return 0;
  CallLogEntry entry;
  entry.fn = fn.id;
  // Borrowed views are compacted to owned bytes at append time: the log must
  // replay (and checkpoint) deterministically after the lender's arena has
  // been rebooted out from under the view.
  entry.args.reserve(args.size());
  for (const MsgValue& a : args) entry.args.push_back(a.Compacted());
  entry.state_changing = fn.options.state_changing;
  if (fn.options.session_arg >= 0 &&
      static_cast<std::size_t>(fn.options.session_arg) < args.size()) {
    entry.session = args[static_cast<std::size_t>(fn.options.session_arg)].i64();
  }
  ct_.log_appends->Add();
  const LogSeq seq = domain_->LogFor(fn.owner).Append(std::move(entry));
  recorder_.Record(obs::EventKind::kLogAppend, obs::TracePhase::kInstant,
                   fn.owner, fn.id, static_cast<std::int64_t>(seq));
  return seq;
}

void Runtime::FinishLog(const FnEntry& fn, LogSeq seq, const MsgValue& ret,
                        const Args& args) {
  msg::CallLog& log = domain_->LogFor(fn.owner);
  log.SetReturn(seq, ret);

  // open()-style functions: the session id is the returned descriptor. If
  // the descriptor number was used by an earlier, already-closed session,
  // the stale open/close pair is pruned now — this is why Table III reports
  // a net *negative* log delta for open() under shrinking. The session
  // index makes this touch only the reused id's entries, not the whole log.
  if (fn.options.session_from_ret && ret.is_i64() && ret.i64() >= 0) {
    const std::int64_t session = ret.i64();
    if (options_.session_shrink) {
      const std::size_t pruned = log.PruneSessionIf(
          session, [&](const CallLogEntry& e) { return e.seq < seq; });
      ct_.log_pruned_entries->Add(pruned);
      if (pruned > 0) {
        recorder_.Record(obs::EventKind::kLogPrune, obs::TracePhase::kInstant,
                         fn.owner, session,
                         static_cast<std::int64_t>(pruned));
      }
    }
    log.SetSession(seq, session);
  }
  // A failed session-creating call (open of a missing file) built no state;
  // replaying it is pointless, so drop it immediately.
  if (fn.options.session_from_ret && ret.is_i64() && ret.i64() < 0) {
    log.Erase(seq);
    ct_.log_pruned_entries->Add();
  }

  if (options_.session_shrink && fn.options.canceling && ret.is_i64() &&
      ret.i64() >= 0) {
    ApplySessionShrink(fn, seq, ret, args);
  }
  MaybeCompact(fn.owner);
}

void Runtime::ApplySessionShrink(const FnEntry& fn, LogSeq seq,
                                 const MsgValue& /*ret*/,
                                 const Args& /*args*/) {
  // Canceling function (close(), shutdown(), ...): the state built up by the
  // session's read/write-style calls is no longer needed for restoration.
  // The session-origin entry (open/socket) and the canceling entry itself
  // are kept so a replay reproduces the descriptor-table allocation; they
  // are pruned later if the descriptor number is reused (see FinishLog).
  msg::CallLog& log = domain_->LogFor(fn.owner);
  const CallLogEntry* self = log.Lookup(seq);
  if (self == nullptr || self->session < 0) return;
  const std::int64_t session = self->session;
  const std::size_t pruned =
      log.PruneSessionIf(session, [&](const CallLogEntry& e) {
        if (e.seq == seq) return false;
        const FnEntry& efn = Fn(e.fn);
        return !efn.options.session_from_ret && !efn.options.canceling;
      });
  ct_.log_pruned_entries->Add(pruned);
  if (pruned > 0) {
    recorder_.Record(obs::EventKind::kLogPrune, obs::TracePhase::kInstant,
                     fn.owner, session, static_cast<std::int64_t>(pruned));
  }
}

void Runtime::MaybeCompact(ComponentId owner) {
  if (options_.log_shrink_threshold == 0) return;
  msg::CallLog& log = domain_->LogFor(owner);
  if (log.size() <= options_.log_shrink_threshold) return;
  comp::CompactionHook hook = slots_[owner].component->compaction_hook();
  if (!hook) return;

  // Scheduled compaction: only sessions that gained completed entries since
  // their last visit (dirty) and are not parked behind a failed-hook growth
  // gate are considered — an uncompactable workload stops paying a grouping
  // pass per call once its sessions park.
  const std::vector<std::int64_t> candidates = log.CompactionCandidates();
  if (candidates.empty()) {
    ct_.compaction_skips->Add();
    return;
  }
  bool compacted = false;
  // The hook is component code: its writes must land in the dirty bitmap.
  TaintComponentEntry(*slots_[owner].component);
  for (const std::int64_t session : candidates) {
    // Collapse the session's completed, non-boundary entries into the
    // synthetic state-setting entries the component supplies ("extract and
    // reset the offset value in VFS", §V-F). The session index bounds the
    // grouping to this session's entries.
    const msg::CallLog::SeqSet* seqs = log.SessionSeqs(session);
    if (seqs == nullptr) continue;
    comp::CompactionRequest req;
    req.session = session;
    for (const LogSeq s : *seqs) {
      const CallLogEntry* e = log.Lookup(s);
      if (e == nullptr || e->synthetic || !e->have_ret) continue;
      const FnEntry& efn = Fn(e->fn);
      if (efn.options.session_from_ret || efn.options.canceling) continue;
      req.entries.emplace_back(e->fn, e->args);
    }
    if (req.entries.size() < 2) {
      log.MarkSessionClean(session);
      continue;
    }
    auto replacement = hook(req);
    if (replacement.size() >= req.entries.size()) {
      log.ParkSessionCompaction(session);
      continue;
    }
    // Drop the session's history *and* any synthetic summary from a prior
    // compaction round — the new summary supersedes it.
    const std::size_t dropped =
        log.PruneSessionIf(session, [&](const CallLogEntry& e) {
          if (!e.have_ret && !e.synthetic) return false;
          const FnEntry& efn = Fn(e.fn);
          return !efn.options.session_from_ret && !efn.options.canceling;
        });
    ct_.log_pruned_entries->Add(dropped);
    recorder_.Record(obs::EventKind::kLogCompact, obs::TracePhase::kInstant,
                     owner, session, static_cast<std::int64_t>(dropped));
    for (auto& [fn_id, fn_args] : replacement) {
      CallLogEntry synth;
      synth.fn = fn_id;
      synth.args = std::move(fn_args);
      synth.session = session;
      synth.synthetic = true;
      synth.have_ret = true;
      log.Append(std::move(synth));
    }
    log.MarkSessionClean(session);
    compacted = true;
  }
  if (compacted) ct_.compactions->Add();
}

void Runtime::RecordOutboundForCaller(const Message& reply,
                                      const MsgValue& ret) {
  // Record the return value the caller observed, keyed to the caller's
  // in-flight inbound log entry, so the caller's own future restoration can
  // feed it back without re-entering this component (paper Fig 3). The
  // caller's execution context is found via the fiber that issued the rpc.
  if (reply.to == kComponentNone || reply.caller_fiber == nullptr) return;
  auto it = exec_ctx_.find(reply.caller_fiber);
  if (it == exec_ctx_.end()) return;
  const ExecCtx& ctx = it->second;
  if (ctx.inbound_seq == 0) return;  // caller's inbound call is not logged
  domain_->LogFor(ctx.component).RecordOutbound(ctx.inbound_seq, reply.fn,
                                                ret);
}

// -------------------------------------------------------------- injection

void Runtime::InjectFault(ComponentId id, FaultKind kind, int trigger_after,
                          bool sticky) {
  slots_[LeaderOf(id)].injection =
      FaultInjection{kind, trigger_after, true, sticky};
}

// ----------------------------------------------------------------- reboot

void Runtime::StopComponentFibers(ComponentId leader,
                                  std::vector<RetryRecord>* inflight,
                                  std::vector<RetryRecord>* queued) {
  Slot& slot = slots_[leader];
  // Collect in-flight messages (handlers interrupted mid-execution) for
  // post-restore retry, and drop their incomplete log entries: a partially
  // executed call has an incomplete outbound record and must not be
  // replayed. The records go into the caller's per-job vectors so that N
  // concurrent recoveries never clobber each other's retry state.
  std::vector<sched::Fiber*> victims;
  if (slot.resident != nullptr) victims.push_back(slot.resident);
  victims.insert(victims.end(), slot.aux.begin(), slot.aux.end());
  for (sched::Fiber* f : victims) {
    auto it = exec_ctx_.find(f);
    if (it != exec_ctx_.end()) {
      inflight->push_back(
          {std::move(it->second.msg), std::move(it->second.args), {}});
      exec_ctx_.erase(it);
    }
    // Drop pending-reply slots owned by this fiber: the rpcs it issued will
    // be answered to a dead fiber and must be discarded on arrival.
    for (auto pit = pending_replies_.begin(); pit != pending_replies_.end();) {
      if (pit->second.waiter == f) {
        if (checker_ != nullptr) checker_->RemoveWait(pit->first);
        pit = pending_replies_.erase(pit);
      } else {
        ++pit;
      }
    }
    fibers_.Destroy(f);
  }
  if (slot.inflight_failed.has_value()) {
    inflight->push_back({std::move(slot.inflight_failed->first),
                         std::move(slot.inflight_failed->second),
                         {}});
    slot.inflight_failed.reset();
  }
  slot.resident = nullptr;
  slot.aux.clear();
  slot.busy = 0;
  // Erase incomplete log entries for the interrupted calls — but carry their
  // recorded outbound returns into the retry record first, so the retried
  // execution can feed them back instead of re-invoking the peers (whose
  // side effects already happened).
  for (RetryRecord& r : *inflight) {
    if (r.msg.log_seq == 0) continue;
    msg::CallLog& log = domain_->LogFor(Fn(r.msg.fn).owner);
    if (const CallLogEntry* e = log.Lookup(r.msg.log_seq)) {
      r.outbound_feed = e->outbound;
    }
    log.Erase(r.msg.log_seq);
  }
  // Queued-but-unexecuted traffic. Inbound messages are drained for
  // re-logging and re-queueing after restore: their pre-reboot log entries
  // would otherwise survive as incomplete stale state. Outbound messages the
  // group staged are dropped — the fibers that issued them died above, so
  // any reply would be orphaned — along with their callee-side log entries
  // and pending-reply slots.
  for (ComponentId m : slot.group) {
    for (auto& [qm, qargs] : domain_->DrainQueued(m)) {
      if (qm.log_seq != 0) domain_->LogFor(Fn(qm.fn).owner).Erase(qm.log_seq);
      queued->push_back({qm, std::move(qargs), {}});
    }
    for (const Message& qm : domain_->DropQueuedFrom(m)) {
      if (qm.log_seq != 0) domain_->LogFor(Fn(qm.fn).owner).Erase(qm.log_seq);
      if (checker_ != nullptr) checker_->RemoveWait(qm.rpc_id);
      pending_replies_.erase(qm.rpc_id);
    }
  }
  // Revoke-before-destroy: every borrow lent out of this group's arenas is
  // invalidated now, before restore rewrites (or a variant swap destroys)
  // the memory behind it. A borrower still holding such a view faults on
  // its next use instead of silently reading post-reboot bytes.
  for (ComponentId m : slot.group) {
    domain_->RevokeBorrowsInto(slots_[m].component->arena());
  }
}

// ------------------------------------------------------------ checkpoints

mem::SnapshotConfig Runtime::SnapshotCfg() {
  mem::SnapshotConfig cfg;
  cfg.mode = options_.snapshot_mode;
  cfg.baseline = &snapshot_baseline_;
  cfg.clock = options_.clock;
  cfg.dirty_tracking =
      options_.dirty_tracking &&
      options_.snapshot_mode == mem::SnapshotMode::kIncremental;
  cfg.audit_rate = options_.dirty_audit_rate;
  cfg.audit_fail_stop = options_.dirty_audit_fail_stop;
  return cfg;
}

void Runtime::AccountSnapshot(ComponentId id,
                              const mem::SnapshotStats& stats) {
  ct_.snapshot_pages_total->Add(stats.pages_total);
  ct_.snapshot_pages_dirty->Add(stats.pages_dirty);
  ct_.snapshot_pages_zero->Add(stats.pages_zero);
  ct_.snapshot_pages_shared->Add(stats.pages_shared);
  ct_.snapshot_bytes_copied->Add(stats.bytes_copied);
  if (!options_.dirty_tracking ||
      options_.snapshot_mode != mem::SnapshotMode::kIncremental) {
    return;
  }
  if (stats.dirty_fast) {
    ct_.snapshot_dirty_fast_ops->Add();
    ct_.snapshot_dirty_pages_skipped->Add(stats.pages_skipped);
    recorder_.Record(obs::EventKind::kSnapshotDirty, obs::TracePhase::kInstant,
                     id, static_cast<std::int64_t>(stats.pages_skipped),
                     static_cast<std::int64_t>(stats.pages_dirty));
  } else {
    ct_.snapshot_dirty_fallback_ops->Add();
  }
  if (stats.audited) {
    ct_.snapshot_dirty_audits->Add();
    ct_.snapshot_dirty_audit_misses->Add(stats.audit_misses);
    recorder_.Record(obs::EventKind::kSnapshotAudit, obs::TracePhase::kInstant,
                     id, static_cast<std::int64_t>(stats.audit_misses),
                     static_cast<std::int64_t>(stats.pages_dirty));
  }
}

void Runtime::TaintComponentEntry(comp::Component& c) {
  // Before control enters a component (dispatch, replay, restore hooks),
  // apply its declared write-tracking level: kNone taints the whole arena,
  // kState marks the MakeState root, kTracked trusts the component's own
  // MarkDirty calls. No-op when the arena has no tracker.
  if (!options_.dirty_tracking) return;
  if (c.arena().dirty_tracker() == nullptr) return;
  c.TaintForEntry();
  if (c.write_tracking() == comp::WriteTracking::kNone) {
    ct_.snapshot_dirty_taints->Add();
  }
}

mem::Snapshot Runtime::CaptureCheckpoint(comp::Component& c) {
  // A fresh capture always walks the whole arena, so trackers are synced by
  // it, never consumed — enable tracking here so the arena's bitmap exists
  // before its first sync.
  if (options_.dirty_tracking &&
      options_.snapshot_mode == mem::SnapshotMode::kIncremental) {
    c.arena().EnableDirtyTracking();
  }
  mem::SnapshotStats stats;
  mem::Snapshot snap = mem::Snapshot::Capture(c.arena(), SnapshotCfg(), &stats);
  ct_.snapshot_captures->Add();
  AccountSnapshot(c.id(), stats);
  recorder_.Record(obs::EventKind::kSnapshotHash, obs::TracePhase::kInstant,
                   c.id(), stats.hash_ns,
                   static_cast<std::int64_t>(stats.pages_total));
  recorder_.Record(obs::EventKind::kSnapshotCopy, obs::TracePhase::kInstant,
                   c.id(), stats.copy_ns,
                   static_cast<std::int64_t>(stats.bytes_copied));
  return snap;
}

void Runtime::RefreshCheckpoints(Slot& slot, RebootReport& report) {
  // Runs right after a successful replay: each stateful member's arena is
  // exactly "checkpoint ⊕ replayed log", so re-capturing here and dropping
  // the baked-in entries is consistent by construction. The incremental
  // engine makes this cheap — only pages the replay dirtied are re-copied.
  for (ComponentId m : slot.group) {
    Slot& ms = slots_[m];
    comp::Component& c = *ms.component;
    if (c.statefulness() != Statefulness::kStateful) continue;
    mem::SnapshotStats stats;
    const Status re = ms.checkpoint.Recapture(c.arena(), SnapshotCfg(), &stats);
    if (!re.ok()) {
      // Keep the old checkpoint + log: that pair is still consistent.
      VAMPOS_ERROR("checkpoint refresh failed for '%s': %s", c.name().c_str(),
                   re.message().c_str());
      continue;
    }
    ct_.snapshot_recaptures->Add();
    AccountSnapshot(m, stats);
    report.snapshot_bytes_copied += stats.bytes_copied;
    report.refresh_hash_ns += stats.hash_ns;
    report.refresh_copy_ns += stats.copy_ns;
    report.refresh_pages_dirty += stats.pages_dirty;
    report.refresh_pages_skipped += stats.pages_skipped;
    recorder_.Record(obs::EventKind::kSnapshotRecapture,
                     obs::TracePhase::kInstant, m,
                     static_cast<std::int64_t>(stats.bytes_copied),
                     static_cast<std::int64_t>(stats.pages_dirty));
    // Completed and synthetic entries are now part of the checkpoint; the
    // next reboot must not replay them again. Cold path: the full-log walk
    // happens once per rejuvenation refresh, not per call.
    if (domain_->HasLog(m)) {
      const std::size_t pruned = domain_->LogFor(m).PruneIf(
          [](const CallLogEntry& e) { return e.have_ret || e.synthetic; });
      ct_.log_pruned_entries->Add(pruned);
      if (pruned > 0) {
        recorder_.Record(obs::EventKind::kLogPrune, obs::TracePhase::kInstant,
                         m, /*session=*/-1,
                         static_cast<std::int64_t>(pruned));
      }
    }
  }
}

void Runtime::CorruptCheckpoint(ComponentId id) {
  // Building the garbage checkpoint captures a component-sized scratch arena
  // — tens of milliseconds of message-thread time for a large component.
  // That is injection scaffolding, not handler work: without the pause a
  // healthy in-flight handler ages past the hang threshold while this runs.
  HangClockPause pause(*this);
  mem::Arena scratch(slots_[id].component->arena().size() +
                         mem::Arena::kPageSize,
                     "corrupt-checkpoint");
  slots_[id].checkpoint = mem::Snapshot::Capture(scratch);
}

void Runtime::CorruptCheckpointForTest(ComponentId id) {
  CorruptCheckpoint(id);
}

Result<RebootReport> Runtime::Reboot(ComponentId id, bool refresh_checkpoint) {
  // Synchronous wrapper over the job machinery: start (or join) a recovery
  // and drive the whole recovery plane until this job completes. Semantics
  // match the legacy serialized reboot exactly when no other job is active.
  auto begun = BeginRecovery(id, refresh_checkpoint, /*escalate=*/false,
                             std::nullopt);
  if (!begun.ok()) return begun.status();
  const std::shared_ptr<RecoveryJob> job = begun.value();
  while (!job->done) DriveRecovery();
  if (!job->ok) return job->error;
  return job->report;
}

Status Runtime::RebootAsync(ComponentId id, bool refresh_checkpoint) {
  auto begun = BeginRecovery(id, refresh_checkpoint, /*escalate=*/false,
                             std::nullopt);
  if (!begun.ok()) return begun.status();
  return Status::Ok();
}

Result<std::shared_ptr<Runtime::RecoveryJob>> Runtime::BeginRecovery(
    ComponentId id, bool refresh, bool escalate,
    std::optional<ComponentFault> origin) {
  const ComponentId leader = LeaderOf(id);
  Slot& slot = slots_[leader];
  for (ComponentId m : slot.group) {
    if (slots_[m].component->statefulness() == Statefulness::kUnrebootable) {
      return Status::Error(
          Errno::kInval,
          "component '" + slots_[m].component->name() +
              "' shares state with the host and cannot be rebooted (§VIII)");
    }
  }
  if (options_.mode == Mode::kUnikraft) {
    return Status::Error(Errno::kInval,
                         "component-level reboot requires VampOS mode");
  }
  if (terminal_fault_.has_value()) {
    return Status::Error(Errno::kIo,
                         "runtime fail-stopped; recovery is disabled");
  }
  // A recovery for this group is already in flight: join it instead of
  // stopping fibers that are already stopped.
  for (const auto& j : recovery_jobs_) {
    if (j->leader == leader) return j;
  }

  HangClockPause pause(*this);
  auto job = std::make_shared<RecoveryJob>();
  job->leader = leader;
  job->refresh = refresh;
  job->escalate = escalate;
  job->origin = std::move(origin);
  RebootReport& report = job->report;
  report.component = leader;
  report.name = slot.component->name();
  report.stateless =
      slot.component->statefulness() == Statefulness::kStateless;
  VAMPOS_TRACE("reboot '%s' begin", report.name.c_str());
  recorder_.Record(obs::EventKind::kReboot, obs::TracePhase::kBegin, leader);
  job->t0 = options_.clock->Now();

  recorder_.Record(obs::EventKind::kRebootStop, obs::TracePhase::kBegin,
                   leader);
  StopComponentFibers(leader, &job->inflight, &job->queued);
  job->t1 = options_.clock->Now();
  report.stop_ns = job->t1 - job->t0;
  recorder_.Record(obs::EventKind::kRebootStop, obs::TracePhase::kEnd, leader,
                   report.stop_ns);
  hist_.reboot_stop_ns->Record(report.stop_ns);
  // Parked until the replay completes: no resident fiber exists, and the
  // failed flag keeps MaybeSpawnAux from attaching one to a half-restored
  // arena. Inbound traffic queues in the domain and is served post-respawn.
  slot.failed = true;

  // Restore each stateful primitive of the group (dominant cost,
  // proportional to the component footprint). The outcome is accounted in
  // FinalizeRestore; stateless members re-Init cheaply there.
  recorder_.Record(obs::EventKind::kRebootSnapshot, obs::TracePhase::kBegin,
                   leader);
  recovery_jobs_.push_back(job);
  peak_concurrent_recoveries_ =
      std::max(peak_concurrent_recoveries_, recovery_jobs_.size());
  if (recovery_jobs_.size() >= 2) {
    ct_.recovery_overlaps->Add();
    recorder_.Record(obs::EventKind::kRecoveryOverlap,
                     obs::TracePhase::kInstant, leader,
                     static_cast<std::int64_t>(recovery_jobs_.size()));
  }
  for (ComponentId m : slot.group) {
    Slot& ms = slots_[m];
    if (ms.component->statefulness() != Statefulness::kStateful) continue;
    RecoveryJob::MemberRestore mr;
    mr.member = m;
    mr.status =
        ms.checkpoint.Restore(ms.component->arena(), SnapshotCfg(), &mr.stats);
    job->restores.push_back(std::move(mr));
  }
  return job;
}

bool Runtime::ReplayBlockedByDeps(const RecoveryJob& job) const {
  for (ComponentId m : slots_[job.leader].group) {
    for (ComponentId d : slots_[m].deps) {
      const ComponentId dep_leader = LeaderOf(d);
      if (dep_leader == job.leader) continue;
      for (const auto& other : recovery_jobs_) {
        if (other.get() == &job) continue;
        if (other->leader == dep_leader && !other->done) return true;
      }
    }
  }
  return false;
}

void Runtime::RemoveJob(const std::shared_ptr<RecoveryJob>& job) {
  recovery_jobs_.erase(
      std::remove(recovery_jobs_.begin(), recovery_jobs_.end(), job),
      recovery_jobs_.end());
}

void Runtime::FailJob(const std::shared_ptr<RecoveryJob>& job, Status error,
                      obs::EventKind phase) {
  // The group stays down (slot.failed remains set); the process and every
  // other component — including the other in-flight recoveries — keep
  // going. An escalating (fault-path) job defers its FailStop until the
  // surviving jobs have drained, so a reboot that fails mid-restore while
  // another reboot is in flight never strands that reboot mid-recovery.
  recorder_.Record(phase, obs::TracePhase::kEnd, job->leader, /*a=*/-1);
  recorder_.Record(obs::EventKind::kReboot, obs::TracePhase::kEnd,
                   job->leader, /*a=*/-1);
  ct_.recovery_failures->Add();
  job->error = std::move(error);
  job->ok = false;
  job->done = true;
  RemoveJob(job);
  if (job->escalate && !pending_failstop_.has_value()) {
    pending_failstop_ = job->origin.value_or(ComponentFault(
        job->leader, FaultKind::kInjected, job->error.message()));
  }
}

void Runtime::FinalizeRestore(const std::shared_ptr<RecoveryJob>& job) {
  Slot& slot = slots_[job->leader];
  RebootReport& report = job->report;
  for (auto& mr : job->restores) {
    Slot& ms = slots_[mr.member];
    comp::Component& c = *ms.component;
    if (!mr.status.ok()) {
      // Health-informed escalation: reinit is globally opt-in, but a group
      // whose recent health history is degraded has been aging toward this
      // failure — its checkpoint is the stale artifact of a sick image, so
      // discarding it for a fresh Init + full replay is the better recovery
      // even without the flag. Healthy components keep the strict
      // status-error contract.
      const bool reinit =
          options_.reinit_on_restore_failure ||
          (health_ != nullptr && health_->IsDegraded(job->leader));
      if (reinit) {
        // The image is unusable; rebuild from scratch instead of giving up:
        // reformat + Init/Bind (exports replace in place, so fn ids and the
        // log stay valid), take a fresh post-init checkpoint, and let the
        // full log replay rebuild the state the dead image held.
        VAMPOS_INFO(
            "checkpoint restore failed for '%s' (%s); re-initializing",
            c.name().c_str(), mr.status.message().c_str());
        c.arena().BumpGeneration();  // invalidate borrows minted pre-reboot
        c.alloc_.emplace(c.arena());
        comp::InitCtx ictx(*this, mr.member);
        c.Init(ictx);
        c.Bind(ictx);
        ms.checkpoint = CaptureCheckpoint(c);
        ct_.recovery_reinits->Add();
        continue;
      }
      // A corrupt or mismatched checkpoint fails this reboot through the
      // normal fault path: the group stays down and the caller decides
      // (the fault path escalates to fail-stop), but the process and the
      // other components keep running.
      FailJob(job,
              Status::Error(Errno::kIo, "checkpoint restore failed for '" +
                                            c.name() + "': " +
                                            mr.status.message()),
              obs::EventKind::kRebootSnapshot);
      return;
    }
    ct_.snapshot_restores->Add();
    AccountSnapshot(mr.member, mr.stats);
    report.snapshot_hash_ns += mr.stats.hash_ns;
    report.snapshot_copy_ns += mr.stats.copy_ns;
    report.snapshot_pages_total += mr.stats.pages_total;
    report.snapshot_pages_dirty += mr.stats.pages_dirty;
    report.snapshot_pages_skipped += mr.stats.pages_skipped;
    report.snapshot_bytes_copied += mr.stats.bytes_copied;
    // The arena's bytes were just rewritten from the checkpoint: any view
    // still pointing in carries the old generation and faults on use.
    c.arena().BumpGeneration();
    c.alloc_.emplace(mem::BuddyAllocator::Attach(c.arena()));
    CallCtx rctx(*this, mr.member, /*restoring=*/true);
    TaintComponentEntry(c);
    c.OnRestored(rctx);
  }
  // Stateless members re-run Init on a freshly formatted arena.
  for (ComponentId m : slot.group) {
    Slot& ms = slots_[m];
    if (ms.component->statefulness() == Statefulness::kStateful) continue;
    ms.component->arena().BumpGeneration();
    ms.component->alloc_.emplace(ms.component->arena());
    comp::InitCtx ictx(*this, m);
    ms.component->Init(ictx);
  }
  job->t2 = options_.clock->Now();
  report.snapshot_ns = job->t2 - job->t1;
  recorder_.Record(obs::EventKind::kRebootSnapshot, obs::TracePhase::kEnd,
                   job->leader, report.snapshot_ns);
  hist_.reboot_snapshot_ns->Record(report.snapshot_ns);
  hist_.reboot_snapshot_hash_ns->Record(report.snapshot_hash_ns);
  hist_.reboot_snapshot_copy_ns->Record(report.snapshot_copy_ns);
  recorder_.Record(obs::EventKind::kSnapshotHash, obs::TracePhase::kInstant,
                   job->leader, report.snapshot_hash_ns,
                   static_cast<std::int64_t>(report.snapshot_pages_total));
  recorder_.Record(obs::EventKind::kSnapshotCopy, obs::TracePhase::kInstant,
                   job->leader, report.snapshot_copy_ns,
                   static_cast<std::int64_t>(report.snapshot_bytes_copied));
  job->restored = true;
}

void Runtime::FinalizeReplay(const std::shared_ptr<RecoveryJob>& job) {
  const ComponentId leader = job->leader;
  Slot& slot = slots_[leader];
  RebootReport& report = job->report;

  // Encapsulated restoration: replay the (shrunk) logs. A fault during
  // replay means the component cannot be restored (e.g. a deterministic
  // bug triggered by its own history) — surface it as a failed reboot
  // instead of letting the exception unwind into the caller.
  recorder_.Record(obs::EventKind::kRebootReplay, obs::TracePhase::kBegin,
                   leader);
  try {
    for (ComponentId m : slot.group) {
      if (slots_[m].component->statefulness() == Statefulness::kStateful) {
        ReplayLog(m, report);
      }
    }
    for (ComponentId m : slot.group) {
      if (slots_[m].component->statefulness() == Statefulness::kStateful) {
        CallCtx rctx(*this, m, /*restoring=*/true);
        restore_stack_.push_back(ExecCtx{m, 0, Message{}, Args{}, 0, {}, 0});
        TaintComponentEntry(*slots_[m].component);
        slots_[m].component->OnReplayed(rctx);
        restore_stack_.pop_back();
      }
    }
  } catch (const ComponentFault& fault) {
    restore_stack_.clear();
    replay_entry_ = nullptr;
    FailJob(job,
            Status::Error(Errno::kIo, std::string("restoration failed: ") +
                                          fault.what()),
            obs::EventKind::kRebootReplay);
    return;
  }
  const Nanos t3 = options_.clock->Now();
  report.replay_ns = t3 - job->t2;
  recorder_.Record(obs::EventKind::kRebootReplay, obs::TracePhase::kEnd,
                   leader, report.replay_ns,
                   static_cast<std::int64_t>(report.entries_replayed));
  hist_.reboot_replay_ns->Record(report.replay_ns);
  hist_.replay_entries->Record(
      static_cast<std::int64_t>(report.entries_replayed));

  // Checkpoint refresh (periodic rejuvenation): fold the replayed history
  // into the checkpoint so the next reboot starts from here. Incremental
  // mode touches only the pages the replay dirtied.
  if (job->refresh) RefreshCheckpoints(slot, report);

  // Per-request stall attribution: every traced request this reboot parked
  // (interrupted mid-handler) or re-queued (drained from the inbox) was
  // stalled for the stop+snapshot+replay phases — the recovery-induced
  // share of its end-to-end latency. Each affected trace is charged once,
  // as a trace.stall event plus a trace.stall_reboot_ns sample; deduped
  // outbound retries create no new spans, so nothing double-counts.
  // (TrySwapVariant intentionally skips this: a variant swap is a
  // deterministic-bug failover, not the reboot path the paper measures.)
  if (recorder_.enabled()) {
    const Nanos stall =
        report.stop_ns + report.snapshot_ns + report.replay_ns;
    const auto charge = [&](const RetryRecord& rec) {
      if (!rec.msg.trace.active()) return;
      hist_.trace_stall_ns->Record(stall);
      recorder_.Record(obs::EventKind::kTraceStall, obs::TracePhase::kInstant,
                       leader, stall,
                       static_cast<std::int64_t>(rec.msg.rpc_id),
                       rec.msg.trace);
    };
    for (const RetryRecord& rec : job->inflight) charge(rec);
    for (const RetryRecord& rec : job->queued) charge(rec);
  }

  slot.failed = false;
  slot.reboots++;
  RespawnResident(leader);

  // Re-feed the interrupted requests: a non-deterministic fault will not
  // trigger again on the same input (paper §II-B). The retry budget is one;
  // a repeat failure fail-stops.
  if (options_.retry_inflight) {
    for (RetryRecord& rec : job->inflight) {
      Message retry = rec.msg;
      retry.enqueued_at = options_.clock->Now();
      retry.log_seq = MaybeLogCall(Fn(rec.msg.fn), rec.args);
      // Outbound returns the interrupted execution already observed are fed
      // back during the retry so the peers' side effects are not repeated.
      if (!rec.outbound_feed.empty()) {
        retry_feeds_[retry.rpc_id] = std::move(rec.outbound_feed);
      }
      domain_->Push(retry, rec.args);
      ct_.messages->Add();
      slot.retried_once = true;
    }
  } else {
    for (RetryRecord& rec : job->inflight) {
      Message r;
      r.kind = Message::Kind::kReply;
      r.rpc_id = rec.msg.rpc_id;
      r.from = leader;
      r.to = rec.msg.from;
      r.fn = rec.msg.fn;
      r.caller_fiber = rec.msg.caller_fiber;
      r.trace = rec.msg.trace;
      domain_->PushReply(
          r, Args{MsgValue(ToWire(Status::Error(Errno::kIo, "rebooted")))});
    }
  }
  job->inflight.clear();

  // Re-queue the stale inbound messages drained from the group's inboxes:
  // they never executed, so they are requeues, not retries — no retried_once
  // charge, and a later fault while serving them gets a fresh reboot budget.
  for (RetryRecord& rec : job->queued) {
    Message requeue = rec.msg;
    requeue.enqueued_at = options_.clock->Now();
    requeue.log_seq = MaybeLogCall(Fn(rec.msg.fn), rec.args);
    domain_->Push(requeue, rec.args);
    ct_.messages->Add();
  }
  job->queued.clear();

  report.total_ns = options_.clock->Now() - job->t0;
  VAMPOS_TRACE("reboot '%s' done (%lld us, %zu replayed)",
               report.name.c_str(),
               static_cast<long long>(report.total_ns / 1000),
               report.entries_replayed);
  ct_.reboots->Add();
  hist_.reboot_total_ns->Record(report.total_ns);
  recorder_.Record(obs::EventKind::kReboot, obs::TracePhase::kEnd, leader,
                   report.total_ns,
                   static_cast<std::int64_t>(report.entries_replayed));
  // The group's arena was rebuilt: pre-reboot aging history describes a
  // process image that no longer exists, so the health series restart.
  if (health_ != nullptr) health_->OnReboot(leader, options_.clock->Now());
  reboot_history_.push_back(report);
  job->ok = true;
  job->done = true;
  RemoveJob(job);
  if (dump_trace_on_reboot_) WritePostmortemTrace("post-reboot");
}

bool Runtime::DriveRecovery() {
  if (recovery_jobs_.empty() && !pending_failstop_.has_value()) return false;
  HangClockPause pause(*this);
  bool progressed = false;
  // Account the restores BeginRecovery ran: metrics, recorder events,
  // OnRestored hooks, stateless re-Init.
  for (const auto& job :
       std::vector<std::shared_ptr<RecoveryJob>>(recovery_jobs_)) {
    if (job->done || job->restored) continue;
    FinalizeRestore(job);
    progressed = true;
  }
  // Dependency-ordered replay: a job replays only after the components its
  // group calls into are back. When every remaining job is restored but
  // mutually dependent (a dependency cycle), the lowest leader id breaks it.
  for (;;) {
    std::shared_ptr<RecoveryJob> pick;
    bool waiting = false;
    bool restoring = false;
    for (const auto& job : recovery_jobs_) {
      if (job->done) continue;
      if (!job->restored) {
        restoring = true;
        continue;
      }
      waiting = true;
      if (ReplayBlockedByDeps(*job)) continue;
      pick = job;
      break;
    }
    if (pick == nullptr && waiting && !restoring) {
      for (const auto& job : recovery_jobs_) {
        if (job->done || !job->restored) continue;
        if (pick == nullptr || job->leader < pick->leader) pick = job;
      }
    }
    if (pick == nullptr) break;
    FinalizeReplay(pick);
    progressed = true;
  }
  if (recovery_jobs_.empty() && pending_failstop_.has_value()) {
    const ComponentFault fault = *pending_failstop_;
    pending_failstop_.reset();
    FailStop(fault);
  }
  return progressed;
}

void Runtime::ReplayLog(ComponentId id, RebootReport& report) {
  if (!domain_->HasLog(id)) return;
  msg::CallLog& log = domain_->LogFor(id);
  for (const auto& kv : log.entries()) {
    const CallLogEntry& entry = kv.second;
    if (!entry.state_changing) continue;  // fstat-style calls are skipped
    if (!entry.have_ret && !entry.synthetic) continue;  // never completed
    replay_entry_ = &entry;
    replay_outbound_cursor_ = 0;
    restore_stack_.push_back(
        ExecCtx{id, entry.seq, Message{}, Args{}, 0, {}, 0});
    // Session-creating calls must re-allocate the *original* id: shrinking
    // may have pruned earlier allocations, so natural lowest-free allocation
    // would diverge from what running components still hold.
    std::optional<std::int64_t> forced;
    if (Fn(entry.fn).options.session_from_ret && entry.session >= 0) {
      forced = entry.session;
    }
    CallCtx rctx(*this, id, /*restoring=*/true, forced);
    TaintComponentEntry(*slots_[id].component);
    MsgValue ret;
    try {
      ret = Fn(entry.fn).handler(rctx, entry.args);
    } catch (const ComponentFault& fault) {
      restore_stack_.pop_back();
      replay_entry_ = nullptr;
      VAMPOS_ERROR("fault during replay of %s entry %llu: %s",
                   slots_[id].component->name().c_str(),
                   static_cast<unsigned long long>(entry.seq), fault.what());
      throw;
    }
    restore_stack_.pop_back();
    if (entry.have_ret && !entry.synthetic && !(ret == entry.ret)) {
      ct_.replay_divergence->Add();
      VAMPOS_ERROR("replay divergence in %s.%s (entry %llu)",
                   slots_[id].component->name().c_str(),
                   Fn(entry.fn).name.c_str(),
                   static_cast<unsigned long long>(entry.seq));
    }
    report.entries_replayed++;
  }
  replay_entry_ = nullptr;
}

msg::MsgValue Runtime::RestoreFeed(ComponentId restoring, FunctionId fn) {
  // Encapsulated restoration: feed the logged return value instead of
  // invoking the (running, consistent) other component.
  if (replay_entry_ == nullptr) {
    // OnReplayed hooks may probe other components; nothing was recorded for
    // them, so surface a benign error.
    return MsgValue(ToWire(Status::Error(Errno::kAgain, "no replay feed")));
  }
  const auto& outbound = replay_entry_->outbound;
  if (replay_outbound_cursor_ >= outbound.size() ||
      outbound[replay_outbound_cursor_].first != fn) {
    VAMPOS_ERROR("replay feed mismatch for component %d fn %s",
                 restoring, Fn(fn).name.c_str());
    return MsgValue(ToWire(Status::Error(Errno::kIo, "replay feed mismatch")));
  }
  return outbound[replay_outbound_cursor_++].second;
}

std::vector<RebootReport> Runtime::RejuvenateAll() {
  std::vector<RebootReport> reports;
  for (auto& slot : slots_) {
    const ComponentId id = slot.component->id();
    if (slot.leader != id) continue;
    bool rebootable = true;
    for (ComponentId m : slot.group) {
      rebootable = rebootable && slots_[m].component->statefulness() !=
                                     Statefulness::kUnrebootable;
    }
    if (!rebootable) continue;
    auto result = Reboot(id);
    if (result.ok()) reports.push_back(result.value());
  }
  return reports;
}

// ----------------------------------------------------------------- faults

void Runtime::RegisterTerminationHook(std::function<void()> hook) {
  termination_hooks_.push_back(std::move(hook));
}

void Runtime::RegisterVariant(ComponentId id,
                              std::unique_ptr<comp::Component> variant) {
  Slot& slot = slots_[LeaderOf(id)];
  if (variant->name() != slot.component->name()) {
    Fatal("variant for '%s' must keep the component name (got '%s')",
          slot.component->name().c_str(), variant->name().c_str());
  }
  slot.variant = std::move(variant);
}

bool Runtime::TrySwapVariant(ComponentId leader) {
  // Multi-versioning failover (§VIII): the primary re-triggered its failure
  // after a reboot — a deterministic bug. Swap in the registered variant
  // (same name, same interface, different implementation), rebuild its
  // state from the log, and continue.
  Slot& slot = slots_[leader];
  if (slot.variant == nullptr || slot.group.size() != 1) return false;

  std::vector<RetryRecord> inflight_retry;
  std::vector<RetryRecord> queued_requeue;
  StopComponentFibers(leader, &inflight_retry, &queued_requeue);
  // The deterministic bug lives in the old implementation; the injected
  // fault does not carry over to the variant.
  slot.injection.reset();

  // The retiring implementation's arena dies with it: drop its protection
  // tag and its shadow-ownership claim before the successor's arena is
  // registered, or a stale region would mis-tag recycled heap memory (and
  // trip the overlap checks).
  if (isolation_ && slot.key != mpk::kDefaultKey) {
    domains_.UntagArena(slot.component->arena());
  }
  if (checker_ != nullptr) {
    checker_->UnregisterRegion(slot.component->arena().base());
  }
  std::unique_ptr<comp::Component> variant = std::move(slot.variant);
  variant->id_ = leader;
  slot.component = std::move(variant);
  comp::Component& c = *slot.component;
  if (isolation_ && slot.key != mpk::kDefaultKey) {
    domains_.TagArena(c.arena(), slot.key, c.name() + "+variant");
  }
  if (checker_ != nullptr) {
    checker_->RegisterRegion(leader, c.arena().base(), c.arena().size(),
                             c.name() + "+variant");
  }
  c.alloc_.emplace(c.arena());
  comp::InitCtx ictx(*this, leader);
  c.Init(ictx);  // Export() replaces handlers in place: fn ids stay stable
  c.Bind(ictx);

  const bool stateful =
      c.statefulness() == comp::Statefulness::kStateful;
  RebootReport report;
  report.component = leader;
  report.name = c.name() + "+variant";
  if (stateful) {
    slot.checkpoint = CaptureCheckpoint(c);
    try {
      ReplayLog(leader, report);
      comp::CallCtx rctx(*this, leader, /*restoring=*/true);
      restore_stack_.push_back(
          ExecCtx{leader, 0, Message{}, Args{}, 0, {}, 0});
      TaintComponentEntry(c);
      c.OnReplayed(rctx);
      restore_stack_.pop_back();
    } catch (const ComponentFault&) {
      // The variant cannot be restored either: give up on the swap.
      restore_stack_.clear();
      replay_entry_ = nullptr;
      slot.failed = true;
      return false;
    }
  }
  slot.failed = false;
  slot.retried_once = false;
  slot.reboots++;
  RespawnResident(leader);
  variant_swaps_++;
  reboot_history_.push_back(report);

  for (RetryRecord& rec : inflight_retry) {
    Message retry = rec.msg;
    retry.enqueued_at = options_.clock->Now();
    retry.log_seq = MaybeLogCall(Fn(rec.msg.fn), rec.args);
    if (!rec.outbound_feed.empty()) {
      retry_feeds_[retry.rpc_id] = std::move(rec.outbound_feed);
    }
    domain_->Push(retry, rec.args);
    ct_.messages->Add();
  }
  for (RetryRecord& rec : queued_requeue) {
    Message requeue = rec.msg;
    requeue.enqueued_at = options_.clock->Now();
    requeue.log_seq = MaybeLogCall(Fn(rec.msg.fn), rec.args);
    domain_->Push(requeue, rec.args);
    ct_.messages->Add();
  }
  recorder_.Record(obs::EventKind::kVariantSwap, obs::TracePhase::kInstant,
                   leader, static_cast<std::int64_t>(variant_swaps_));
  VAMPOS_INFO("deterministic fault in '%s': swapped in variant",
              c.name().c_str());
  return true;
}

void Runtime::HandleFaultedFiber(sched::Fiber* fiber) {
  const ComponentFault fault =
      fiber->fault().value_or(ComponentFault(fiber->owner(),
                                             FaultKind::kInjected, "unknown"));
  if (fiber->owner() == kComponentNone) {
    // Application-layer fault: outside VampOS's fault model; fail-stop.
    FailStop(fault);
    return;
  }
  const ComponentId leader = LeaderOf(fiber->owner());
  Slot& slot = slots_[leader];
  slot.failed = true;
  if (health_ != nullptr) health_->OnFault(leader, options_.clock->Now());
  VAMPOS_INFO("component '%s' failed: %s",
              slot.component->name().c_str(), fault.what());
  if (terminal_fault_.has_value()) {
    // Post-fail-stop fault (e.g. a parked hang unwinding): the runtime is
    // already terminal — retire the fiber so idle detection can succeed, but
    // start no new recovery.
    if (slot.resident == fiber) slot.resident = nullptr;
    if (auto it = std::find(slot.aux.begin(), slot.aux.end(), fiber);
        it != slot.aux.end()) {
      slot.aux.erase(it);
    }
    fibers_.Destroy(fiber);
    return;
  }
  if (slot.retried_once) {
    // The rebooted component faced the failure again: a deterministic
    // fault. A registered variant can take over (§VIII); otherwise this is
    // out of scope and the runtime fail-stops (paper §II-B).
    if (TrySwapVariant(leader)) return;
    FailStop(fault);
    return;
  }
  // Recovery runs as a job so other components keep being served (and other
  // failed components recover concurrently) while this group restores. If
  // the job later fails, it escalates to the legacy fail-stop — deferred
  // until the surviving jobs have drained.
  auto begun = BeginRecovery(leader, /*refresh=*/false, /*escalate=*/true,
                             fault);
  if (!begun.ok()) FailStop(fault);
}

void Runtime::CheckHangs() {
  // Paper §V-A: the message thread periodically checks the processing time
  // of pulled messages and treats a component as hung past the threshold.
  // Only fibers that are dispatchable (kReady) count: a fiber blocked on a
  // nested reply is waiting on someone else, not hung itself.
  if (options_.hang_threshold <= 0) return;
  if (terminal_fault_.has_value()) return;  // already dead; nothing to save
  const Nanos now = options_.clock->Now();
  ComponentId hung = kComponentNone;
  Nanos hung_age = 0;
  std::uint64_t hung_rpc = 0;
  FunctionId hung_fn = 0;
  for (const auto& [fiber, ctx] : exec_ctx_) {
    if (fiber->state() != sched::FiberState::kReady) continue;
    if (now - ctx.started_at <= options_.hang_threshold) continue;
    hung = ctx.component;
    hung_age = now - ctx.started_at;
    hung_rpc = ctx.msg.rpc_id;
    hung_fn = ctx.msg.fn;
    break;
  }
  if (hung == kComponentNone) return;
  Slot& slot = slots_[LeaderOf(hung)];
  ct_.hangs_detected->Add();
  if (health_ != nullptr) health_->OnHang(LeaderOf(hung), now);
  recorder_.Record(obs::EventKind::kHangDetected, obs::TracePhase::kInstant,
                   hung, hung_age, static_cast<std::int64_t>(hung_rpc));
  VAMPOS_INFO("hang detected in '%s' (fn=%u rpc=%llu age=%lldus)",
              slot.component->name().c_str(),
              static_cast<unsigned>(hung_fn),
              static_cast<unsigned long long>(hung_rpc),
              static_cast<long long>(hung_age / 1000));
  if (slot.retried_once) {
    if (TrySwapVariant(LeaderOf(hung))) return;
    FailStop(ComponentFault(hung, FaultKind::kHang,
                            "hang re-occurred after reboot"));
    return;
  }
  const ComponentFault fault(hung, FaultKind::kHang, "hang detected");
  auto begun = BeginRecovery(LeaderOf(hung), /*refresh=*/false,
                             /*escalate=*/true, fault);
  if (!begun.ok()) {
    FailStop(
        ComponentFault(hung, FaultKind::kHang, begun.status().message()));
  }
}

void Runtime::FailStop(const ComponentFault& fault) {
  terminal_fault_ = fault;
  recorder_.Record(obs::EventKind::kFailStop, obs::TracePhase::kInstant,
                   fault.component(),
                   static_cast<std::int64_t>(fault.kind()));
  VAMPOS_ERROR("fail-stop: %s", fault.what());
  // Free the messages still staged for the dead component's group: nobody
  // will ever pull them, and their buffers would pin message-arena memory
  // for the rest of the (now terminating) run.
  if (fault.component() != kComponentNone) {
    for (ComponentId m : slots_[LeaderOf(fault.component())].group) {
      domain_->DropQueued(m);
    }
  }
  // Unblock every waiter with an error so app fibers can observe the
  // failure and terminate gracefully (graceful termination, §VIII).
  for (auto& [rpc, pending] : pending_replies_) {
    (void)rpc;
    if (pending.waiter != nullptr &&
        pending.waiter->state() == sched::FiberState::kBlocked &&
        !pending.arrived) {
      pending.arrived = true;
      pending.value =
          MsgValue(ToWire(Status::Error(Errno::kIo, "fail-stop")));
      fibers_.Wake(pending.waiter);
    }
  }
  // Graceful termination (§VIII): give the application a chance to save its
  // state through the still-undamaged components before it exits.
  if (!termination_hooks_ran_ && !termination_hooks_.empty()) {
    termination_hooks_ran_ = true;
    int n = 0;
    for (auto& hook : termination_hooks_) {
      SpawnApp("termination-hook-" + std::to_string(n++), hook);
    }
  }
  WritePostmortemTrace("fail-stop");
}

}  // namespace vampos::core
