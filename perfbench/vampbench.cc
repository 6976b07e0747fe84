// vampbench: the repository benchmark. One program, three workloads, run
// against the real application stacks under default RuntimeOptions:
//
//   kv_steady       9-component Redis stack, AOF + fsync per SET, 50/50
//                   GET/SET over per-connection key ranges, no faults.
//   kv_faults       the same traffic plus one seeded fault per 200 requests
//                   (panic / MPK violation / deadlock / corrupt checkpoint
//                   into vfs / 9pfs / lwip / netdev), armed just before a SET.
//   web_rejuvenate  9-component Nginx stack serving a 180 B and a 16 KiB
//                   file; every kRejuvEvery requests the next component is
//                   refresh-rebooted (RejuvenationScheduler::ForceNext).
//
// Load: one thread, a closed loop of 4 SimClient connections with one
// request outstanding each. Every reply is checked; KV runs also check the
// host-side AOF for exactly-once, in-order persistence of acknowledged SETs.
//
//   vampbench --workload kv_steady --seed 1 --seconds 10 --trace 0
//   vampbench --selftest            (counter-determinism gate)
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
// untraced and once traced (same seed, half the seconds each), prints the
// per-layer metrics and the per-layer table, and writes the spans plus the
// phase snapshots to --trace-dir. The last stdout line is one JSON object.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "apps/kvstore.h"
#include "apps/netclient.h"
#include "apps/posix.h"
#include "apps/stack.h"
#include "apps/webserver.h"
#include "base/rng.h"
#include "core/rejuvenation.h"
#include "core/runtime.h"
#include "spans.h"

extern char** environ;

namespace vampos::perfbench {
namespace {

using apps::SimClient;
using core::RebootReport;
using core::Runtime;
using core::RuntimeOptions;

// ------------------------------------------------------------- parameters

constexpr int kConnections = 4;
constexpr int kKeysPerConn = 32;
constexpr std::uint64_t kFaultWindow = 200;  // one fault per 200 requests
constexpr std::uint64_t kRejuvEvery = 200;   // one refresh-reboot per 200 reqs
constexpr std::uint64_t kWarmupRequests = 400;
constexpr int kSetups = 9;                   // setup_s is their median
constexpr Nanos kStallNs = 3 * kSecond;      // no reply by then = failed
// Timed phases are cut into windows. A shared host slows this process down
// in episodes of seconds (interference only ever adds time), so the timed
// end-to-end metrics are taken over the run's calm half: the windows whose
// median request latency is at or below the median window's. A few hundred
// faulted or rebooted requests per window barely move a window's median, so
// the choice does not favour windows with fewer faults.
constexpr Nanos kWindowNs = 500 * kMillisecond;
// Checkpoint + log memory moves with where compaction and refresh cycles
// stand, so it is sampled by request count and reported as a median.
constexpr std::uint64_t kMemSampleEvery = 500;
constexpr std::uint16_t kKvPort = 6379;
constexpr std::uint16_t kWebPort = 80;
constexpr const char* kAofPath = "/aof";
constexpr std::size_t kSmallFile = 180;
constexpr std::size_t kLargeFile = 16 * 1024;

enum class Workload { kKvSteady, kKvFaults, kWebRejuvenate };

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kKvSteady: return "kv_steady";
    case Workload::kKvFaults: return "kv_faults";
    case Workload::kWebRejuvenate: return "web_rejuvenate";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(const std::string& s) {
  for (Workload w : {Workload::kKvSteady, Workload::kKvFaults,
                     Workload::kWebRejuvenate}) {
    if (s == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

bool IsKv(Workload w) { return w != Workload::kWebRejuvenate; }

/// Default options; a workload deviates only where its description says so.
RuntimeOptions OptionsFor(Workload w) {
  RuntimeOptions o;
  // Corrupt-checkpoint faults are recoverable only through the reinit
  // fallback.
  if (w == Workload::kKvFaults) o.reinit_on_restore_failure = true;
  return o;
}

std::string DescribeOptions(const RuntimeOptions& o) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "policy=%s snapshot_mode=%s dirty_tracking=%d inline_calls=%d "
      "zero_copy_payloads=%d recovery_workers=%d "
      "reinit_on_restore_failure=%d hang_threshold_ms=%.1f",
      o.policy == core::SchedPolicy::kDependencyAware ? "das" : "round_robin",
      o.snapshot_mode == mem::SnapshotMode::kIncremental ? "incremental"
                                                         : "full_copy",
      o.dirty_tracking ? 1 : 0, o.inline_calls ? 1 : 0,
      o.zero_copy_payloads ? 1 : 0, o.recovery_workers,
      o.reinit_on_restore_failure ? 1 : 0,
      static_cast<double>(o.hang_threshold) / 1e6);
  return buf;
}

// ------------------------------------------------------------- statistics

/// Exact sample percentile, linear interpolation between sorted neighbours.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Percentile of the samples `after` recorded beyond `before` (same log2
/// buckets, interpolated as obs::Histogram does), so a phase's histogram is
/// not polluted by boot or warm-up samples.
double DeltaPercentile(const obs::Histogram& before,
                       const obs::Histogram& after, double q) {
  const std::uint64_t n = after.count() - before.count();
  if (n == 0) return 0;
  const double target = q / 100.0 * static_cast<double>(n);
  std::uint64_t cum = 0;
  for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
    const std::uint64_t c = after.bucket_count(b) - before.bucket_count(b);
    if (c == 0) continue;
    const double prev = static_cast<double>(cum);
    cum += c;
    if (static_cast<double>(cum) >= target) {
      const double lo = static_cast<double>(obs::Histogram::BucketLo(b));
      const double hi = static_cast<double>(obs::Histogram::BucketHi(b));
      return lo + (target - prev) / static_cast<double>(c) * (hi - lo);
    }
  }
  return static_cast<double>(after.max());
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Fig 7b overhead: private checkpoint pages, the shared page baseline, and
/// the call/return logs.
double MemOverheadMiB(const core::MemoryReport& m) {
  return static_cast<double>(m.snapshot_stored_bytes +
                             m.snapshot_baseline_bytes + m.log_bytes) /
         kMiB;
}

// ------------------------------------------------------------------- rig

/// One assembled application stack with its server app and 4 connections.
/// Heap-allocated and pinned: the server fiber captures its address.
struct Rig {
  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    if (rt == nullptr) return;
    stop = true;
    rt->UnparkApps();
    rt->RunUntilIdle();
  }

  uk::Platform platform;
  uk::HostRingView rings;
  std::unique_ptr<Runtime> rt;
  apps::StackInfo info;
  std::unique_ptr<apps::Posix> px;
  std::unique_ptr<apps::KvStore> kv;
  std::unique_ptr<apps::WebServer> web;
  std::unique_ptr<SimClient> client;
  std::vector<int> conns;
  bool stop = false;
  bool app_ok = false;
};

/// Web documents, generated from the seed.
struct Docs {
  std::string small;
  std::string large;
};

Docs MakeDocs(std::uint64_t seed) {
  Rng rng(seed ^ 0xd0c5d0c5ULL);
  auto fill = [&rng](std::size_t n) {
    std::string s(n, ' ');
    for (char& c : s) c = static_cast<char>('a' + rng.Below(26));
    return s;
  };
  return Docs{fill(kSmallFile), fill(kLargeFile)};
}

void PumpOnce(Rig& rig, Tracer* t) {
  {
    Scope s(t, kClientPoll);
    rig.client->Poll();
  }
  {
    Scope s(t, kUnparkApps);
    rig.rt->UnparkApps();
  }
  {
    Scope s(t, kRunUntilIdle);
    rig.rt->RunUntilIdle();
  }
  {
    Scope s(t, kClientPoll);
    rig.client->Poll();
  }
}

/// Opens a connection and pumps until it is established (bounded).
int ConnectOne(Rig& rig, Tracer* t) {
  int h = -1;
  {
    Scope s(t, kClientConnect);
    h = rig.client->Connect();
  }
  for (int i = 0; i < 64 && !rig.client->Established(h); ++i) PumpOnce(rig, t);
  return rig.client->Established(h) ? h : -1;
}

/// Stack build + boot + mount + app setup + connections established.
/// Returns nullptr if any step failed.
std::unique_ptr<Rig> BuildRig(Workload w, const Docs& docs, Tracer* t) {
  auto rig = std::make_unique<Rig>();
  Rig* r = rig.get();
  if (!IsKv(w)) {
    r->platform.ninep.PutFile("/www/small.html", docs.small);
    r->platform.ninep.PutFile("/www/large.html", docs.large);
  }
  r->rt = std::make_unique<Runtime>(OptionsFor(w));
  r->info = apps::BuildStack(*r->rt, r->platform, r->rings,
                             IsKv(w) ? apps::StackSpec::Redis()
                                     : apps::StackSpec::Nginx());
  if (apps::BootAndMount(*r->rt) != 0) return nullptr;
  r->px = std::make_unique<apps::Posix>(*r->rt);
  if (IsKv(w)) {
    r->kv = std::make_unique<apps::KvStore>(*r->px, kAofPath, true);
    r->rt->SpawnApp("redis", [r] {
      r->app_ok = r->kv->OpenAof() && r->kv->Setup(kKvPort);
      if (r->app_ok) r->kv->RunLoop(&r->stop);
    });
  } else {
    r->web = std::make_unique<apps::WebServer>(*r->px, kWebPort, "/www");
    r->rt->SpawnApp("nginx", [r] {
      r->app_ok = r->web->Setup();
      if (r->app_ok) r->web->RunLoop(&r->stop);
    });
  }
  r->rt->RunUntilIdle();
  if (!r->app_ok) return nullptr;
  r->client = std::make_unique<SimClient>(&r->platform.net,
                                          IsKv(w) ? kKvPort : kWebPort);
  for (int i = 0; i < kConnections; ++i) {
    const int h = ConnectOne(*r, t);
    if (h < 0) return nullptr;
    r->conns.push_back(h);
  }
  return rig;
}

// ----------------------------------------------------- phase snapshots

/// Everything the runtime exposes, captured at a phase boundary.
struct Snap {
  std::string phase;
  Nanos t = 0;
  core::RuntimeStats stats;
  core::MemoryReport mem;
  std::vector<core::FunctionStats> fns;
  std::map<std::string, std::uint64_t> counters;
  obs::Histogram call_ns;
  std::uint64_t payload_bytes = 0;
  std::size_t reboots_seen = 0;
  std::string metrics_json;  // kept only for the trace file
};

Snap TakeSnap(Runtime& rt, const std::string& phase, bool keep_json) {
  Snap s;
  s.phase = phase;
  s.t = Now();
  s.stats = rt.Stats();
  s.mem = rt.Memory();
  s.fns = rt.TopFunctions(1024);
  for (const auto& [name, c] : rt.metrics().counters()) {
    s.counters[name] = c.value();
  }
  if (const obs::Histogram* h = rt.metrics().FindHistogram("rt.call_ns")) {
    s.call_ns = *h;
  }
  s.payload_bytes = rt.domain().payload_bytes_copied();
  s.reboots_seen = rt.reboot_history().size();
  if (keep_json) s.metrics_json = rt.metrics().Json();
  return s;
}

/// Per-component handler calls and inclusive handler time, from the
/// always-on fn.<comp>.<fn>.ns histograms.
struct CompTotals {
  std::uint64_t calls = 0;
  Nanos ns = 0;
};

std::map<std::string, CompTotals> ByComponent(
    const std::vector<core::FunctionStats>& fns) {
  std::map<std::string, CompTotals> out;
  for (const core::FunctionStats& f : fns) {
    const std::string comp = f.name.substr(0, f.name.find('.'));
    out[comp].calls += f.calls;
    out[comp].ns += f.total_ns;
  }
  return out;
}

std::uint64_t CounterDelta(const Snap& a, const Snap& b,
                           const std::string& name) {
  auto ia = a.counters.find(name);
  auto ib = b.counters.find(name);
  const std::uint64_t va = ia == a.counters.end() ? 0 : ia->second;
  const std::uint64_t vb = ib == b.counters.end() ? 0 : ib->second;
  return vb - va;
}

// --------------------------------------------------------------- traffic

enum class Op : std::uint8_t { kGet, kSet, kGetSmall, kGetLarge };
constexpr int kOps = 4;

enum class EventKind : std::uint8_t {
  kNull,        // kv_steady: same schedule as kv_faults, nothing armed
  kPanic,
  kMpk,
  kDeadlock,
  kCorrupt,
  kRejuvenate,  // web_rejuvenate: ForceNext refresh-reboot
};
constexpr int kEventKinds = 6;

FaultKind ToFault(EventKind k) {
  switch (k) {
    case EventKind::kMpk: return FaultKind::kMpkViolation;
    case EventKind::kDeadlock: return FaultKind::kDeadlock;
    case EventKind::kCorrupt: return FaultKind::kCorruptCheckpoint;
    default: return FaultKind::kPanic;
  }
}

struct Request {
  std::uint64_t id = 0;
  Op op = Op::kGet;
  std::string key;
  std::string value;
  std::string wire;
  std::string expect;       // KV reply line; web replies compare to Docs
  bool any_value = false;   // GET of a key whose last SET failed
};

struct Conn {
  int h = -1;
  bool busy = false;
  Request req;
  Nanos sent = 0;
  std::string buf;
};

/// A reboot-causing event (fault arm or ForceNext), open until the first
/// correct reply to a request issued after it that crosses its target.
struct Event {
  Nanos t = 0;
  ComponentId target = kComponentNone;
  EventKind kind = EventKind::kNull;
  std::uint64_t first_req = 0;
  std::size_t history_at = 0;
};

/// What one phase of traffic measured.
struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  Nanos elapsed = 0;
  std::uint64_t pumps = 0;
  std::vector<double> latency_us;
  std::vector<std::size_t> latency_win;  // window each latency completed in
  struct Window {
    double rps = 0;
    double p50_us = 0;
  };
  std::vector<Window> windows;  // complete kWindowNs windows, timed phases
  std::vector<double> mem_overhead_mib;  // sampled every kMemSampleEvery reqs
  std::array<std::vector<double>, kOps> op_latency_us;
  std::vector<double> mttr_us;
  std::vector<std::size_t> mttr_win;
  std::array<std::vector<double>, kEventKinds> mttr_kind_us;
  std::vector<double> wait_us;  // client MTTR minus the reboot report total
  std::uint64_t events = 0;
  std::uint64_t unresolved = 0;
  std::uint64_t rejuv_failures = 0;
};

class LoadLoop {
 public:
  LoadLoop(Workload w, std::uint64_t seed, Rig& rig, const Docs& docs,
         Tracer* t)
      : w_(w),
        rig_(rig),
        docs_(docs),
        t_(t),
        traffic_(seed * 0x100000001b3ULL + 1),
        schedule_(seed * 0x100000001b3ULL + 2) {
    for (int h : rig.conns) conns_.push_back(Conn{h, false, {}, 0, {}});
    if (w == Workload::kWebRejuvenate) {
      rejuv_ = std::make_unique<core::RejuvenationScheduler>(
          core::RejuvenationScheduler::ForAllComponents(*rig.rt, 0));
      rejuv_->set_refresh_checkpoints(true);
    } else {
      for (const char* name : {"vfs", "9pfs", "lwip", "netdev"}) {
        for (EventKind k : {EventKind::kPanic, EventKind::kMpk,
                            EventKind::kDeadlock, EventKind::kCorrupt}) {
          deck_.emplace_back(rig.rt->FindComponent(name), k);
        }
      }
    }
  }

  /// Sends one request of each op alone and records which components'
  /// handler counts moved: the components that op crosses.
  void LearnCrossings() {
    const std::vector<Op> ops = IsKv(w_)
                                    ? std::vector<Op>{Op::kGet, Op::kSet}
                                    : std::vector<Op>{Op::kGetSmall,
                                                      Op::kGetLarge};
    PhaseResult scratch;
    for (Op op : ops) {
      const auto before = ByComponent(rig_.rt->TopFunctions(1024));
      Conn& c = conns_[0];
      Send(c, Next(0, op), scratch);
      for (int i = 0; i < 256 && c.busy; ++i) {
        PumpOnce(rig_, nullptr);
        Collect(c, scratch);
      }
      for (const auto& [name, after] :
           ByComponent(rig_.rt->TopFunctions(1024))) {
        auto it = before.find(name);
        if (it == before.end() || after.calls > it->second.calls) {
          const ComponentId id = rig_.rt->FindComponent(name);
          crosses_[static_cast<int>(op)].insert(id);
          crossed_by_any_.insert(id);
        }
      }
    }
    learn_failed_ = scratch.failed;
  }

  /// Closed loop: issue on every idle connection, pump, collect. Runs for
  /// `duration` (or, when 0, until `max_requests` were issued), then drains
  /// the requests still outstanding.
  PhaseResult Run(Nanos duration, std::uint64_t max_requests, bool events) {
    PhaseResult r;
    phase_first_ = next_id_;
    fault_window_ = ~std::uint64_t{0};
    const Nanos t0 = Now();
    const Nanos deadline = t0 + duration;
    window_t0_ = t0;
    window_ok_ = 0;
    window_lat_.clear();
    while (true) {
      const bool issuing =
          duration > 0 ? Now() < deadline : r.attempted < max_requests;
      const Nanos round_t0 = t_ != nullptr ? Now() : 0;
      if (t_ != nullptr) t_->set_round(++round_);
      bool busy = false;
      for (int i = 0; i < static_cast<int>(conns_.size()); ++i) {
        Conn& c = conns_[i];
        if (!c.busy && issuing &&
            (duration > 0 || r.attempted < max_requests)) {
          Request req = Next(i, std::nullopt);
          if (events) Schedule(req, r);
          Send(c, std::move(req), r);
        }
        busy = busy || c.busy;
      }
      if (!busy) break;
      PumpOnce(rig_, t_);
      r.pumps++;
      for (Conn& c : conns_) Collect(c, r);
      if (r.attempted / kMemSampleEvery > r.mem_overhead_mib.size()) {
        r.mem_overhead_mib.push_back(MemOverheadMiB(rig_.rt->Memory()));
      }
      if (t_ != nullptr) t_->Add(kRound, 0, round_t0, Now());
      if (duration > 0) CloseWindow(r);
    }
    r.elapsed = Now() - t0;
    r.unresolved = pending_.size();
    pending_.clear();
    return r;
  }

  /// The host-side AOF must hold every acknowledged SET exactly once, in
  /// per-key order, and nothing that was never acknowledged.
  bool CheckAof(std::string* why) const {
    const auto content = rig_.platform.ninep.ReadFile(kAofPath);
    if (!content.has_value()) {
      *why = "AOF missing on the host";
      return false;
    }
    std::unordered_map<std::string, std::vector<std::string>> file;
    std::size_t pos = 0;
    while (pos < content->size()) {
      std::size_t nl = content->find('\n', pos);
      if (nl == std::string::npos) nl = content->size();
      const std::string line = content->substr(pos, nl - pos);
      pos = nl + 1;
      const std::size_t sp1 = line.find(' ');
      const std::size_t sp2 = line.find(' ', sp1 + 1);
      if (line.rfind("S ", 0) != 0 || sp2 == std::string::npos) {
        *why = "malformed AOF line: " + line;
        return false;
      }
      file[line.substr(sp1 + 1, sp2 - sp1 - 1)].push_back(
          line.substr(sp2 + 1));
    }
    for (const auto& [key, values] : file) {
      if (uncertain_.contains(key)) continue;
      auto it = acked_sets_.find(key);
      if (it == acked_sets_.end() || it->second != values) {
        *why = "AOF history of " + key + " differs from acknowledged SETs";
        return false;
      }
    }
    for (const auto& [key, values] : acked_sets_) {
      if (!uncertain_.contains(key) && !file.contains(key)) {
        *why = "acknowledged SETs of " + key + " missing from the AOF";
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] std::uint64_t learn_failed() const { return learn_failed_; }
  [[nodiscard]] const core::RejuvenationScheduler* rejuv() const {
    return rejuv_.get();
  }

 private:
  Request Next(int conn, std::optional<Op> force) {
    Request q;
    q.id = next_id_++;
    if (IsKv(w_)) {
      const bool set = force.has_value() ? *force == Op::kSet
                                         : traffic_.Chance(1, 2);
      q.op = set ? Op::kSet : Op::kGet;
      q.key = "c" + std::to_string(conn) + "k" +
              std::to_string(traffic_.Below(kKeysPerConn));
      if (set) {
        char v[40];
        std::snprintf(v, sizeof(v), "v%06llx.%llu",
                      static_cast<unsigned long long>(traffic_.Below(1 << 24)),
                      static_cast<unsigned long long>(q.id));
        q.value = v;
        q.wire = "SET " + q.key + " " + q.value + "\n";
        q.expect = "+OK\n";
      } else {
        q.wire = "GET " + q.key + "\n";
        auto it = acked_.find(q.key);
        q.any_value = uncertain_.contains(q.key);
        q.expect = it == acked_.end() ? "$-1\n" : "$" + it->second + "\n";
      }
    } else {
      const bool small = force.has_value() ? *force == Op::kGetSmall
                                           : traffic_.Chance(1, 2);
      q.op = small ? Op::kGetSmall : Op::kGetLarge;
      q.wire = small ? "GET /small.html\n" : "GET /large.html\n";
    }
    return q;
  }

  /// Fault arming (KV) or rejuvenation (web), decided by request position.
  void Schedule(const Request& q, PhaseResult& r) {
    const std::uint64_t pos = q.id - phase_first_;
    if (!IsKv(w_)) {
      if (pos % kRejuvEvery != 0) return;
      const Nanos t = Now();
      const std::size_t at = rig_.rt->reboot_history().size();
      std::optional<RebootReport> rep;
      {
        Scope s(t_, kForceNext, q.id);
        rep = rejuv_->ForceNext();
      }
      r.events++;
      if (!rep.has_value()) {
        r.rejuv_failures++;
        return;
      }
      pending_.push_back(Event{t, rep->component, EventKind::kRejuvenate,
                               q.id, at});
      return;
    }
    if (pos / kFaultWindow != fault_window_) {
      fault_window_ = pos / kFaultWindow;
      fault_offset_ = schedule_.Below(kFaultWindow / 2);
      fault_armed_ = false;
    }
    if (fault_armed_ || q.op != Op::kSet ||
        pos % kFaultWindow < fault_offset_) {
      return;
    }
    fault_armed_ = true;
    if (deck_pos_ == 0) {  // reshuffle the 16 (target, kind) pairs
      for (std::size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[schedule_.Below(i + 1)]);
      }
    }
    const auto [target, kind] = deck_[deck_pos_];
    deck_pos_ = (deck_pos_ + 1) % deck_.size();
    const Nanos t = Now();
    Event e{t, target, EventKind::kNull, q.id,
            rig_.rt->reboot_history().size()};
    if (w_ == Workload::kKvFaults) {
      Scope s(t_, kInjectFault, q.id);
      rig_.rt->InjectFault(target, ToFault(kind), 0);
      e.kind = kind;
    }
    pending_.push_back(e);
    r.events++;
  }

  void Send(Conn& c, Request q, PhaseResult& r) {
    c.req = std::move(q);
    c.busy = true;
    c.buf.clear();
    c.sent = Now();
    r.attempted++;
    Scope s(t_, kClientSend, c.req.id);
    rig_.client->Send(c.h, c.req.wire);
  }

  void Collect(Conn& c, PhaseResult& r) {
    if (!c.busy) return;
    if (rig_.client->Broken(c.h) || rig_.client->Closed(c.h)) {
      Finish(c, false, r);
      return;
    }
    {
      Scope s(t_, kClientTake, c.req.id);
      c.buf += rig_.client->TakeReceived(c.h);
    }
    if (IsKv(w_)) {
      const std::size_t nl = c.buf.find('\n');
      if (nl != std::string::npos) {
        const bool ok = nl + 1 == c.buf.size() &&
                        (c.req.any_value ? c.buf[0] == '$'
                                         : c.buf == c.req.expect);
        Finish(c, ok, r);
        return;
      }
    } else {
      const std::string& doc =
          c.req.op == Op::kGetSmall ? docs_.small : docs_.large;
      static const std::string kHead = "HTTP/1.0 200\n\n";
      if (c.buf.size() >= kHead.size() + doc.size()) {
        const bool ok = c.buf.size() == kHead.size() + doc.size() &&
                        c.buf.compare(0, kHead.size(), kHead) == 0 &&
                        c.buf.compare(kHead.size(), doc.size(), doc) == 0;
        Finish(c, ok, r);
        return;
      }
    }
    if (Now() - c.sent > kStallNs) Finish(c, false, r);
  }

  void Finish(Conn& c, bool ok, PhaseResult& r) {
    const Nanos now = Now();
    c.busy = false;
    if (t_ != nullptr) t_->Add(kRequest, c.req.id, c.sent, now);
    if (!ok) {
      r.failed++;
      if (IsKv(w_)) uncertain_.insert(c.req.key);
      // The stream may be misaligned or dead: start a fresh connection.
      rig_.client->Close(c.h);
      c.h = ConnectOne(rig_, t_);
      if (c.h < 0) {
        std::fprintf(stderr, "vampbench: reconnect failed\n");
        std::exit(1);
      }
      return;
    }
    r.ok++;
    const double us = static_cast<double>(now - c.sent) / 1e3;
    r.latency_us.push_back(us);
    r.latency_win.push_back(r.windows.size());
    window_lat_.push_back(us);
    window_ok_++;
    r.op_latency_us[static_cast<int>(c.req.op)].push_back(us);
    if (c.req.op == Op::kSet) {
      acked_[c.req.key] = c.req.value;
      acked_sets_[c.req.key].push_back(c.req.value);
    }
    Resolve(c.req, now, r);
  }

  void CloseWindow(PhaseResult& r) {
    const Nanos now = Now();
    if (now - window_t0_ < kWindowNs) return;
    r.windows.push_back(PhaseResult::Window{
        static_cast<double>(window_ok_) /
            (static_cast<double>(now - window_t0_) / 1e9),
        Percentile(window_lat_, 50)});
    window_t0_ = now;
    window_ok_ = 0;
    window_lat_.clear();
  }

  [[nodiscard]] bool Crosses(Op op, ComponentId target) const {
    // A component no request crosses counts as back at the first correct
    // reply of any request issued after the event.
    if (!crossed_by_any_.contains(target)) return true;
    return crosses_[static_cast<int>(op)].contains(target);
  }

  void Resolve(const Request& q, Nanos now, PhaseResult& r) {
    const auto& history = rig_.rt->reboot_history();
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (q.id < it->first_req || !Crosses(q.op, it->target)) {
        ++it;
        continue;
      }
      const double mttr = static_cast<double>(now - it->t) / 1e3;
      r.mttr_us.push_back(mttr);
      r.mttr_win.push_back(r.windows.size());
      r.mttr_kind_us[static_cast<int>(it->kind)].push_back(mttr);
      const ComponentId leader = rig_.rt->GroupLeader(it->target);
      for (std::size_t i = it->history_at; i < history.size(); ++i) {
        if (rig_.rt->GroupLeader(history[i].component) == leader) {
          r.wait_us.push_back(
              mttr - static_cast<double>(history[i].total_ns) / 1e3);
          break;
        }
      }
      it = pending_.erase(it);
    }
  }

  Workload w_;
  Rig& rig_;
  const Docs& docs_;
  Tracer* t_;
  Rng traffic_;   // keys, values, op mix
  Rng schedule_;  // fault positions and (target, kind) order
  std::vector<Conn> conns_;
  std::uint64_t next_id_ = 1;
  std::uint64_t round_ = 0;
  std::uint64_t phase_first_ = 1;
  std::uint64_t learn_failed_ = 0;
  Nanos window_t0_ = 0;
  std::uint64_t window_ok_ = 0;
  std::vector<double> window_lat_;
  // KV oracle: last acknowledged value and full acknowledged history per
  // key; keys whose SET outcome is unknown (a failed request) are excluded.
  std::unordered_map<std::string, std::string> acked_;
  std::unordered_map<std::string, std::vector<std::string>> acked_sets_;
  std::unordered_set<std::string> uncertain_;
  // Fault schedule.
  std::vector<std::pair<ComponentId, EventKind>> deck_;
  std::size_t deck_pos_ = 0;
  std::uint64_t fault_window_ = 0;
  std::uint64_t fault_offset_ = 0;
  bool fault_armed_ = false;
  std::unique_ptr<core::RejuvenationScheduler> rejuv_;
  std::vector<Event> pending_;
  std::array<std::set<ComponentId>, kOps> crosses_;
  std::set<ComponentId> crossed_by_any_;
};

// ------------------------------------------------------------ one run

struct RunOutput {
  PhaseResult warmup;
  PhaseResult phase;
  Snap begin;
  Snap end;
  std::vector<RebootReport> reports;  // reboots during the measured phase
  bool aof_ok = true;
  std::string aof_why;
  std::uint64_t learn_failed = 0;
  std::uint64_t cycles = 0;
  std::size_t plan_size = 0;
  double peak_rss_mib = 0;
  std::string options;
};

/// Set-up time of one cold start: the stack is built in a child forked
/// before this process assembled any stack, so it faults in fresh memory as
/// a real start does. (Set-ups repeated in one process reuse freed arenas
/// or not depending on allocator state, which makes them bimodal.)
std::optional<double> ColdSetupSeconds(Workload w, const Docs& docs) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    const Nanos t0 = Now();
    const bool ok = BuildRig(w, docs, nullptr) != nullptr;
    const double s = ok ? static_cast<double>(Now() - t0) / 1e9 : -1.0;
    const ssize_t n = write(fds[1], &s, sizeof(s));
    _exit(n == sizeof(s) ? 0 : 1);
  }
  close(fds[1]);
  double s = -1.0;
  const ssize_t n = read(fds[0], &s, sizeof(s));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (n != sizeof(s) || s <= 0) return std::nullopt;
  return s;
}

/// Sets the stack up, learns the request paths, warms up, and measures one
/// phase. `duration` > 0 times the phase; otherwise it issues exactly
/// `max_requests`.
std::optional<RunOutput> RunWorkload(Workload w, std::uint64_t seed,
                                     Nanos duration,
                                     std::uint64_t max_requests, Tracer* t,
                                     std::vector<Snap>* snaps) {
  RunOutput out;
  const Docs docs = MakeDocs(seed);
  std::unique_ptr<Rig> rig = BuildRig(w, docs, nullptr);
  if (rig == nullptr) return std::nullopt;
  out.options = DescribeOptions(rig->rt->options());
  auto snap = [&](const char* phase) {
    Snap s = TakeSnap(*rig->rt, phase, snaps != nullptr);
    if (snaps != nullptr) snaps->push_back(s);
    return s;
  };
  snap("setup");
  LoadLoop d(w, seed, *rig, docs, t);
  d.LearnCrossings();
  out.learn_failed = d.learn_failed();
  out.warmup = d.Run(0, kWarmupRequests, false);
  out.begin = snap("measure.begin");
  out.phase = d.Run(duration, max_requests, true);
  out.end = snap("measure.end");
  const auto& history = rig->rt->reboot_history();
  out.reports.assign(history.begin() + out.begin.reboots_seen, history.end());
  if (IsKv(w)) out.aof_ok = d.CheckAof(&out.aof_why);
  if (d.rejuv() != nullptr) {
    out.cycles = d.rejuv()->cycles_completed();
    out.plan_size = d.rejuv()->plan_size();
  }
  out.peak_rss_mib = PeakRssMiB();
  return out;
}

// ------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PerReq(const RunOutput& o, double v) {
  return o.phase.attempted == 0 ? 0 : v / static_cast<double>(o.phase.attempted);
}

/// The calm half of a timed phase's windows (see kWindowNs).
std::vector<bool> CalmWindows(const PhaseResult& r) {
  std::vector<double> p50;
  for (const auto& win : r.windows) p50.push_back(win.p50_us);
  const double cut = Percentile(p50, 50);
  std::vector<bool> calm;
  for (const auto& win : r.windows) calm.push_back(win.p50_us <= cut);
  return calm;
}

/// Samples completed inside calm windows (the drain after the last complete
/// window is never calm).
std::vector<double> InCalm(const std::vector<double>& v,
                           const std::vector<std::size_t>& win,
                           const std::vector<bool>& calm) {
  std::vector<double> out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (win[i] < calm.size() && calm[win[i]]) out.push_back(v[i]);
  }
  return out;
}

double Throughput(const RunOutput& o) {
  return static_cast<double>(o.phase.ok) /
         (static_cast<double>(o.phase.elapsed) / 1e9);
}

std::vector<Metric> EndToEnd(const RunOutput& o, double setup_s) {
  const PhaseResult& r = o.phase;
  const std::vector<bool> calm = CalmWindows(r);
  std::vector<double> rps;
  std::vector<double> p50;
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    if (!calm[i]) continue;
    rps.push_back(r.windows[i].rps);
    p50.push_back(r.windows[i].p50_us);
  }
  const std::vector<double> lat = InCalm(r.latency_us, r.latency_win, calm);
  const std::vector<double> mttr = InCalm(r.mttr_us, r.mttr_win, calm);
  return {
      {"setup_s", setup_s, "s"},
      {"throughput_rps", Percentile(rps, 50), "1/s"},
      {"latency_p50_us", Percentile(p50, 50), "us"},
      {"latency_p99_us", Percentile(lat, 99), "us"},
      {"mttr_p50_us", Percentile(mttr, 50), "us"},
      {"mttr_p95_us", Percentile(mttr, 95), "us"},
      {"mem_overhead_mb", Percentile(o.phase.mem_overhead_mib, 50), "MiB"},
      {"peak_rss_mb", o.peak_rss_mib, "MiB"},
  };
}

/// Per-layer metrics of a traced run `o`; `plain` is the untraced run of the
/// same seed that the tracing overhead is measured against.
std::vector<Metric> PerLayer(const RunOutput& o, const RunOutput& plain,
                             const Tracer& t) {
  const Snap& a = o.begin;
  const Snap& b = o.end;
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  std::vector<Metric> m;
  auto add = [&m](std::string name, double v, std::string unit) {
    m.push_back({std::move(name), v, std::move(unit)});
  };
  const double client_ns =
      static_cast<double>(t.total_ns(kClientSend) + t.total_ns(kClientPoll) +
                          t.total_ns(kClientTake) + t.total_ns(kClientConnect));
  const double run_ns =
      static_cast<double>(t.total_ns(kUnparkApps) + t.total_ns(kRunUntilIdle));
  add("host.client_us_per_req", PerReq(o, client_ns / 1e3), "us/req");
  add("core.run_us_per_req", PerReq(o, run_ns / 1e3), "us/req");
  add("core.pumps_per_req", PerReq(o, static_cast<double>(o.phase.pumps)),
      "count/req");
  const double switches =
      d(a.stats.context_switches, b.stats.context_switches);
  add("sched.switches_per_req", PerReq(o, switches), "count/req");
  add("sched.empty_poll_frac",
      switches == 0 ? 0 : d(a.stats.empty_polls, b.stats.empty_polls) / switches,
      "frac");
  add("sched.aux_fibers",
      d(a.stats.aux_fibers_spawned, b.stats.aux_fibers_spawned), "count");
  add("mpk.pkru_writes_per_req",
      PerReq(o, d(a.stats.pkru_writes, b.stats.pkru_writes)), "count/req");
  add("msg.calls_per_req", PerReq(o, d(a.stats.calls, b.stats.calls)),
      "count/req");
  add("msg.direct_calls_per_req",
      PerReq(o, d(a.stats.direct_calls, b.stats.direct_calls)), "count/req");
  add("msg.messages_per_req", PerReq(o, d(a.stats.messages, b.stats.messages)),
      "count/req");
  add("msg.replies_batched_per_req",
      PerReq(o, d(a.stats.replies_batched, b.stats.replies_batched)),
      "count/req");
  add("msg.call_p50_us", DeltaPercentile(a.call_ns, b.call_ns, 50) / 1e3, "us");
  add("msg.call_p99_us", DeltaPercentile(a.call_ns, b.call_ns, 99) / 1e3, "us");
  add("msg.payload_bytes_per_req",
      PerReq(o, d(a.payload_bytes, b.payload_bytes)), "B/req");
  add("log.appends_per_req",
      PerReq(o, d(a.stats.log_appends, b.stats.log_appends)), "count/req");
  add("log.pruned_per_req",
      PerReq(o, d(a.stats.log_pruned_entries, b.stats.log_pruned_entries)),
      "count/req");
  add("log.compactions_per_kreq",
      1000 * PerReq(o, d(a.stats.compactions, b.stats.compactions)),
      "count/kreq");
  add("log.compaction_skips",
      d(a.stats.compaction_skips, b.stats.compaction_skips), "count");
  add("log.scans", d(a.stats.log_scans, b.stats.log_scans), "count");
  add("log.entries", static_cast<double>(b.mem.log_entries), "count");
  add("log.kb", static_cast<double>(b.mem.log_bytes) / 1024.0, "KiB");
  const auto ca = ByComponent(a.fns);
  const auto cb = ByComponent(b.fns);
  for (const char* c : {"vfs", "9pfs", "lwip", "netdev", "virtio"}) {
    const CompTotals before = ca.contains(c) ? ca.at(c) : CompTotals{};
    const CompTotals after = cb.contains(c) ? cb.at(c) : CompTotals{};
    add(std::string("uk.") + c + ".us_per_req",
        PerReq(o, static_cast<double>(after.ns - before.ns) / 1e3), "us/req");
    add(std::string("uk.") + c + ".calls_per_req",
        PerReq(o, d(before.calls, after.calls)), "count/req");
  }
  const auto& op = o.phase.op_latency_us;
  add("apps.get_p50_us", Percentile(op[static_cast<int>(Op::kGet)], 50), "us");
  add("apps.get_p99_us", Percentile(op[static_cast<int>(Op::kGet)], 99), "us");
  add("apps.set_p50_us", Percentile(op[static_cast<int>(Op::kSet)], 50), "us");
  add("apps.set_p99_us", Percentile(op[static_cast<int>(Op::kSet)], 99), "us");
  add("apps.get_small_p50_us",
      Percentile(op[static_cast<int>(Op::kGetSmall)], 50), "us");
  add("apps.get_large_p50_us",
      Percentile(op[static_cast<int>(Op::kGetLarge)], 50), "us");

  std::vector<double> stop, restore, replay, entries, total, hash, rpd, rps,
      rkb, fus, fpd, fps;
  for (const RebootReport& r : o.reports) {
    stop.push_back(static_cast<double>(r.stop_ns) / 1e3);
    restore.push_back(static_cast<double>(r.snapshot_ns) / 1e3);
    replay.push_back(static_cast<double>(r.replay_ns) / 1e3);
    entries.push_back(static_cast<double>(r.entries_replayed));
    total.push_back(static_cast<double>(r.total_ns) / 1e3);
    hash.push_back(static_cast<double>(r.snapshot_hash_ns) / 1e3);
    rpd.push_back(static_cast<double>(r.snapshot_pages_dirty));
    rps.push_back(static_cast<double>(r.snapshot_pages_skipped));
    rkb.push_back(static_cast<double>(r.snapshot_bytes_copied) / 1024.0);
    fus.push_back(static_cast<double>(r.refresh_hash_ns + r.refresh_copy_ns) /
                  1e3);
    fpd.push_back(static_cast<double>(r.refresh_pages_dirty));
    fps.push_back(static_cast<double>(r.refresh_pages_skipped));
  }
  const auto& mk = o.phase.mttr_kind_us;
  add("recovery.reboots", static_cast<double>(o.reports.size()), "count");
  add("recovery.cycles", static_cast<double>(o.cycles), "count");
  add("recovery.stop_us_p50", Percentile(stop, 50), "us");
  add("recovery.restore_us_p50", Percentile(restore, 50), "us");
  add("recovery.restore_us_p95", Percentile(restore, 95), "us");
  add("recovery.replay_us_p50", Percentile(replay, 50), "us");
  add("recovery.replay_entries_mean", Mean(entries), "count");
  add("recovery.total_us_p50", Percentile(total, 50), "us");
  add("recovery.total_us_p95", Percentile(total, 95), "us");
  add("recovery.wait_us_p50", Percentile(o.phase.wait_us, 50), "us");
  add("recovery.mttr_panic_p50_us",
      Percentile(mk[static_cast<int>(EventKind::kPanic)], 50), "us");
  add("recovery.mttr_mpk_p50_us",
      Percentile(mk[static_cast<int>(EventKind::kMpk)], 50), "us");
  add("recovery.mttr_deadlock_p50_us",
      Percentile(mk[static_cast<int>(EventKind::kDeadlock)], 50), "us");
  add("recovery.mttr_corrupt_p50_us",
      Percentile(mk[static_cast<int>(EventKind::kCorrupt)], 50), "us");
  add("recovery.reinits", static_cast<double>(CounterDelta(a, b, "rt.recovery_reinits")),
      "count");
  add("recovery.failures",
      static_cast<double>(CounterDelta(a, b, "rt.recovery_failures")),
      "count");
  add("recovery.retries_deduped",
      d(a.stats.retries_deduped, b.stats.retries_deduped), "count");
  add("recovery.replay_divergence",
      static_cast<double>(CounterDelta(a, b, "rt.replay_divergence")),
      "count");
  add("snapshot.restores",
      static_cast<double>(CounterDelta(a, b, "snapshot.restores")), "count");
  add("snapshot.restore_pages_dirty", Mean(rpd), "pages/reboot");
  add("snapshot.restore_pages_skipped", Mean(rps), "pages/reboot");
  add("snapshot.restore_kb_copied", Mean(rkb), "KiB/reboot");
  add("snapshot.restore_hash_us", Mean(hash), "us/reboot");
  add("snapshot.refresh_us_p50", Percentile(fus, 50), "us");
  add("snapshot.refresh_pages_dirty", Mean(fpd), "pages/reboot");
  add("snapshot.refresh_pages_skipped", Mean(fps), "pages/reboot");
  add("snapshot.fallback_ops",
      static_cast<double>(CounterDelta(a, b, "snapshot.dirty_fallback_ops")),
      "count");
  add("snapshot.audit_misses",
      static_cast<double>(CounterDelta(a, b, "snapshot.dirty_audit_misses")),
      "count");
  add("snapshot.stored_mb",
      static_cast<double>(b.mem.snapshot_stored_bytes) / kMiB, "MiB");
  add("snapshot.baseline_mb",
      static_cast<double>(b.mem.snapshot_baseline_bytes) / kMiB, "MiB");
  add("mem.arena_used_mb",
      static_cast<double>(b.mem.component_used_bytes) / kMiB, "MiB");
  const double plain_tput = Throughput(plain);
  add("trace.overhead_pct",
      plain_tput == 0 ? 0 : 100.0 * (plain_tput - Throughput(o)) / plain_tput,
      "%");
  add("trace.spans", static_cast<double>(t.recorded()), "count");
  return m;
}

// ------------------------------------------------------------- reporting

std::uint64_t Failed(const RunOutput& o) {
  return o.phase.failed + o.warmup.failed + o.learn_failed;
}
std::uint64_t Attempted(const RunOutput& o) {
  return o.phase.attempted + o.warmup.attempted;
}

/// Run-level correctness verdict, with the reason on failure.
bool Verdict(Workload w, const RunOutput& o, std::string* why) {
  const std::uint64_t divergence = CounterDelta(o.begin, o.end,
                                                "rt.replay_divergence");
  const std::pair<bool, std::string> checks[] = {
      {Failed(o) != 0, "failed requests"},
      {!o.aof_ok, o.aof_why},
      {divergence != 0, "replay divergence"},
      {o.phase.unresolved != 0, "a reboot event never saw a correct reply"},
      {o.phase.rejuv_failures != 0, "rejuvenation reboot failed"},
      {CounterDelta(o.begin, o.end, "rt.recovery_failures") != 0,
       "recovery failure"},
      {w == Workload::kKvSteady && !o.reports.empty(),
       "kv_steady rebooted a component"},
  };
  for (const auto& [failed, reason] : checks) {
    if (failed) {
      *why = reason;
      return false;
    }
  }
  return true;
}

void PrintMetrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string JsonLine(bool correct, std::uint64_t attempted,
                     std::uint64_t failed, const std::vector<Metric>& ms) {
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    s += buf;
  }
  return s + "}}";
}

/// The traced run's per-layer table: each end-to-end metric with the layer
/// metrics expected to move it beside it.
void PrintLayerTable(Workload w, const std::vector<Metric>& e2e,
                     const std::vector<Metric>& layers) {
  auto value = [](const std::vector<Metric>& ms, const std::string& n) {
    for (const Metric& m : ms) {
      if (m.name == n) return m;
    }
    return Metric{n, 0, "?"};
  };
  auto prefixed = [&layers](std::initializer_list<const char*> prefixes) {
    std::vector<Metric> out;
    for (const Metric& m : layers) {
      for (const char* p : prefixes) {
        if (m.name.rfind(p, 0) == 0) out.push_back(m);
      }
    }
    return out;
  };
  std::printf("\nper-layer table (%s, traced run; end-to-end from the "
              "untraced run)\n", WorkloadName(w));
  const Metric ovh = value(layers, "trace.overhead_pct");
  std::printf("  tracing overhead: %.2f%% of untraced throughput (%.0f spans)\n",
              ovh.value, value(layers, "trace.spans").value);
  auto group = [&](std::initializer_list<const char*> heads,
                   std::initializer_list<const char*> prefixes) {
    std::printf("  ----------------------------------------------------------\n");
    for (const char* h : heads) {
      const Metric m = value(e2e, h);
      std::printf("  %-30s %14.3f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const Metric& m : prefixed(prefixes)) {
      std::printf("      %-32s %14.3f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  };
  group({"latency_p50_us", "throughput_rps"},
        {"host.", "core.", "sched.", "mpk.", "msg.", "uk.", "apps."});
  group({"mttr_p50_us", "mttr_p95_us"}, {"recovery.", "snapshot."});
  group({"mem_overhead_mb", "peak_rss_mb"}, {"log.", "mem."});
}

void WriteTraceFile(const std::string& dir, Workload w, std::uint64_t seed,
                    const RunOutput& o, const std::vector<Snap>& snaps,
                    const Tracer& t) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + WorkloadName(w) + "-seed" +
                           std::to_string(seed) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "vampbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"options\":\"%s\",",
               WorkloadName(w), static_cast<unsigned long long>(seed),
               o.options.c_str());
  std::fprintf(f, "\"spans_dropped\":%llu,\"phases\":[",
               static_cast<unsigned long long>(t.dropped()));
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const Snap& s = snaps[i];
    std::fprintf(f, "%s\n{\"phase\":\"%s\",\"t_ns\":%lld,\"payload_bytes\":%llu,"
                    "\"memory\":{\"arena_used\":%zu,\"log_bytes\":%zu,"
                    "\"log_entries\":%zu,\"snapshot_stored\":%zu,"
                    "\"snapshot_baseline\":%zu},\"top_functions\":[",
                 i == 0 ? "" : ",", s.phase.c_str(),
                 static_cast<long long>(s.t),
                 static_cast<unsigned long long>(s.payload_bytes),
                 s.mem.component_used_bytes, s.mem.log_bytes,
                 s.mem.log_entries, s.mem.snapshot_stored_bytes,
                 s.mem.snapshot_baseline_bytes);
    for (std::size_t j = 0; j < s.fns.size(); ++j) {
      std::fprintf(f, "%s{\"fn\":\"%s\",\"calls\":%llu,\"total_ns\":%lld}",
                   j == 0 ? "" : ",", s.fns[j].name.c_str(),
                   static_cast<unsigned long long>(s.fns[j].calls),
                   static_cast<long long>(s.fns[j].total_ns));
    }
    std::fprintf(f, "],\"metrics\":%s}", s.metrics_json.c_str());
  }
  std::fprintf(f, "],\n\"traceEvents\":[");
  t.WriteEvents(f);
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("trace written to %s\n", path.c_str());
}

// ------------------------------------------------------------- self-test

/// Every counter the runtime exposes, as a delta over the measured phase.
std::map<std::string, std::uint64_t> Counters(const RunOutput& o) {
  std::map<std::string, std::uint64_t> c;
  for (const auto& [name, v] : o.end.counters) {
    c["metric." + name] = v - (o.begin.counters.contains(name)
                                   ? o.begin.counters.at(name)
                                   : 0);
  }
  const core::RuntimeStats& a = o.begin.stats;
  const core::RuntimeStats& b = o.end.stats;
  c["stats.context_switches"] = b.context_switches - a.context_switches;
  c["stats.pkru_writes"] = b.pkru_writes - a.pkru_writes;
  c["stats.log_scans"] = b.log_scans - a.log_scans;
  c["domain.payload_bytes"] = o.end.payload_bytes - o.begin.payload_bytes;
  c["memory.log_entries"] = o.end.mem.log_entries;
  c["memory.log_bytes"] = o.end.mem.log_bytes;
  c["memory.snapshot_stored"] = o.end.mem.snapshot_stored_bytes;
  c["memory.arena_used"] = o.end.mem.component_used_bytes;
  c["phase.pumps"] = o.phase.pumps;
  c["phase.reboots"] = o.reports.size();
  std::map<std::string, std::uint64_t> before;
  for (const auto& f : o.begin.fns) before[f.name] = f.calls;
  for (const auto& f : o.end.fns) c["fn." + f.name + ".calls"] = f.calls - before[f.name];
  for (std::size_t i = 0; i < o.reports.size(); ++i) {
    const RebootReport& r = o.reports[i];
    c["reboot." + std::to_string(i) + ".pages_dirty"] = r.snapshot_pages_dirty;
    c["reboot." + std::to_string(i) + ".bytes_copied"] = r.snapshot_bytes_copied;
    c["reboot." + std::to_string(i) + ".entries_replayed"] = r.entries_replayed;
  }
  return c;
}

/// Counter gate: two runs of the same seed and request budget must produce
/// identical counters on every workload. Only counts are compared; times
/// (histogram sums, spans) and RSS are excluded because they never repeat.
int SelfTest(std::uint64_t seed) {
  constexpr std::uint64_t kRequests = 3000;
  int bad = 0;
  for (Workload w : {Workload::kKvSteady, Workload::kKvFaults,
                     Workload::kWebRejuvenate}) {
    auto first = RunWorkload(w, seed, 0, kRequests, nullptr, nullptr);
    auto second = RunWorkload(w, seed, 0, kRequests, nullptr, nullptr);
    if (!first || !second) {
      std::printf("selftest %s: setup failed\n", WorkloadName(w));
      return 1;
    }
    std::string why;
    if (!Verdict(w, *first, &why) || !Verdict(w, *second, &why)) {
      std::printf("selftest %s: incorrect run: %s\n", WorkloadName(w),
                  why.c_str());
      return 1;
    }
    const auto c1 = Counters(*first);
    const auto c2 = Counters(*second);
    int diffs = 0;
    for (const auto& [name, v] : c1) {
      const std::uint64_t other = c2.contains(name) ? c2.at(name) : 0;
      if (v != other) {
        std::printf("  %s: %s differs: %llu vs %llu\n", WorkloadName(w),
                    name.c_str(), static_cast<unsigned long long>(v),
                    static_cast<unsigned long long>(other));
        diffs++;
      }
    }
    for (const auto& [name, v] : c2) {
      if (!c1.contains(name)) {
        std::printf("  %s: %s only in the second run\n", WorkloadName(w),
                    name.c_str());
        diffs++;
      }
    }
    std::printf("selftest %s: %zu counters over %llu requests, %d differ\n",
                WorkloadName(w), c1.size(),
                static_cast<unsigned long long>(kRequests), diffs);
    bad += diffs;
  }
  return bad == 0 ? 0 : 1;
}

// ------------------------------------------------------------------ main

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: vampbench --workload {kv_steady,kv_faults,"
               "web_rejuvenate} --seed N --seconds S --trace {0,1} "
               "[--trace-dir DIR]\n       vampbench --selftest [--seed N]\n");
  std::exit(2);
}

int Main(int argc, char** argv) {
  // The runtime reads VAMPOS_* knobs at construction; any of them would
  // silently change what is measured.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "VAMPOS_", 7) == 0) {
      std::fprintf(stderr, "vampbench: refusing to run with %s set\n", *e);
      return 2;
    }
  }
  std::optional<Workload> workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
  std::string trace_dir = ".bench_build/traces";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (a == "--workload") {
      workload = ParseWorkload(val());
      if (!workload) Usage();
    } else if (a == "--seed") {
      seed = std::strtoull(val().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(val().c_str());
    } else if (a == "--trace") {
      trace = std::atoi(val().c_str());
    } else if (a == "--trace-dir") {
      trace_dir = val();
    } else if (a == "--selftest") {
      selftest = true;
    } else {
      Usage();
    }
  }
  if (selftest) return SelfTest(seed);
  if (!workload || seconds <= 0 || (trace != 0 && trace != 1)) Usage();
  const Workload w = *workload;
  const auto ns = static_cast<Nanos>(seconds * 1e9);

  std::printf("vampbench %s seed=%llu seconds=%g trace=%d\n", WorkloadName(w),
              static_cast<unsigned long long>(seed), seconds, trace);
  // Cold set-ups first, while this process has built no stack yet.
  std::vector<double> setups;
  for (int i = 0; i < kSetups && trace == 0; ++i) {
    const std::optional<double> s = ColdSetupSeconds(w, MakeDocs(seed));
    if (!s) {
      std::fprintf(stderr, "vampbench: stack setup failed\n");
      return 1;
    }
    setups.push_back(*s);
  }
  auto plain = RunWorkload(w, seed, trace == 0 ? ns : ns / 2, 0, nullptr,
                           nullptr);
  if (!plain) {
    std::fprintf(stderr, "vampbench: stack setup failed\n");
    return 1;
  }
  std::printf("options: %s\n", plain->options.c_str());
  std::string why;
  bool correct = Verdict(w, *plain, &why);
  std::uint64_t attempted = Attempted(*plain);
  std::uint64_t failed = Failed(*plain);
  const std::vector<Metric> e2e = EndToEnd(*plain, Percentile(setups, 50));
  std::printf("requests: %llu attempted, %llu failed (failed_frac %.6f), "
              "%llu scheduled events, %zu reboots\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(plain->phase.events),
              plain->reports.size());
  if (w == Workload::kWebRejuvenate) {
    std::printf("rejuvenation: %llu full cycles over %zu rebootable "
                "components\n",
                static_cast<unsigned long long>(plain->cycles),
                plain->plan_size);
  }
  std::vector<double> rps;
  for (const auto& win : plain->phase.windows) rps.push_back(win.rps);
  std::printf("windows: %zu x %.1f s, throughput min/median/max "
              "%.0f/%.0f/%.0f 1/s\n",
              rps.size(), static_cast<double>(kWindowNs) / 1e9,
              Percentile(rps, 0), Percentile(rps, 50), Percentile(rps, 100));
  std::printf("end-to-end (untraced):\n");
  PrintMetrics(e2e);

  std::vector<Metric> out = e2e;
  if (trace == 1) {
    Tracer tracer;
    std::vector<Snap> snaps;
    auto traced = RunWorkload(w, seed, ns / 2, 0, &tracer, &snaps);
    if (!traced) {
      std::fprintf(stderr, "vampbench: stack setup failed\n");
      return 1;
    }
    std::string twhy;
    if (!Verdict(w, *traced, &twhy)) {
      correct = false;
      if (why.empty()) why = twhy;
    }
    attempted += Attempted(*traced);
    failed += Failed(*traced);
    out = PerLayer(*traced, *plain, tracer);
    PrintLayerTable(w, e2e, out);
    WriteTraceFile(trace_dir, w, seed, *traced, snaps, tracer);
  }
  if (!correct) std::printf("INCORRECT: %s\n", why.c_str());
  std::printf("%s\n", JsonLine(correct, attempted, failed, out).c_str());
  return 0;
}

}  // namespace
}  // namespace vampos::perfbench

int main(int argc, char** argv) { return vampos::perfbench::Main(argc, argv); }
