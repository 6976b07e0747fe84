// Benchmark-side span recorder. Spans wrap the calls the benchmark makes into
// the runtime's public surface (SimClient, Runtime::UnparkApps/RunUntilIdle/
// InjectFault, RejuvenationScheduler::ForceNext); nothing inside src/ is
// instrumented. Spans are kept in memory (up to kMaxKept) and written out as
// Chrome trace JSON when the run ends; per-name time totals are always exact.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "base/clock.h"

namespace vampos::perfbench {

inline Nanos Now() { return SteadyClock::Instance().Now(); }

enum SpanName : std::uint8_t {
  kRound,          // one closed-loop round: send, pump, collect
  kRequest,        // one request, from send to full correct reply
  kClientConnect,  // SimClient::Connect
  kClientSend,     // SimClient::Send
  kClientPoll,     // SimClient::Poll
  kClientTake,     // SimClient::TakeReceived
  kUnparkApps,     // Runtime::UnparkApps
  kRunUntilIdle,   // Runtime::RunUntilIdle
  kInjectFault,    // Runtime::InjectFault
  kForceNext,      // RejuvenationScheduler::ForceNext
  kSpanNames,
};

inline constexpr std::array<const char*, kSpanNames> kSpanLabel = {
    "bench.round",     "bench.request",    "client.connect",
    "client.send",     "client.poll",      "client.take",
    "core.unpark_apps", "core.run_until_idle", "core.inject_fault",
    "rejuv.force_next"};

/// One recorded span. `round` links a span to the round that caused it (a
/// round span carries its own number); `req` is the request id, shared by
/// every span of one request (0 for spans that serve all connections).
struct Span {
  Nanos t0 = 0;
  Nanos t1 = 0;
  std::uint64_t req = 0;
  std::uint64_t round = 0;
  SpanName name = kRound;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxKept = 200'000;

  void Add(SpanName n, std::uint64_t req, Nanos t0, Nanos t1) {
    total_ns_[n] += t1 - t0;
    if (spans_.size() < kMaxKept) {
      spans_.push_back(Span{t0, t1, req, round_, n});
    } else {
      dropped_++;
    }
  }
  void set_round(std::uint64_t r) { round_ = r; }

  [[nodiscard]] Nanos total_ns(SpanName n) const { return total_ns_[n]; }
  [[nodiscard]] std::uint64_t recorded() const {
    return spans_.size() + dropped_;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Chrome trace "X" events (one per kept span), comma-separated.
  void WriteEvents(std::FILE* f) const {
    bool first = true;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu,"
                   "\"round\":%llu}}",
                   first ? "" : ",", kSpanLabel[s.name],
                   static_cast<double>(s.t0) / 1e3,
                   static_cast<double>(s.t1 - s.t0) / 1e3,
                   static_cast<unsigned long long>(s.req),
                   static_cast<unsigned long long>(s.round));
      first = false;
    }
  }

 private:
  std::vector<Span> spans_;
  std::array<Nanos, kSpanNames> total_ns_{};
  std::uint64_t dropped_ = 0;
  std::uint64_t round_ = 0;
};

/// RAII span around one call into a layer. A null tracer costs one branch.
class Scope {
 public:
  Scope(Tracer* t, SpanName n, std::uint64_t req = 0)
      : t_(t), n_(n), req_(req), t0_(t != nullptr ? Now() : 0) {}
  ~Scope() {
    if (t_ != nullptr) t_->Add(n_, req_, t0_, Now());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  SpanName n_;
  std::uint64_t req_;
  Nanos t0_;
};

}  // namespace vampos::perfbench
