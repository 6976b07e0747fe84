// HealthMonitor: windowed per-component health telemetry and aging
// detectors — the closed-loop half of the observability subsystem.
//
// The flight recorder answers "what just happened"; the health monitor
// answers "which component is aging". Per component it maintains
// WindowedSeries for request latency (count doubles as request rate, the
// histogram gives p99), errors, hangs, faults, arena bytes-in-use, and
// dirty-page marks. Three detectors run over the closed windows:
//
//   leak slope      least-squares fit of arena bytes-in-use over time
//   latency drift   recent p99 vs the trailing-window baseline p99
//   error rate      errors per request over the horizon
//
// plus hard signals (any hang or fault in the horizon). Each detector
// contributes a weighted, saturating term to a [0, 1] health score;
// crossing `degrade_score` marks the component degraded, and it stays
// degraded until the score falls below `healthy_score` (hysteresis, so a
// component bouncing around the threshold doesn't flap).
//
// Like the recorder, the monitor is pay-for-what-you-use: the runtime holds
// a null pointer when health is off, so the disabled hot path is one
// predicted branch and zero allocation. All feed methods run on the message
// thread; exported gauges are registry counters.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/clock.h"
#include "base/types.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace vampos::obs {

struct HealthConfig {
  Nanos window_ns = 250 * kMillisecond;  // one window
  std::size_t windows = 8;               // ring length (horizon = W windows)

  // Detector thresholds: each contributes weight * min(1, signal/limit).
  double err_rate_limit = 0.10;           // errors per request
  double latency_drift_limit = 2.0;       // recent p99 / baseline p99
  double leak_limit_bps = 64.0 * 1024.0;  // arena growth, bytes per second

  // Hysteresis: degraded at >= degrade_score, healthy again below
  // healthy_score.
  double degrade_score = 0.50;
  double healthy_score = 0.25;
};

/// One assessment of one component — the detector outputs and the combined
/// score. Also what DumpState and the exported gauges show.
struct HealthSignals {
  double req_per_sec = 0;
  double err_per_req = 0;
  double p99_ns = 0;
  double latency_drift = 0;  // recent p99 / baseline p99, 0 = no baseline
  double leak_bps = 0;       // arena bytes-in-use slope
  std::uint64_t hangs = 0;   // over the horizon (incl. open window)
  std::uint64_t faults = 0;
  double score = 0;
  bool degraded = false;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthConfig cfg = {});

  /// Exported gauges and event counters go to this registry (health.*).
  void BindMetrics(MetricsRegistry* metrics);
  /// Degraded/recovered/rejuvenate transitions become recorder events.
  void BindRecorder(FlightRecorder* recorder);

  /// Registers a component under a stable display name. Feeding an
  /// untracked component auto-tracks it as "comp<id>".
  void Track(ComponentId id, const std::string& name);

  // ---- feed points (message thread only) ----
  /// One handled request: bumps the rate and latency series. Inline — this
  /// runs on every cross-component call, so the enabled cost must stay a
  /// cached-pointer load plus one Record.
  void OnRequest(ComponentId id, Nanos now, Nanos latency_ns) {
    FastEntry(id).latency.Record(now, latency_ns);
  }
  /// One failed request (negative-errno return).
  void OnError(ComponentId id, Nanos now) {
    FastEntry(id).errors.Record(now, 1);
  }
  void OnHang(ComponentId id, Nanos now);
  void OnFault(ComponentId id, Nanos now);
  /// Periodic gauge sample: arena bytes-in-use and cumulative dirty-page
  /// marks. Call when SampleDue() says so.
  void OnSample(ComponentId id, Nanos now, std::int64_t arena_bytes,
                std::int64_t dirty_marks);
  /// The component rebooted: its arena was rebuilt, so all aging history is
  /// stale. Drops the series and clears the degraded latch.
  void OnReboot(ComponentId id, Nanos now);

  /// Throttles gauge sampling to twice per window. Returns true when a
  /// sample round is due and arms the next deadline.
  [[nodiscard]] bool SampleDue(Nanos now);

  /// Runs the detectors for one component, updates the hysteresis latch,
  /// the exported gauges, and the transition events.
  HealthSignals Assess(ComponentId id, Nanos now);

  /// The degraded component with the worst score, assessing every tracked
  /// component. nullopt when everything is healthy.
  std::optional<ComponentId> Worst(Nanos now);

  /// Last assessed degraded state (does not re-run the detectors).
  [[nodiscard]] bool IsDegraded(ComponentId id) const;
  /// Last assessed score.
  [[nodiscard]] double Score(ComponentId id) const;

  /// An adaptive scheduler picked this component: counts it and records the
  /// health.rejuvenate event.
  void NoteRejuvenation(ComponentId id, Nanos now);

  [[nodiscard]] std::uint64_t rejuvenations() const { return rejuvenations_; }
  [[nodiscard]] std::size_t tracked() const { return comps_.size(); }
  [[nodiscard]] const HealthConfig& config() const { return cfg_; }
  [[nodiscard]] const std::string* Name(ComponentId id) const;

  /// Human-readable block for DumpState: one line per component.
  void Dump(std::FILE* out, Nanos now);

 private:
  struct Comp {
    explicit Comp(const HealthConfig& cfg);
    std::string name;
    WindowedSeries latency;  // one sample per request (ns)
    WindowedSeries errors;
    WindowedSeries hangs;
    WindowedSeries faults;
    WindowedSeries arena;  // gauge: bytes in use
    WindowedSeries dirty;  // gauge: cumulative dirty-page marks
    double score = 0;
    bool degraded = false;
    // Exported gauges, resolved once on first assessment.
    Counter* g_req_per_sec = nullptr;
    Counter* g_err_pct_x100 = nullptr;
    Counter* g_p99_ns = nullptr;
    Counter* g_leak_bps = nullptr;
    Counter* g_score_x1000 = nullptr;
    Counter* g_degraded = nullptr;
  };

  Comp& Entry(ComponentId id);
  /// Hot-path lookup: std::map nodes are address-stable, so Entry() caches
  /// each Comp* in `dense_` (indexed by id) and this is one bounds check
  /// plus one load after the first touch of a component.
  Comp& FastEntry(ComponentId id) {
    const auto idx = static_cast<std::size_t>(id);
    if (idx < dense_.size() && dense_[idx] != nullptr) return *dense_[idx];
    return Entry(id);
  }
  void ExportGauges(Comp& c, const HealthSignals& s);

  HealthConfig cfg_;
  std::map<ComponentId, Comp> comps_;
  std::vector<Comp*> dense_;
  MetricsRegistry* metrics_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  Counter* ct_samples_ = nullptr;
  Counter* ct_assessments_ = nullptr;
  Counter* ct_degraded_events_ = nullptr;
  Counter* ct_recovered_events_ = nullptr;
  Counter* ct_rejuvenations_ = nullptr;
  Nanos next_sample_ = 0;
  std::uint64_t rejuvenations_ = 0;
};

}  // namespace vampos::obs
