// WindowedSeries: a ring of fixed-duration time windows over one signal.
//
// Each window keeps count/sum/min/max/last plus a log2 histogram, so a
// series answers both rate questions ("requests per second over the last
// two seconds") and distribution questions ("p99 handler latency in the
// last window") from the same samples. The ring holds the newest W windows;
// older history falls off the end, which is exactly the horizon an aging
// detector wants — a leak from an hour ago that rebooted away must not
// haunt today's score.
//
// Time handling: a window is `[k*window_ns, (k+1)*window_ns)` for integer
// epoch k, derived from the caller's clock. The series never reads a clock
// itself — every Record/Advance takes `now`, so FakeClock tests are exactly
// as deterministic as the caller makes them. An idle gap simply closes the
// intervening windows as empty (they are real windows in which nothing
// happened); a gap longer than the ring discards all history.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "base/clock.h"
#include "obs/histogram.h"

namespace vampos::obs {

/// One fixed-duration window of samples.
struct SeriesWindow {
  std::int64_t epoch = std::numeric_limits<std::int64_t>::min();
  std::uint64_t count = 0;
  std::int64_t sum = 0;  // saturating — never wraps
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::int64_t last = 0;
  Histogram hist;

  [[nodiscard]] double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

class WindowedSeries {
 public:
  WindowedSeries(Nanos window_ns, std::size_t windows)
      : window_ns_(window_ns <= 0 ? 1 : window_ns),
        ring_(windows == 0 ? 1 : windows) {}

  [[nodiscard]] Nanos window_ns() const { return window_ns_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  /// Records one sample into the window containing `now`, closing any
  /// windows the clock skipped over since the last call.
  void Record(Nanos now, std::int64_t value) {
    Advance(now);
    SeriesWindow& w = ring_[Slot(cur_)];
    w.count++;
    w.sum = SatAdd(w.sum, value);
    if (w.count == 1 || value < w.min) w.min = value;
    if (w.count == 1 || value > w.max) w.max = value;
    w.last = value;
    w.hist.Record(value);
  }

  /// Moves the open window forward to the one containing `now` without
  /// recording anything. Skipped windows become closed empty windows; a gap
  /// of at least `capacity()` windows discards all history.
  void Advance(Nanos now) {
    const std::int64_t epoch = now / window_ns_;
    if (!started_) {
      started_ = true;
      cur_ = epoch;
      Clear(ring_[Slot(cur_)], cur_);
      return;
    }
    if (epoch <= cur_) return;  // same window (or a non-monotonic clock)
    std::int64_t gap = epoch - cur_;
    if (gap > static_cast<std::int64_t>(ring_.size())) {
      gap = static_cast<std::int64_t>(ring_.size());
    }
    for (std::int64_t i = gap; i >= 1; --i) {
      Clear(ring_[Slot(epoch - i + 1)], epoch - i + 1);
    }
    cur_ = epoch;
  }

  /// Drops all history (e.g. after the component rebooted: its arena was
  /// rebuilt, so pre-reboot samples describe a process that no longer
  /// exists). Every window is cleared, not just the open one: a stale
  /// window whose epoch still lies within the ring would otherwise count
  /// as closed history again as soon as the series restarts.
  void Reset() {
    started_ = false;
    for (SeriesWindow& w : ring_) {
      Clear(w, std::numeric_limits<std::int64_t>::min());  // never an epoch
    }
  }

  /// Number of *closed* windows available, newest first — at most
  /// `capacity() - 1` because the open window occupies one slot.
  [[nodiscard]] std::size_t closed() const {
    if (!started_) return 0;
    std::size_t n = 0;
    for (std::size_t i = 1; i < ring_.size(); ++i) {
      if (ring_[Slot(cur_ - static_cast<std::int64_t>(i))].epoch !=
          cur_ - static_cast<std::int64_t>(i)) {
        break;
      }
      ++n;
    }
    return n;
  }

  /// i-th closed window, 0 = newest closed. Precondition: i < closed().
  [[nodiscard]] const SeriesWindow& window(std::size_t i) const {
    return ring_[Slot(cur_ - 1 - static_cast<std::int64_t>(i))];
  }

  /// The still-open window (samples since the last window boundary).
  [[nodiscard]] const SeriesWindow& open() const {
    static const SeriesWindow kEmpty;
    return started_ ? ring_[Slot(cur_)] : kEmpty;
  }

  /// Total samples over the last `k` closed windows plus the open one.
  [[nodiscard]] std::uint64_t CountOver(std::size_t k) const {
    std::uint64_t total = open().count;
    const std::size_t n = k < closed() ? k : closed();
    for (std::size_t i = 0; i < n; ++i) total += window(i).count;
    return total;
  }

  /// Samples per second averaged over the last `k` closed windows. Empty
  /// history reports 0.
  [[nodiscard]] double RatePerSec(std::size_t k) const {
    const std::size_t n = k < closed() ? k : closed();
    if (n == 0) return 0.0;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) total += window(i).count;
    return 1e9 * static_cast<double>(total) /
           (static_cast<double>(n) * static_cast<double>(window_ns_));
  }

  /// Histogram merged over closed windows [first, first+count). Windows
  /// past the end of history contribute nothing, so the merge of an empty
  /// range reports Percentile() == 0 like an empty histogram.
  [[nodiscard]] Histogram Merged(std::size_t first, std::size_t count) const {
    Histogram merged;
    const std::size_t end = first + count;
    for (std::size_t i = first; i < end && i < closed(); ++i) {
      merged.Merge(window(i).hist);
    }
    return merged;
  }

  [[nodiscard]] double Percentile(double q, std::size_t k) const {
    return Merged(0, k).Percentile(q);
  }

  /// Least-squares slope of the per-window mean against window start time,
  /// in value-units per second, over the last `k` closed windows. Windows
  /// without samples are skipped (a gauge that was never read says nothing
  /// about the trend); fewer than two sampled windows reports 0. Positive
  /// means the signal is growing — for an arena-bytes gauge, a leak.
  [[nodiscard]] double SlopePerSec(std::size_t k) const {
    const std::size_t m = k < closed() ? k : closed();
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    int n = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const SeriesWindow& w = window(i);
      if (w.count == 0) continue;
      // x relative to the newest window, in seconds, to keep the fit
      // numerically stable under large absolute clock values.
      const double x = -static_cast<double>(i) *
                       (static_cast<double>(window_ns_) / 1e9);
      const double y = w.Mean();
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
      ++n;
    }
    if (n < 2) return 0.0;
    const double denom = n * sxx - sx * sx;
    if (denom == 0.0) return 0.0;
    return (n * sxy - sx * sy) / denom;
  }

 private:
  [[nodiscard]] std::size_t Slot(std::int64_t epoch) const {
    const auto m = static_cast<std::int64_t>(ring_.size());
    return static_cast<std::size_t>(((epoch % m) + m) % m);
  }

  static void Clear(SeriesWindow& w, std::int64_t epoch) {
    w.epoch = epoch;
    w.count = 0;
    w.sum = w.min = w.max = w.last = 0;
    w.hist.Reset();
  }

  static std::int64_t SatAdd(std::int64_t a, std::int64_t b) {
    std::int64_t r;
    if (__builtin_add_overflow(a, b, &r)) {
      return b > 0 ? std::numeric_limits<std::int64_t>::max()
                   : std::numeric_limits<std::int64_t>::min();
    }
    return r;
  }

  Nanos window_ns_;
  std::vector<SeriesWindow> ring_;
  std::int64_t cur_ = 0;
  bool started_ = false;
};

}  // namespace vampos::obs
