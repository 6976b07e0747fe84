// Metrics registry: named counters and log2 histograms with stable
// addresses. Hot paths resolve a pointer once at registration time and bump
// it directly — no hashing or lookup per increment — while exporters walk
// the registry by name for text/JSON snapshots.
//
// The runtime's ad-hoc RuntimeStats / FunctionStats fields live here now;
// the old structs remain as snapshot views assembled from the registry.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "obs/histogram.h"

namespace vampos::obs {

class Counter {
 public:
  void Add(std::uint64_t delta = 1) { value_ += delta; }
  void Set(std::uint64_t v) { value_ = v; }
  void Reset() { value_ = 0; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class MetricsRegistry {
 public:
  /// Returns the named counter/histogram, creating it on first use. The
  /// reference stays valid for the registry's lifetime (map nodes are
  /// stable), so callers cache the pointer and skip the name lookup.
  Counter& GetCounter(const std::string& name) { return counters_[name]; }
  Histogram& GetHistogram(const std::string& name) {
    return histograms_[name];
  }

  [[nodiscard]] const Counter* FindCounter(const std::string& name) const;
  [[nodiscard]] const Histogram* FindHistogram(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Human-readable snapshot: one counter per line, histograms with
  /// count/mean/p50/p95/p99/max.
  void WriteText(std::FILE* out) const;
  /// {"counters": {...}, "histograms": {name: {count, sum, min, max, mean,
  /// p50, p95, p99}, ...}} — also returned by Json() as a string.
  void WriteJson(std::FILE* out) const;
  [[nodiscard]] std::string Json() const;
  /// Prometheus text exposition: counters as `vampos_<name>` counter
  /// samples, histograms as summaries (quantile labels + _sum/_count).
  /// Non-[a-zA-Z0-9_] name characters become '_'.
  void WritePrometheus(std::FILE* out) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace vampos::obs
