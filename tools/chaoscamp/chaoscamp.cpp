// chaoscamp — seeded fault-injection campaign runner for the VampOS stack.
//
// Builds a live DasHarness (Nginx-style stack under dependency-aware
// scheduling), generates a deterministic fault plan from the seed, fires it
// burst by burst under real file + network traffic, and writes the scored
// report.
//
// Usage: chaoscamp [options]
//   --seed N            campaign seed (default 1; VAMPOS_CHAOS_SEED overrides)
//   --faults N          planned faults (default 200)
//   --burst-percent P   percent of bursts with 2-3 simultaneous faults (35)
//   --windows N         availability windows in the report (10)
//   --hang-weight W     hang share out of 100 (8; hangs cost real wall time)
//   --floor F           minimum per-window availability gate, 0..1 (0.0)
//   --out PATH          write the JSON report
//   --curve PATH        write the availability curve CSV
//   --trace PATH        write the flight-recorder trace (vamptrace input)
//   --adaptive          enable health telemetry + metric-driven rejuvenation
//                       (report gains rejuvenation counts and per-window
//                       worst-health-score)
//   --age-rounds N      adaptive aging phase: leak arena bytes from one
//                       component each round until the scheduler rejuvenates
//                       it (0 = off)
//   --age-bytes N       bytes leaked per aging round (4096)
//   --age-target NAME   component to age (default: first harness target)
//   --metrics PATH      write the final metrics snapshot as JSON (vampstat
//                       input)
//
// Exit status: 0 if the campaign is clean (every fired fault recovered, no
// fail-stop, no replay divergence) and every window meets the floor;
// 1 otherwise; 2 on usage errors, including a numeric flag whose value is
// not wholly a number in the flag's range.

#include <charconv>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <system_error>

#include "chaos/chaos.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: chaoscamp [--seed N] [--faults N] [--burst-percent P]\n"
               "                 [--windows N] [--hang-weight W] [--floor F]\n"
               "                 [--out PATH] [--curve PATH] [--trace PATH]\n"
               "                 [--adaptive]\n"
               "                 [--age-rounds N] [--age-bytes N]\n"
               "                 [--age-target NAME] [--metrics PATH]\n");
}

/// Parses the value of numeric flag `flag`. The whole string must be one
/// number in [lo, hi] (NaN fails the range test); anything else is a usage
/// error, so a typo can never silently become 0 and switch a gate off.
template <typename T>
T ParseNumber(const std::string& flag, const char* text, T lo, T hi) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    std::ostringstream range;
    range << lo << ".." << hi;
    std::fprintf(stderr,
                 "chaoscamp: bad value '%s' for %s (want a number in %s)\n",
                 text, flag.c_str(), range.str().c_str());
    std::exit(2);
  }
  return value;
}

double Us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

bool WriteWith(const char* path, const char* what,
               void (vampos::chaos::Report::*writer)(std::FILE*) const,
               const vampos::chaos::Report& report) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "chaoscamp: cannot open %s for %s\n", path, what);
    return false;
  }
  (report.*writer)(f);
  std::fclose(f);
  std::printf("chaoscamp: wrote %s to %s\n", what, path);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  vampos::chaos::CampaignSpec spec;
  double floor = 0.0;
  const char* out_path = nullptr;
  const char* curve_path = nullptr;
  const char* trace_path = nullptr;
  const char* metrics_path = nullptr;
  const char* age_target_name = nullptr;
  constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();
  constexpr auto kSizeMax = std::numeric_limits<std::size_t>::max();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "chaoscamp: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // Plan and window tables are allocated up front, so their sizes are
    // capped well below what would exhaust memory.
    if (arg == "--seed") {
      spec.seed = ParseNumber<std::uint64_t>(arg, next(), 0, kU64Max);
    } else if (arg == "--faults") {
      spec.faults = ParseNumber<std::size_t>(arg, next(), 0, 1000000);
    } else if (arg == "--burst-percent") {
      spec.burst_percent = ParseNumber(arg, next(), 0, 100);
    } else if (arg == "--windows") {
      spec.windows = ParseNumber<std::size_t>(arg, next(), 1, 100000);
    } else if (arg == "--hang-weight") {
      spec.hang_weight = ParseNumber(arg, next(), 0, 100);
    } else if (arg == "--floor") {
      floor = ParseNumber(arg, next(), 0.0, 1.0);
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--curve") {
      curve_path = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--adaptive") {
      spec.adaptive = true;
    } else if (arg == "--age-rounds") {
      spec.age_rounds = ParseNumber<std::size_t>(arg, next(), 0, kSizeMax);
    } else if (arg == "--age-bytes") {
      spec.age_bytes = ParseNumber<std::size_t>(arg, next(), 1, kSizeMax);
    } else if (arg == "--age-target") {
      age_target_name = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "chaoscamp: unknown option %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  vampos::chaos::DasHarness harness;
  if (age_target_name != nullptr) {
    bool found = false;
    for (std::size_t t = 0; t < harness.targets().size(); ++t) {
      if (harness.TargetName(t) == age_target_name) {
        spec.age_target = t;
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "chaoscamp: unknown --age-target %s\n",
                   age_target_name);
      return 2;
    }
  }
  vampos::chaos::Campaign campaign(harness, spec);
  const vampos::chaos::Report report = campaign.Run();

  std::printf(
      "chaoscamp: seed=%" PRIu64
      " faults=%zu fired=%zu recovered=%zu unrecovered=%zu reinitialized=%zu\n",
      report.seed, report.faults_planned, report.faults_fired,
      report.recovered, report.unrecovered, report.reinitialized);
  std::printf("reboots=%" PRIu64 " recovery_failures=%" PRIu64
              " replay_divergence=%" PRIu64 "\n",
              report.reboots, report.recovery_failures,
              report.replay_divergence);
  std::printf("concurrency: peak=%zu overlapped_bursts=%zu\n",
              report.peak_concurrent_recoveries, report.overlapped_bursts);
  if (report.adaptive) {
    std::printf("adaptive: rejuvenations=%" PRIu64 " healthy_skips=%" PRIu64
                " peak_score=%.2f\n",
                report.rejuvenations, report.healthy_skips,
                report.peak_health_score);
    if (report.aging_rounds > 0) {
      std::printf("aging: target=%s rounds=%" PRIu64
                  " rounds_to_rejuvenate=%lld offtarget_reboots=%" PRIu64
                  "\n",
                  report.aged_target.c_str(), report.aging_rounds,
                  static_cast<long long>(report.aging_rounds_to_rejuvenate),
                  report.aging_offtarget_reboots);
    }
  }
  std::printf("mttr: p50=%.1fus p95=%.1fus max=%.1fus\n",
              Us(report.mttr_p50_ns), Us(report.mttr_p95_ns),
              Us(report.mttr_max_ns));
  std::printf("availability: min=%.4f over %zu windows\n",
              report.min_availability(), report.windows.size());
  for (std::size_t w = 0; w < report.windows.size(); ++w) {
    const auto& win = report.windows[w];
    std::printf("  window %zu: rounds=%" PRIu64 " ok=%" PRIu64
                " availability=%.4f recoveries=%" PRIu64 " score=%.2f\n",
                w, win.rounds, win.ok, win.availability(), win.recoveries,
                win.worst_score);
  }

  if (out_path != nullptr &&
      !WriteWith(out_path, "report", &vampos::chaos::Report::WriteJson,
                 report)) {
    return 2;
  }
  if (curve_path != nullptr &&
      !WriteWith(curve_path, "availability curve",
                 &vampos::chaos::Report::WriteCurveCsv, report)) {
    return 2;
  }
  if (trace_path != nullptr) {
    if (harness.rt().recorder().WriteChromeTrace(trace_path)) {
      std::printf("chaoscamp: wrote trace to %s\n", trace_path);
    } else {
      std::fprintf(stderr, "chaoscamp: cannot write trace to %s\n",
                   trace_path);
      return 2;
    }
  }
  if (metrics_path != nullptr) {
    std::FILE* f = std::fopen(metrics_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "chaoscamp: cannot open %s for metrics\n",
                   metrics_path);
      return 2;
    }
    harness.rt().metrics().WriteJson(f);
    std::fclose(f);
    std::printf("chaoscamp: wrote metrics to %s\n", metrics_path);
  }

  if (!report.clean()) {
    std::printf("chaoscamp: FAIL (%zu unrecovered, fail_stopped=%d, "
                "replay_divergence=%" PRIu64 ")\n",
                report.unrecovered, report.fail_stopped ? 1 : 0,
                report.replay_divergence);
    return 1;
  }
  if (report.min_availability() < floor) {
    std::printf("chaoscamp: FAIL (min availability %.4f below floor %.4f)\n",
                report.min_availability(), floor);
    return 1;
  }
  std::printf("chaoscamp: PASS\n");
  return 0;
}
