// DasHarness: a live Nginx-style VampOS stack (PROCESS SYSINFO USER NETDEV
// TIMER VFS 9PFS LWIP VIRTIO) under dependency-aware scheduling, with real
// file and network traffic driven from the host side. The chaos campaign
// engine injects faults into it and measures what the application observes;
// tests reuse it wherever they need "a realistic stack under load" without
// re-wiring the boot sequence.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/netclient.h"
#include "apps/posix.h"
#include "apps/stack.h"
#include "core/runtime.h"
#include "uk/platform.h"

namespace vampos::chaos {

struct HarnessOptions {
  /// Hang-detector threshold. Campaign hangs park a handler for this long
  /// of *real* time, so keep it small: a few ms per injected hang. Large
  /// enough that a sanitizer-slowed recovery pause on the message thread
  /// cannot age a healthy in-flight handler past the threshold.
  Nanos hang_threshold = 5 * kMillisecond;
  /// Rebuild-from-Init fallback for corrupt checkpoints, so every fault
  /// kind in the campaign stays recoverable.
  bool reinit_on_restore_failure = true;
  /// Checkpoint engine for the stack's stateful components.
  mem::SnapshotMode snapshot_mode = mem::SnapshotMode::kIncremental;
  /// Flight recorder on, so campaigns can export a vamptrace-readable
  /// post-mortem of what recovery did.
  bool tracing = true;
};

class DasHarness {
 public:
  explicit DasHarness(const HarnessOptions& opts = {});
  ~DasHarness();
  DasHarness(const DasHarness&) = delete;
  DasHarness& operator=(const DasHarness&) = delete;

  [[nodiscard]] core::Runtime& rt() { return *rt_; }
  [[nodiscard]] const apps::StackInfo& info() const { return info_; }

  /// One round of live traffic across all three component paths: a getpid
  /// (PROCESS), a file append (VFS -> 9PFS -> VIRTIO), and a TCP echo
  /// (LWIP -> NETDEV -> VIRTIO). Returns true iff every path produced the
  /// correct result this round — the campaign's availability sample.
  bool TrafficRound();

  /// Rounds driven so far and how many were fully correct.
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t rounds_ok() const { return rounds_ok_; }
  /// Per-round success flags, in order (the availability curve's raw data).
  [[nodiscard]] const std::vector<bool>& round_results() const {
    return round_results_;
  }

  /// Components on the traffic paths that a campaign may fault: the same
  /// set the fault-matrix test exercises.
  [[nodiscard]] const std::vector<ComponentId>& targets() const {
    return targets_;
  }
  [[nodiscard]] std::string TargetName(std::size_t i) const;

  /// The file every round appends one byte to grows monotonically; its
  /// host-visible size is a cheap end-to-end consistency probe.
  [[nodiscard]] std::int64_t HostFileSize() const;

 private:
  void Reconnect();

  uk::Platform platform_;
  uk::HostRingView rings_;
  std::unique_ptr<core::Runtime> rt_;
  apps::StackInfo info_;
  std::unique_ptr<apps::Posix> px_;
  std::unique_ptr<apps::SimClient> client_;
  std::vector<ComponentId> targets_;
  std::int64_t fd_ = -1;
  int conn_ = -1;
  bool stop_ = false;
  std::uint64_t rounds_ = 0;
  std::uint64_t rounds_ok_ = 0;
  std::vector<bool> round_results_;
};

}  // namespace vampos::chaos
