#include "chaos/harness.h"

#include <utility>

#include "base/diag.h"

namespace vampos::chaos {

using apps::BuildStack;
using apps::Posix;
using apps::SimClient;
using apps::StackSpec;
using core::Runtime;
using core::RuntimeOptions;
using core::SchedPolicy;

DasHarness::DasHarness(const HarnessOptions& opts) {
  RuntimeOptions ro;
  ro.policy = SchedPolicy::kDependencyAware;
  ro.hang_threshold = opts.hang_threshold;
  ro.reinit_on_restore_failure = opts.reinit_on_restore_failure;
  ro.snapshot_mode = opts.snapshot_mode;
  ro.tracing = opts.tracing;
  rt_ = std::make_unique<Runtime>(ro);
  info_ = BuildStack(*rt_, platform_, rings_, StackSpec::Nginx());
  apps::BootAndMount(*rt_);
  px_ = std::make_unique<Posix>(*rt_);

  // Warm state that must survive every recovery: an open file with an
  // offset, and an established TCP connection served by an echo loop.
  rt_->SpawnApp("chaos-warm", [this] {
    fd_ = px_->Create("/chaos-state");
    px_->Write(fd_, "w");
  });
  rt_->RunUntilIdle();

  rt_->SpawnApp("chaos-server", [this] {
    const auto lfd = px_->Socket();
    px_->Bind(lfd, 80);
    px_->Listen(lfd);
    std::int64_t conn = -1;
    while (!stop_) {
      if (conn < 0) conn = px_->Accept(lfd);
      if (conn >= 0) {
        auto r = px_->Recv(conn, 1024);
        if (r.ok() && !r.data.empty()) px_->Send(conn, r.data);
      }
      rt_->ParkApp();
    }
  });
  rt_->RunUntilIdle();

  client_ = std::make_unique<SimClient>(&platform_.net, 80);
  Reconnect();

  for (const char* name : {"vfs", "9pfs", "lwip", "netdev", "process"}) {
    const ComponentId id = rt_->FindComponent(name);
    if (id != kComponentNone) targets_.push_back(id);
  }
}

DasHarness::~DasHarness() {
  stop_ = true;
  rt_->UnparkApps();
  rt_->RunUntilIdle();
}

void DasHarness::Reconnect() {
  conn_ = client_->Connect();
  for (int i = 0; i < 16 && !client_->Established(conn_); ++i) {
    client_->Poll();
    rt_->UnparkApps();
    rt_->RunUntilIdle();
    client_->Poll();
  }
}

std::string DasHarness::TargetName(std::size_t i) const {
  return rt_->component(targets_[i]).name();
}

std::int64_t DasHarness::HostFileSize() const {
  auto content = platform_.ninep.ReadFile("/chaos-state");
  return content.has_value() ? static_cast<std::int64_t>(content->size()) : -1;
}

bool DasHarness::TrafficRound() {
  // All three paths run interleaved in the same pump — the file app and the
  // echo server are concurrent fibers — so a burst of faults on independent
  // paths (say VFS and LWIP) fires while both requests are in flight and
  // their recoveries genuinely overlap.
  if (client_->Broken(conn_) || client_->Closed(conn_)) Reconnect();
  client_->Send(conn_, "ping");

  // File + process path. Each round appends exactly one byte; the host file
  // size doubles as an end-to-end exactly-once probe.
  std::int64_t pid = -1;
  std::int64_t wrote = -1;
  rt_->SpawnApp("chaos-file", [&, this] {
    pid = px_->Getpid();
    wrote = px_->Write(fd_, "x");
  });

  // A recovery in flight delays replies (requests queue while a component
  // is down), so pump generously before declaring the round lost.
  std::string got;
  for (int i = 0; i < 24 && (got.empty() || wrote < 0); ++i) {
    client_->Poll();
    rt_->UnparkApps();
    rt_->RunUntilIdle();
    client_->Poll();
    got += client_->TakeReceived(conn_);
  }

  const bool ok = pid >= 0 && wrote >= 0 && got == "ping" &&
                  !client_->Broken(conn_);
  rounds_++;
  if (ok) rounds_ok_++;
  round_results_.push_back(ok);
  return ok;
}

}  // namespace vampos::chaos
