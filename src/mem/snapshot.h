// Checkpoint engine: snapshots of component arenas at page granularity.
//
// Implements the paper's checkpoint-based initialization (§V-E): after a
// component finishes its boot routine, the runtime captures its arena; a
// reboot restores that post-init image instead of re-running shutdown/boot
// routines, which would have side effects on other running components.
//
// The snapshot cost is what bounds how aggressively the runtime can reboot
// (paper Fig 6: snapshot restoration dominates a stateful reboot), so the
// engine works at fixed 4 KiB page granularity with per-page content hashes:
//
//   * Capture      — hashes every page once; zero pages are elided (no
//                    storage) and non-zero pages are interned into a shared
//                    read-only PageBaseline, so N components with mostly-
//                    identical post-init images hold one pooled copy.
//   * Recapture    — incremental re-snapshot (what periodic rejuvenation
//                    refreshes hit): re-hashes the live arena and copies
//                    only pages whose hash changed since the last capture.
//   * Restore      — diff-restore: hashes the live arena, compares against
//                    the checkpoint hash per page, and copies only divergent
//                    pages, leaving clean cachelines untouched.
//
// The legacy full-arena memcpy engine is kept as SnapshotMode::kFullCopy
// (selected via RuntimeOptions) and verified byte-equivalent by tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/clock.h"
#include "base/types.h"
#include "mem/arena.h"

namespace vampos::mem {

enum class SnapshotMode { kFullCopy, kIncremental };

/// Accounting for one capture/recapture/restore operation. Bytes and pages
/// reflect what the operation actually touched — the whole point of the
/// incremental engine is that these scale with the delta, not the arena.
struct SnapshotStats {
  std::size_t pages_total = 0;   // pages covered by the arena
  std::size_t pages_dirty = 0;   // pages copied (divergent / newly stored)
  std::size_t pages_zero = 0;    // zero pages elided from storage
  std::size_t pages_shared = 0;  // pages deduplicated against the baseline
  std::size_t pages_skipped = 0;  // pages never touched (tracker said clean)
  std::size_t audit_misses = 0;  // pages changed without a dirty bit set
  std::size_t bytes_copied = 0;  // bytes memcpy'd/memset by this operation
  bool dirty_fast = false;       // op consumed the dirty bitmap (O(dirty))
  bool audited = false;          // randomized audit full-scan ran
  Nanos hash_ns = 0;             // page-hash pass
  Nanos copy_ns = 0;             // classification + copy pass
};

/// Content-addressed pool of read-only 4 KiB pages shared by every
/// checkpoint of one runtime. Interning verifies candidate pages byte-wise
/// against same-hash pool entries, so hash collisions chain instead of
/// aliasing. Pages are never evicted: the pool holds post-init images whose
/// lifetime is the runtime's.
class PageBaseline {
 public:
  PageBaseline() = default;
  PageBaseline(const PageBaseline&) = delete;
  PageBaseline& operator=(const PageBaseline&) = delete;

  /// Returns a stable pointer to a pooled copy of `page` (4 KiB). Sets
  /// `*reused` when an identical page was already pooled (dedup hit — no
  /// copy happened).
  const std::byte* Intern(const std::byte* page, std::uint64_t hash,
                          bool* reused);

  [[nodiscard]] std::size_t pages() const { return pooled_; }
  [[nodiscard]] std::size_t bytes() const {
    return pooled_ * Arena::kPageSize;
  }
  /// Dedup hits: interned pages served from an existing pooled copy.
  [[nodiscard]] std::uint64_t hits() const { return hits_; }

 private:
  // hash -> pooled pages with that hash (collision chain, memcmp-verified).
  std::unordered_map<std::uint64_t, std::vector<std::unique_ptr<std::byte[]>>>
      pool_;
  std::size_t pooled_ = 0;
  std::uint64_t hits_ = 0;
};

/// Knobs for one snapshot operation, assembled by the runtime from
/// RuntimeOptions (mode) and its shared baseline.
struct SnapshotConfig {
  SnapshotMode mode = SnapshotMode::kIncremental;
  /// Shared read-only page pool; nullptr keeps every stored page private.
  PageBaseline* baseline = nullptr;
  /// Clock for the hash/copy phase split; nullptr leaves *_ns at zero.
  const Clock* clock = nullptr;
  /// Consume per-arena dirty bitmaps (Arena::EnableDirtyTracking) so
  /// Recapture/Restore touch only flagged pages. Requires kIncremental.
  bool dirty_tracking = false;
  /// Audit sampling for the fast path: 0 = never, 1 = every operation,
  /// N = roughly 1-in-N operations full-hash-scan anyway and check that no
  /// page changed without its dirty bit set.
  std::uint32_t audit_rate = 0;
  /// On an audit miss: Fatal (fail-stop, for debug builds) when true, or
  /// count the miss and resync the page when false.
  bool audit_fail_stop = false;
};

class Snapshot {
 public:
  Snapshot() = default;

  /// Captures the full arena image with the legacy full-copy engine.
  /// O(arena size) on every capture and restore.
  static Snapshot Capture(const Arena& arena);

  /// Captures the arena under `config`: page-granular with zero-page
  /// elision and baseline sharing for kIncremental, a plain full copy for
  /// kFullCopy.
  static Snapshot Capture(const Arena& arena, const SnapshotConfig& config,
                          SnapshotStats* stats = nullptr);

  /// Incremental re-snapshot into this checkpoint: re-hashes the arena and
  /// copies only pages whose hash changed since the last (re)capture. A
  /// full-copy snapshot re-copies everything. Errors on size mismatch.
  [[nodiscard]] Status Recapture(const Arena& arena,
                                 const SnapshotConfig& config,
                                 SnapshotStats* stats = nullptr);

  /// Restores the image in place. Incremental snapshots diff-restore:
  /// only pages whose live hash diverges from the checkpoint are written.
  /// A size mismatch (corrupt/foreign checkpoint) is an error status — the
  /// caller owns turning it into a component fault, not a process abort.
  [[nodiscard]] Status Restore(Arena& arena,
                               const SnapshotConfig& config = {},
                               SnapshotStats* stats = nullptr) const;

  [[nodiscard]] bool empty() const {
    return bytes_.empty() && pages_.empty();
  }
  /// Logical bytes covered by the checkpoint (the captured arena's size).
  [[nodiscard]] std::size_t size_bytes() const;
  /// Bytes of private storage this snapshot actually holds — excludes
  /// zero-elided pages and pages served by the shared baseline.
  [[nodiscard]] std::size_t stored_bytes() const;
  [[nodiscard]] SnapshotMode mode() const { return mode_; }
  [[nodiscard]] std::size_t page_count() const { return pages_.size(); }

  /// 64-bit content hash of one 4 KiB page; sets `*is_zero` when the page
  /// is all zeroes (detected in the same pass).
  static std::uint64_t HashPage(const std::byte* page, bool* is_zero);

  /// Hash actually used by the engine: the test override when one is
  /// installed, else HashPage. The override must still report `*is_zero`
  /// truthfully — zero-page elision relies on it.
  static std::uint64_t PageHash(const std::byte* page, bool* is_zero);

  using PageHashFn = std::uint64_t (*)(const std::byte* page, bool* is_zero);
  /// Test seam: overrides the page hash so tests can force collisions
  /// (nullptr restores the real hash). Returns the previous override so
  /// callers can RAII-restore it.
  static PageHashFn SetPageHashForTest(PageHashFn fn);

 private:
  enum class PageSource : std::uint8_t { kZero, kBaseline, kPrivate };

  struct PageEntry {
    std::uint64_t hash = 0;
    PageSource src = PageSource::kZero;
    std::uint32_t slot = 0;            // private_pages_ index (kPrivate)
    const std::byte* shared = nullptr;  // pooled page (kBaseline)
  };

  /// Checkpoint content of page `i`; nullptr means "all zeroes".
  [[nodiscard]] const std::byte* PageData(std::size_t i) const;
  /// A writable private slot for page `i`, reusing its current slot when it
  /// already owns one.
  std::byte* WritablePage(std::size_t i);
  void ReleasePage(std::size_t i);

  /// True when the arena's tracker is the one this snapshot last
  /// synchronized with and nobody cleared it since — the precondition for
  /// trusting its bits as "only these pages may differ".
  [[nodiscard]] const DirtyTracker* SyncedTracker(
      const Arena& arena, const SnapshotConfig& config) const;
  /// Records checkpoint == arena: clears the tracker and remembers the
  /// (tracker, generation) pair the fast path must match. Mutable-only
  /// bookkeeping, so Restore can stay const.
  void MarkTrackerSynced(const Arena& arena,
                         const SnapshotConfig& config) const;

  static PageHashFn hash_override_;

  SnapshotMode mode_ = SnapshotMode::kFullCopy;
  std::vector<std::byte> bytes_;  // kFullCopy image

  // kIncremental representation.
  std::size_t logical_bytes_ = 0;
  std::vector<PageEntry> pages_;
  std::vector<std::unique_ptr<std::byte[]>> private_pages_;
  std::vector<std::uint32_t> free_slots_;

  // Dirty-tracking synchronization point. A generation mismatch (another
  // snapshot consumed the bitmap, or the checkpoint was swapped out) makes
  // the engine fall back to the full hash scan instead of trusting bits it
  // did not synchronize against.
  mutable const DirtyTracker* synced_tracker_ = nullptr;
  mutable std::uint64_t synced_gen_ = 0;
};

}  // namespace vampos::mem
