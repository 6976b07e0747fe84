#include "mem/snapshot.h"

#include <cstring>
#include <string>
#include <utility>

#include "base/panic.h"

namespace vampos::mem {

namespace {

constexpr std::size_t kPage = Arena::kPageSize;

/// Mixes one 64-bit lane into the running hash. xor-multiply keeps the
/// chain positionally sensitive (swapping two lanes changes the result).
inline std::uint64_t MixLane(std::uint64_t h, std::uint64_t lane) {
  h ^= lane;
  h *= 0x100000001b3ull;  // FNV-1a prime, applied to 8-byte lanes
  return h;
}

/// splitmix64 finalizer: avalanches the lane chain so single-bit page
/// differences flip about half the hash bits.
inline std::uint64_t Finalize(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

/// Exact all-zeroes check for one page (no hashing involved).
bool IsZeroPage(const std::byte* page) {
  std::uint64_t acc = 0;
  for (std::size_t off = 0; off < kPage; off += sizeof(std::uint64_t)) {
    std::uint64_t lane;
    std::memcpy(&lane, page + off, sizeof(lane));
    acc |= lane;
  }
  return acc == 0;
}

/// Page-hash pass: hashes pages [0, n_pages) of `base` into the
/// caller-provided hashes/zeros arrays.
void HashPages(const std::byte* base, std::size_t n_pages,
               std::uint64_t* hashes, std::uint8_t* zeros) {
  for (std::size_t i = 0; i < n_pages; ++i) {
    bool is_zero = false;
    hashes[i] = Snapshot::PageHash(base + i * kPage, &is_zero);
    zeros[i] = is_zero ? 1 : 0;
  }
}

inline Nanos NowOrZero(const Clock* clock) {
  return clock != nullptr ? clock->Now() : 0;
}

}  // namespace

std::uint64_t Snapshot::HashPage(const std::byte* page, bool* is_zero) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  std::uint64_t acc = 0;
  for (std::size_t off = 0; off < kPage; off += sizeof(std::uint64_t)) {
    std::uint64_t lane;
    std::memcpy(&lane, page + off, sizeof(lane));
    acc |= lane;
    h = MixLane(h, lane);
  }
  if (is_zero != nullptr) *is_zero = acc == 0;
  return Finalize(h);
}

Snapshot::PageHashFn Snapshot::hash_override_ = nullptr;

std::uint64_t Snapshot::PageHash(const std::byte* page, bool* is_zero) {
  return hash_override_ != nullptr ? hash_override_(page, is_zero)
                                   : HashPage(page, is_zero);
}

Snapshot::PageHashFn Snapshot::SetPageHashForTest(PageHashFn fn) {
  PageHashFn prev = hash_override_;
  hash_override_ = fn;
  return prev;
}

const DirtyTracker* Snapshot::SyncedTracker(const Arena& arena,
                                            const SnapshotConfig& config) const {
  if (!config.dirty_tracking) return nullptr;
  const DirtyTracker* t = arena.dirty_tracker();
  if (t == nullptr || t != synced_tracker_ || t->generation() != synced_gen_) {
    return nullptr;
  }
  return t;
}

void Snapshot::MarkTrackerSynced(const Arena& arena,
                                 const SnapshotConfig& config) const {
  if (!config.dirty_tracking) return;
  DirtyTracker* t = arena.dirty_tracker();
  if (t == nullptr) return;
  t->Clear();
  synced_tracker_ = t;
  synced_gen_ = t->generation();
}

// ------------------------------------------------------------ PageBaseline

const std::byte* PageBaseline::Intern(const std::byte* page,
                                      std::uint64_t hash, bool* reused) {
  auto& chain = pool_[hash];
  for (const auto& pooled : chain) {
    if (std::memcmp(pooled.get(), page, kPage) == 0) {
      hits_++;
      if (reused != nullptr) *reused = true;
      return pooled.get();
    }
  }
  auto copy = std::make_unique<std::byte[]>(kPage);
  std::memcpy(copy.get(), page, kPage);
  chain.push_back(std::move(copy));
  pooled_++;
  if (reused != nullptr) *reused = false;
  return chain.back().get();
}

// ---------------------------------------------------------------- Snapshot

Snapshot Snapshot::Capture(const Arena& arena) {
  Snapshot snap;
  snap.mode_ = SnapshotMode::kFullCopy;
  snap.bytes_.resize(arena.size());
  std::memcpy(snap.bytes_.data(), arena.base(), arena.size());
  return snap;
}

Snapshot Snapshot::Capture(const Arena& arena, const SnapshotConfig& config,
                           SnapshotStats* stats) {
  SnapshotStats local;
  if (config.mode == SnapshotMode::kFullCopy) {
    const Nanos t0 = NowOrZero(config.clock);
    Snapshot snap = Capture(arena);
    local.pages_total = arena.size() / kPage;
    local.pages_dirty = local.pages_total;
    local.bytes_copied = arena.size();
    local.copy_ns = NowOrZero(config.clock) - t0;
    if (stats != nullptr) *stats = local;
    return snap;
  }

  Snapshot snap;
  snap.mode_ = SnapshotMode::kIncremental;
  snap.logical_bytes_ = arena.size();
  const std::size_t n = arena.size() / kPage;
  snap.pages_.resize(n);
  local.pages_total = n;

  std::vector<std::uint64_t> hashes(n);
  std::vector<std::uint8_t> zeros(n);
  const Nanos t0 = NowOrZero(config.clock);
  HashPages(arena.base(), n, hashes.data(), zeros.data());
  const Nanos t1 = NowOrZero(config.clock);
  local.hash_ns = t1 - t0;

  for (std::size_t i = 0; i < n; ++i) {
    PageEntry& e = snap.pages_[i];
    e.hash = hashes[i];
    if (zeros[i] != 0) {
      e.src = PageSource::kZero;
      local.pages_zero++;
      continue;
    }
    const std::byte* page = arena.base() + i * kPage;
    if (config.baseline != nullptr) {
      bool reused = false;
      e.shared = config.baseline->Intern(page, hashes[i], &reused);
      e.src = PageSource::kBaseline;
      if (reused) {
        local.pages_shared++;
      } else {
        local.pages_dirty++;
        local.bytes_copied += kPage;
      }
    } else {
      std::memcpy(snap.WritablePage(i), page, kPage);
      local.pages_dirty++;
      local.bytes_copied += kPage;
    }
  }
  local.copy_ns = NowOrZero(config.clock) - t1;
  // Checkpoint now equals the arena: start a fresh dirty window.
  snap.MarkTrackerSynced(arena, config);
  if (stats != nullptr) *stats = local;
  return snap;
}

Status Snapshot::Recapture(const Arena& arena, const SnapshotConfig& config,
                           SnapshotStats* stats) {
  if (empty()) {
    *this = Capture(arena, config, stats);
    return Status::Ok();
  }
  if (size_bytes() != arena.size()) {
    return Status::Error(Errno::kInval,
                         "Snapshot::Recapture size mismatch: snapshot " +
                             std::to_string(size_bytes()) + " vs arena '" +
                             arena.name() + "' " +
                             std::to_string(arena.size()));
  }
  SnapshotStats local;
  if (mode_ == SnapshotMode::kFullCopy) {
    const Nanos t0 = NowOrZero(config.clock);
    std::memcpy(bytes_.data(), arena.base(), arena.size());
    local.pages_total = arena.size() / kPage;
    local.pages_dirty = local.pages_total;
    local.bytes_copied = arena.size();
    local.copy_ns = NowOrZero(config.clock) - t0;
    if (stats != nullptr) *stats = local;
    return Status::Ok();
  }

  const std::size_t n = pages_.size();
  local.pages_total = n;

  // Exact clean test for one page against the checkpoint entry — byte-wise,
  // never a bare hash comparison (64-bit collisions alias divergent pages).
  auto page_clean = [&](std::size_t i) {
    const PageEntry& e = pages_[i];
    const std::byte* live = arena.base() + i * kPage;
    if (e.src == PageSource::kZero) return IsZeroPage(live);
    return std::memcmp(live, PageData(i), kPage) == 0;
  };
  // Re-stores page `i` from the live arena; e.hash must already be updated.
  auto store_page = [&](std::size_t i, std::uint64_t hash, bool now_zero) {
    PageEntry& e = pages_[i];
    local.pages_dirty++;
    e.hash = hash;
    if (now_zero) {
      ReleasePage(i);
      local.pages_zero++;
      return;
    }
    // Dirtied pages go to private storage: live mutated state is unlikely
    // to be shared across components, so it skips the baseline pool.
    std::memcpy(WritablePage(i), arena.base() + i * kPage, kPage);
    local.bytes_copied += kPage;
  };
  auto count_clean = [&](std::size_t i) {
    const PageEntry& e = pages_[i];
    if (e.src == PageSource::kZero) local.pages_zero++;
    if (e.src == PageSource::kBaseline) local.pages_shared++;
  };

  const DirtyTracker* tracker = SyncedTracker(arena, config);
  const bool audit = tracker != nullptr &&
                     arena.dirty_tracker()->RollAudit(config.audit_rate);
  if (tracker != nullptr && !audit) {
    // Fast path: only pages with a dirty bit are even read. A flagged page
    // whose bytes still match the checkpoint (e.g. allocator metadata that
    // round-tripped) costs one memcmp; a changed page is re-hashed and
    // re-stored.
    local.dirty_fast = true;
    const Nanos t0 = NowOrZero(config.clock);
    for (std::size_t i = 0; i < n; ++i) {
      if (!tracker->Test(i)) {
        local.pages_skipped++;
        count_clean(i);
        continue;
      }
      if (page_clean(i)) {
        count_clean(i);
        continue;
      }
      bool now_zero = false;
      const std::uint64_t h = PageHash(arena.base() + i * kPage, &now_zero);
      store_page(i, h, now_zero);
    }
    local.copy_ns = NowOrZero(config.clock) - t0;
  } else {
    // Full hash scan: either dirty tracking is off/desynced, or a sampled
    // audit deliberately re-scans everything to catch untracked writes.
    std::vector<std::uint64_t> hashes(n);
    std::vector<std::uint8_t> zeros(n);
    const Nanos t0 = NowOrZero(config.clock);
    HashPages(arena.base(), n, hashes.data(), zeros.data());
    const Nanos t1 = NowOrZero(config.clock);
    local.hash_ns = t1 - t0;
    local.audited = audit;

    for (std::size_t i = 0; i < n; ++i) {
      const PageEntry& e = pages_[i];
      const bool now_zero = zeros[i] != 0;
      const bool was_zero = e.src == PageSource::kZero;
      if (hashes[i] == e.hash && now_zero == was_zero && page_clean(i)) {
        count_clean(i);
        continue;  // clean page: the checkpoint already holds these bytes
      }
      if (audit && !tracker->Test(i)) {
        local.audit_misses++;
        if (config.audit_fail_stop) {
          Fatal("snapshot audit: page %zu of arena '%s' changed without a "
                "dirty bit (untracked write)",
                i, arena.name().c_str());
        }
      }
      store_page(i, hashes[i], now_zero);
    }
    local.copy_ns = NowOrZero(config.clock) - t1;
  }
  // Checkpoint now equals the arena again: consume the bits and open a
  // fresh dirty window.
  MarkTrackerSynced(arena, config);
  if (stats != nullptr) *stats = local;
  return Status::Ok();
}

Status Snapshot::Restore(Arena& arena, const SnapshotConfig& config,
                         SnapshotStats* stats) const {
  if (size_bytes() != arena.size()) {
    return Status::Error(Errno::kInval,
                         "Snapshot::Restore size mismatch: snapshot " +
                             std::to_string(size_bytes()) + " vs arena '" +
                             arena.name() + "' " +
                             std::to_string(arena.size()));
  }
  SnapshotStats local;
  if (mode_ == SnapshotMode::kFullCopy) {
    const Nanos t0 = NowOrZero(config.clock);
    std::memcpy(arena.base(), bytes_.data(), bytes_.size());
    local.pages_total = bytes_.size() / kPage;
    local.pages_dirty = local.pages_total;
    local.bytes_copied = bytes_.size();
    local.copy_ns = NowOrZero(config.clock) - t0;
    if (stats != nullptr) *stats = local;
    return Status::Ok();
  }

  const std::size_t n = pages_.size();
  local.pages_total = n;

  // Byte-exact divergence test (never a bare hash comparison — a live page
  // whose hash collides with the checkpoint entry must still be restored).
  auto page_clean = [&](std::size_t i) {
    const PageEntry& e = pages_[i];
    const std::byte* live = arena.base() + i * kPage;
    if (e.src == PageSource::kZero) return IsZeroPage(live);
    return std::memcmp(live, PageData(i), kPage) == 0;
  };
  auto restore_page = [&](std::size_t i) {
    const PageEntry& e = pages_[i];
    local.pages_dirty++;
    std::byte* dst = arena.base() + i * kPage;
    if (e.src == PageSource::kZero) {
      std::memset(dst, 0, kPage);
    } else {
      std::memcpy(dst, PageData(i), kPage);
    }
    local.bytes_copied += kPage;
  };

  const DirtyTracker* tracker = SyncedTracker(arena, config);
  const bool audit = tracker != nullptr &&
                     arena.dirty_tracker()->RollAudit(config.audit_rate);
  if (tracker != nullptr && !audit) {
    // Fast path: unflagged pages are untouched since the last sync, so the
    // live bytes already match the checkpoint. No hashing at all — flagged
    // pages are memcmp'd and only true divergence is copied.
    local.dirty_fast = true;
    const Nanos t0 = NowOrZero(config.clock);
    for (std::size_t i = 0; i < n; ++i) {
      if (!tracker->Test(i)) {
        local.pages_skipped++;
        continue;
      }
      if (!page_clean(i)) restore_page(i);
    }
    local.copy_ns = NowOrZero(config.clock) - t0;
  } else {
    std::vector<std::uint64_t> hashes(n);
    std::vector<std::uint8_t> zeros(n);
    const Nanos t0 = NowOrZero(config.clock);
    HashPages(arena.base(), n, hashes.data(), zeros.data());
    const Nanos t1 = NowOrZero(config.clock);
    local.hash_ns = t1 - t0;
    local.audited = audit;

    for (std::size_t i = 0; i < n; ++i) {
      const PageEntry& e = pages_[i];
      const bool live_zero = zeros[i] != 0;
      const bool snap_zero = e.src == PageSource::kZero;
      if (hashes[i] == e.hash && live_zero == snap_zero && page_clean(i)) {
        continue;  // clean
      }
      if (audit && !tracker->Test(i)) {
        local.audit_misses++;
        if (config.audit_fail_stop) {
          Fatal("snapshot audit: page %zu of arena '%s' changed without a "
                "dirty bit (untracked write)",
                i, arena.name().c_str());
        }
      }
      restore_page(i);
    }
    local.copy_ns = NowOrZero(config.clock) - t1;
  }
  // The live arena now equals the checkpoint: consume the bits and open a
  // fresh dirty window.
  MarkTrackerSynced(arena, config);
  if (stats != nullptr) *stats = local;
  return Status::Ok();
}

std::size_t Snapshot::size_bytes() const {
  return mode_ == SnapshotMode::kFullCopy ? bytes_.size() : logical_bytes_;
}

std::size_t Snapshot::stored_bytes() const {
  if (mode_ == SnapshotMode::kFullCopy) return bytes_.size();
  return (private_pages_.size() - free_slots_.size()) * kPage;
}

const std::byte* Snapshot::PageData(std::size_t i) const {
  const PageEntry& e = pages_[i];
  switch (e.src) {
    case PageSource::kZero: return nullptr;
    case PageSource::kBaseline: return e.shared;
    case PageSource::kPrivate: return private_pages_[e.slot].get();
  }
  return nullptr;
}

std::byte* Snapshot::WritablePage(std::size_t i) {
  PageEntry& e = pages_[i];
  if (e.src == PageSource::kPrivate) return private_pages_[e.slot].get();
  e.shared = nullptr;
  if (!free_slots_.empty()) {
    e.slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    e.slot = static_cast<std::uint32_t>(private_pages_.size());
    private_pages_.push_back(std::make_unique<std::byte[]>(kPage));
  }
  e.src = PageSource::kPrivate;
  return private_pages_[e.slot].get();
}

void Snapshot::ReleasePage(std::size_t i) {
  PageEntry& e = pages_[i];
  if (e.src == PageSource::kPrivate) free_slots_.push_back(e.slot);
  e.src = PageSource::kZero;
  e.shared = nullptr;
  e.slot = 0;
}

}  // namespace vampos::mem
