// Fixed-address memory region backing one component's data/heap/stack.
//
// Everything a component owns lives inside its arena: allocator metadata,
// static state, heap objects. Because the arena never moves for the lifetime
// of the runtime, a checkpoint restore is a plain byte copy back into the
// same addresses and every internal pointer stays valid — the in-process
// analogue of the paper's QEMU component-unit memory snapshots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "mem/dirty_tracker.h"

namespace vampos::mem {

class Arena {
 public:
  /// Creates an arena of `size` bytes (rounded up to 4 KiB), zero-filled.
  /// The pages are mapped lazily: one costs memory only once written.
  /// Throws std::bad_alloc when the mapping fails.
  explicit Arena(std::size_t size, std::string name = "arena");
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  [[nodiscard]] std::byte* base() { return base_; }
  [[nodiscard]] const std::byte* base() const { return base_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// True if [ptr, ptr+len) lies fully inside this arena.
  [[nodiscard]] bool Contains(const void* ptr, std::size_t len = 1) const {
    auto p = reinterpret_cast<std::uintptr_t>(ptr);
    auto b = reinterpret_cast<std::uintptr_t>(base_);
    return p >= b && p + len <= b + size_;
  }

  /// Byte offset of an in-arena pointer.
  [[nodiscard]] std::size_t OffsetOf(const void* ptr) const {
    return static_cast<std::size_t>(static_cast<const std::byte*>(ptr) -
                                    base_);
  }

  [[nodiscard]] void* AtOffset(std::size_t off) { return base_ + off; }

  /// Attaches a write-time dirty-page tracker (idempotent). The tracker
  /// starts saturated: everything that happened before tracking began is
  /// conservatively dirty until the first snapshot synchronization clears it.
  void EnableDirtyTracking();

  /// The attached tracker, or nullptr when tracking is off.
  [[nodiscard]] DirtyTracker* dirty_tracker() const { return tracker_.get(); }

  /// Flags the pages covering [ptr, ptr+len) as dirty. No-op when tracking
  /// is off or the range falls outside the arena, so write paths can call
  /// it unconditionally. Const because marking is bookkeeping about arena
  /// content, not a mutation of it.
  void MarkDirty(const void* ptr, std::size_t len) const {
    if (tracker_ == nullptr || len == 0) return;
    if (!Contains(ptr, len)) return;
    tracker_->Mark(OffsetOf(ptr), len);
  }

  /// Conservative whole-arena taint for writes that bypass the sanctioned
  /// marking paths. No-op when tracking is off.
  void TaintAll() const {
    if (tracker_ != nullptr) tracker_->MarkAll();
  }

  /// Content generation. Bumped whenever the arena's bytes are replaced
  /// wholesale (checkpoint restore, re-Init): zero-copy views borrowed
  /// against an older generation must fault instead of silently reading
  /// the restored image.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  void BumpGeneration() { generation_++; }

  static constexpr std::size_t kPageSize = 4096;

 private:
  std::size_t size_;
  std::string name_;
  std::byte* base_;  // private anonymous mapping of size_ bytes
  std::unique_ptr<DirtyTracker> tracker_;
  std::uint64_t generation_ = 1;
};

}  // namespace vampos::mem
