#include "mem/arena.h"

#include <sys/mman.h>

#include <new>
#include <utility>

namespace vampos::mem {

namespace {
std::size_t RoundUpToPage(std::size_t n) {
  return (n + Arena::kPageSize - 1) / Arena::kPageSize * Arena::kPageSize;
}

std::byte* MapZeroedPages(std::size_t size) {
  // Anonymous pages read as zero and take memory only when first written,
  // so a large reservation costs nothing until the component uses it.
  void* p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  // Keep that cost per 4 KiB page where huge pages are on by default.
  madvise(p, size, MADV_NOHUGEPAGE);
  return static_cast<std::byte*>(p);
}
}  // namespace

Arena::Arena(std::size_t size, std::string name)
    : size_(RoundUpToPage(size)),
      name_(std::move(name)),
      base_(MapZeroedPages(size_)) {}

Arena::~Arena() { munmap(base_, size_); }

void Arena::EnableDirtyTracking() {
  if (tracker_ != nullptr) return;
  tracker_ = std::make_unique<DirtyTracker>(size_);
  // Anything written before tracking began is untracked by definition.
  tracker_->MarkAll();
}

}  // namespace vampos::mem
