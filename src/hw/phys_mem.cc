#include "hw/phys_mem.h"

#include <cstring>

#include "base/check.h"

namespace sg {

PhysMem::PhysMem(u64 bytes) : nframes_(PagesFor(bytes) + 1) {
  SG_CHECK(nframes_ >= 2);
  // No zero-init of the whole arena: AllocFrame zeroes each frame when it
  // is handed out (demand-zero semantics).
  arena_ = std::make_unique_for_overwrite<std::byte[]>(nframes_ * kPageSize);
  refcount_.assign(nframes_, 0);
  free_list_.reserve(nframes_ - 1);
  // Lowest-numbered frames allocated first: push in reverse.
  for (u64 pfn = nframes_ - 1; pfn >= 1; --pfn) {
    free_list_.push_back(static_cast<pfn_t>(pfn));
  }
}

Result<pfn_t> PhysMem::AllocFrame() {
  auto pfn = AllocFrameForOverwrite();
  if (pfn.ok()) {
    std::memset(FrameData(pfn.value()), 0, kPageSize);
  }
  return pfn;
}

Result<pfn_t> PhysMem::AllocFrameForOverwrite() {
  SpinGuard g(lock_);
  if (free_list_.empty()) {
    return Errno::kENOMEM;
  }
  const pfn_t pfn = free_list_.back();
  free_list_.pop_back();
  SG_DCHECK(refcount_[pfn] == 0);
  refcount_[pfn] = 1;
  return pfn;
}

void PhysMem::Ref(pfn_t pfn) {
  SG_DCHECK(ValidPfn(pfn));
  SpinGuard g(lock_);
  SG_CHECK(refcount_[pfn] > 0);
  ++refcount_[pfn];
}

void PhysMem::Unref(pfn_t pfn) {
  SG_DCHECK(ValidPfn(pfn));
  SpinGuard g(lock_);
  SG_CHECK(refcount_[pfn] > 0);
  if (--refcount_[pfn] == 0) {
    free_list_.push_back(pfn);
  }
}

u32 PhysMem::RefCount(pfn_t pfn) const {
  SG_DCHECK(ValidPfn(pfn));
  SpinGuard g(lock_);
  return refcount_[pfn];
}

bool PhysMem::TakeExclusive(pfn_t pfn) {
  SG_DCHECK(ValidPfn(pfn));
  SpinGuard g(lock_);
  SG_CHECK(refcount_[pfn] > 0);
  return refcount_[pfn] == 1;
}

std::byte* PhysMem::FrameData(pfn_t pfn) {
  SG_DCHECK(ValidPfn(pfn));
  return arena_.get() + static_cast<u64>(pfn) * kPageSize;
}

const std::byte* PhysMem::FrameData(pfn_t pfn) const {
  SG_DCHECK(ValidPfn(pfn));
  return arena_.get() + static_cast<u64>(pfn) * kPageSize;
}

u64 PhysMem::FreeFrames() const {
  SpinGuard g(lock_);
  return free_list_.size();
}

}  // namespace sg
