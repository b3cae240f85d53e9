// Simulated physical memory: one contiguous arena divided into page frames,
// with a free list and per-frame reference counts (frames are shared by
// copy-on-write duplication and by shared regions).
#ifndef SRC_HW_PHYS_MEM_H_
#define SRC_HW_PHYS_MEM_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "base/result.h"
#include "base/thread_annotations.h"
#include "base/types.h"
#include "sync/spinlock.h"

namespace sg {

class SwapSpace;  // hw/swap.h

class PhysMem {
 public:
  // `bytes` is rounded up to whole pages. Frame 0 is reserved (never
  // allocated) so pfn 0 can mean "no frame" in page-table entries.
  explicit PhysMem(u64 bytes);
  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  // Allocates a zeroed frame with refcount 1; ENOMEM when exhausted.
  Result<pfn_t> AllocFrame();
  // The same without the zeroing, for a caller that overwrites all
  // kPageSize bytes (a swap-in, a COW copy) before the frame is mapped.
  Result<pfn_t> AllocFrameForOverwrite();

  // Reference counting. Unref frees the frame when the count reaches zero.
  void Ref(pfn_t pfn);
  void Unref(pfn_t pfn);
  u32 RefCount(pfn_t pfn) const;

  // COW break support: atomically claims sole ownership if the refcount is
  // exactly 1 (returns true — caller may write in place); otherwise the
  // caller must copy to a fresh frame and Unref the old one.
  bool TakeExclusive(pfn_t pfn);

  // Direct pointer to the frame's bytes (kPageSize of them). Stable for the
  // lifetime of the arena; the caller must hold a reference on the frame.
  std::byte* FrameData(pfn_t pfn);
  const std::byte* FrameData(pfn_t pfn) const;

  u64 TotalFrames() const { return nframes_ - 1; }  // excludes reserved frame 0
  u64 FreeFrames() const;

  // Optional paging device (hw/swap.h); null when the machine has no swap.
  // Set once at boot, before any region exists.
  void AttachSwap(SwapSpace* swap) { swap_ = swap; }
  SwapSpace* swap_device() const { return swap_; }

 private:
  bool ValidPfn(pfn_t pfn) const { return pfn >= 1 && pfn < nframes_; }

  // sgcheck:allow(guarded-fields): sized in the constructor, immutable after
  u64 nframes_;
  // sgcheck:allow(guarded-fields): allocated once in the constructor; frame
  // ownership is what lock_ protects (free_list_/refcount_), not the arena
  std::unique_ptr<std::byte[]> arena_;

  mutable Spinlock lock_{"physmem"};
  std::vector<pfn_t> free_list_ SG_GUARDED_BY(lock_);
  std::vector<u32> refcount_ SG_GUARDED_BY(lock_);
  // sgcheck:allow(guarded-fields): set once at boot (AttachSwap) before any
  // region exists, then read-only
  SwapSpace* swap_ = nullptr;
};

}  // namespace sg

#endif  // SRC_HW_PHYS_MEM_H_
