// SwapSpace — the paging device backing stolen page frames.
//
// §6.2 names the pager as the second scanner of the pregion list
// ("operations that scan (page fault, pager)"); this module plus vm/pager.h
// make that scanner real: under memory pressure, resident pages whose frame
// is not otherwise shared are written to a swap slot and their frame is
// freed; the next touch swaps them back in through the normal fault path.
#ifndef SRC_HW_SWAP_H_
#define SRC_HW_SWAP_H_

#include <atomic>
#include <memory>
#include <vector>

#include "base/result.h"
#include "base/thread_annotations.h"
#include "base/types.h"
#include "sync/spinlock.h"

namespace sg {

class SwapSpace {
 public:
  // A device of `slots` page-sized slots. Slot 0 is reserved (0 = "none").
  explicit SwapSpace(u32 slots);
  SwapSpace(const SwapSpace&) = delete;
  SwapSpace& operator=(const SwapSpace&) = delete;

  // Allocates a slot and writes one page into it; kENOSPC when full.
  Result<u32> WriteOut(const std::byte* page);

  // Reads slot contents into `page` and frees the slot.
  void ReadInAndFree(u32 slot, std::byte* page);

  // Reads slot contents without freeing (kernel-side inspection).
  void Peek(u32 slot, std::byte* page) const;

  // Frees a slot without reading (region destroyed while paged out).
  void Free(u32 slot);

  // Copies a slot into a fresh slot (COW duplication of a paged-out page);
  // kENOSPC when full.
  Result<u32> Duplicate(u32 slot);

  u32 SlotsFree() const;
  u64 outs() const { return outs_.load(std::memory_order_relaxed); }
  u64 ins() const { return ins_.load(std::memory_order_relaxed); }

 private:
  // sgcheck:allow(guarded-fields): sized in the constructor, immutable after
  u32 nslots_;
  // Slot contents are pinned by slot ownership (a slot is touched only by
  // whoever holds its number), so store_ itself needs no lock.
  // sgcheck:allow(guarded-fields): see above — slot-ownership protocol
  std::unique_ptr<std::byte[]> store_;
  mutable Spinlock lock_{"swap"};
  std::vector<u32> free_list_ SG_GUARDED_BY(lock_);
  std::atomic<u64> outs_{0};
  std::atomic<u64> ins_{0};
};

}  // namespace sg

#endif  // SRC_HW_SWAP_H_
