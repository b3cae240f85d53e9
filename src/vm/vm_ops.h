// VM-image operations: the "relatively rare" pregion-list updaters of §6.2
// (sbrk, mmap/munmap-style attach/detach, the fork and PR_UNSHARE image
// copy). Each follows the paper's protocol: take the group's update lock,
// perform the synchronous all-processor TLB flush before any page is freed
// or write-protected, then modify the list/region.
#ifndef SRC_VM_VM_OPS_H_
#define SRC_VM_VM_OPS_H_

#include <memory>

#include "base/result.h"
#include "base/thread_annotations.h"
#include "base/types.h"
#include "vm/address_space.h"

namespace sg {

// Grows (delta>0) or shrinks (delta<0) the data region by |delta| bytes
// rounded to whole pages; returns the previous break address. Shrinking a
// group-shared data region performs the §6.2 shootdown. `max_data_pages`
// bounds growth (0 = unlimited). `Sbrk(as, 0)` reads the current break.
Result<vaddr_t> Sbrk(AddressSpace& as, i64 delta, u64 max_data_pages = 0);

// Anonymous mapping (mmap-like): allocates a fresh demand-zero region of
// `bytes` (page-rounded) and attaches it — into the group-shared list when
// this space shares VM (all members see it immediately, §5.1), else
// privately. Returns the base address.
Result<vaddr_t> MapAnon(AddressSpace& as, u64 bytes, u32 prot = kProtRw);

// Attaches an existing region (SysV shared memory) at an allocator-chosen
// address. The region is genuinely shared — no COW.
Result<vaddr_t> AttachRegion(AddressSpace& as, std::shared_ptr<Region> region, u32 prot);

// Detaches the mapping based at `base` (full-mapping munmap/shmdt).
// Group-shared detach shoots down every member's TLB before the frames can
// be freed. kEINVAL if no mapping starts at `base`.
Status Unmap(AddressSpace& as, vaddr_t base);

// Copies the group image `ss` into `as` as private attachments, for fork
// and PR_UNSHARE(PR_SADDR) alike: a region that Region::SharedAcrossFork()
// keeps shared is attached again, anything else is duplicated
// copy-on-write. The caller holds ss's update lock. One seqcount write
// section spans the COW marking and the closing all-member shootdown.
void CopySharedImage(SharedSpace& ss, AddressSpace& as) SG_REQUIRES(ss.lock());

// Duplicates `parent`'s entire visible image into `child` by that rule —
// the fork(2) path, and the non-PR_SADDR sproc() path ("a fork() or non-VM
// sharing sproc() call leaves any visible stack or other regions from the
// share group as copy-on-write elements of the new process").
Status DuplicateForFork(AddressSpace& parent, AddressSpace& child);

}  // namespace sg

#endif  // SRC_VM_VM_OPS_H_
