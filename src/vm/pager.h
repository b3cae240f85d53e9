// The pager — the second scanner of §6.2 ("operations that scan (page
// fault, pager)"). Under memory pressure it sweeps the image visible to a
// faulting process with a two-handed clock, stealing cold sole-owner pages
// to the swap device; the fault path retries after a successful reclaim.
#ifndef SRC_VM_PAGER_H_
#define SRC_VM_PAGER_H_

#include "base/types.h"
#include "vm/address_space.h"

namespace sg {

// Steals up to `target` resident pages from the image visible to `as`: its
// own private regions first (the calling thread owns that list), then the
// group's shared list under the group's update lock, invalidating every
// member's translation before a page leaves. Returns pages stolen. The
// caller must not hold that lock. No-op without an attached swap device.
u64 ReclaimPages(AddressSpace& as, u64 target);

}  // namespace sg

#endif  // SRC_VM_PAGER_H_
