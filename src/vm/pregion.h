// Pregion — the per-process attachment of a Region at a virtual address
// (System V.3 `preg`). A share group keeps one common list of pregions in
// its shared block; private pregions (the PRDA, debugger-private text)
// stay on the process's own list and are scanned FIRST on a fault, which is
// what lets a private page shadow the shared image (§6.2).
#ifndef SRC_VM_PREGION_H_
#define SRC_VM_PREGION_H_

#include <memory>

#include "base/types.h"
#include "vm/region.h"

namespace sg {

// Access protection bits.
inline constexpr u32 kProtRead = 1u << 0;
inline constexpr u32 kProtWrite = 1u << 1;
inline constexpr u32 kProtExec = 1u << 2;
inline constexpr u32 kProtRw = kProtRead | kProtWrite;
inline constexpr u32 kProtRx = kProtRead | kProtExec;

struct Pregion {
  const std::shared_ptr<Region> region;
  vaddr_t base = 0;  // lowest virtual address of the attachment
  u32 prot = kProtRw;
  pid_t stack_owner = 0;  // for stack pregions: pid the stack was made for

  // Each Pregion is one attachment of its region (Region::StealPages).
  Pregion(std::shared_ptr<Region> r, vaddr_t b, u32 p) : region(std::move(r)), base(b), prot(p) {
    ++region->attachments_;
  }
  ~Pregion() { --region->attachments_; }
  Pregion(const Pregion&) = delete;
  Pregion& operator=(const Pregion&) = delete;

  u64 bytes() const { return region->pages() * kPageSize; }

  bool Contains(vaddr_t va) const { return va >= base && va < base + bytes(); }

  // Page index within the region for `va` (caller checked Contains).
  u64 PageIndex(vaddr_t va) const { return (va - base) >> kPageShift; }
};

}  // namespace sg

#endif  // SRC_VM_PREGION_H_
