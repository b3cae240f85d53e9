// AddressSpace — one process's view of virtual memory: its private pregion
// list (always containing at least the PRDA), an optional pointer to the
// share group's SharedSpace, and its translation context (TLB).
//
// Scan order on a fault is private first, then shared (§6.2): "This
// provides the copy-on-write abilities of a non-VM sharing share group
// member" and lets the always-private PRDA shadow the shared image.
//
// Concurrency: the private list and private VA allocator are touched only
// by the owning process's thread (plus fork/exec setup before the process
// runs); the shared list is protected by SharedSpace::lock().
#ifndef SRC_VM_ADDRESS_SPACE_H_
#define SRC_VM_ADDRESS_SPACE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "base/thread_annotations.h"
#include "base/types.h"
#include "hw/phys_mem.h"
#include "hw/tlb.h"
#include "vm/layout.h"
#include "vm/pregion.h"
#include "vm/shared_space.h"
#include "vm/va_allocator.h"

namespace sg {

class AddressSpace {
 public:
  explicit AddressSpace(PhysMem& mem, u32 tlb_entries = 64)
      : mem_(mem), tlb_(tlb_entries), va_(kArenaBase, kArenaEnd, kStackTop) {}
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  PhysMem& mem() { return mem_; }
  Tlb& tlb() { return tlb_; }

  SharedSpace* shared() { return shared_; }
  void set_shared(SharedSpace* s) { shared_ = s; }

  std::vector<std::unique_ptr<Pregion>>& private_pregions() { return private_; }

  // Private VA allocator, used while this space is not sharing VM.
  VaAllocator& va() { return va_; }

  // Finds the private pregion containing `va` (owner thread only).
  Pregion* FindPrivate(vaddr_t va) {
    for (auto& pr : private_) {
      if (pr->Contains(va)) {
        return pr.get();
      }
    }
    return nullptr;
  }

  // Finds the pregion containing `va`, private list first — so a private
  // page (PRDA, privately shadowed data) always wins over the shared image
  // (§6.2) — then in the group's locked_layout(). The caller holds the
  // group's update lock if a shared space is attached — a conditional
  // precondition clang cannot express, hence the suppression (the runtime
  // lockdep validator covers these scans).
  Pregion* FindPregion(vaddr_t va) SG_NO_THREAD_SAFETY_ANALYSIS {
    if (Pregion* pr = FindPrivate(va); pr != nullptr || shared_ == nullptr) {
      return pr;
    }
    return shared_->locked_layout().Find(va);
  }

  // Finds a pregion by region type, private list first, then in the
  // group's locked_layout(). Same precondition as FindPregion.
  Pregion* FindByType(RegionType type) SG_NO_THREAD_SAFETY_ANALYSIS {
    for (auto& pr : private_) {
      if (pr->region->type() == type) {
        return pr.get();
      }
    }
    if (shared_ != nullptr) {
      return shared_->locked_layout().FindByType(type);
    }
    return nullptr;
  }

  // Attaches a pregion to the private list. The caller has already claimed
  // the VA range from the relevant allocator.
  Pregion* AttachPrivate(std::unique_ptr<Pregion> pr) {
    private_.push_back(std::move(pr));
    return private_.back().get();
  }

  // Removes (and destroys) the private pregion at `base`; returns whether
  // one was found. Flushes the owner's TLB range.
  bool DetachPrivate(vaddr_t base);

  // Drops every private pregion (exit/exec teardown) and flushes the TLB.
  void DetachAllPrivate();

  // Resets the private VA allocator (exec builds a fresh image).
  void ResetVa() { va_ = VaAllocator(kArenaBase, kArenaEnd, kStackTop); }

  // Fault counters.
  std::atomic<u64> faults{0};
  std::atomic<u64> cow_breaks{0};

 private:
  PhysMem& mem_;
  Tlb tlb_;
  SharedSpace* shared_ = nullptr;
  std::vector<std::unique_ptr<Pregion>> private_;
  VaAllocator va_;
};

}  // namespace sg

#endif  // SRC_VM_ADDRESS_SPACE_H_
