#include "vm/address_space.h"

namespace sg {

// Suppressed: holds the group's update lock only when a shared space is
// attached (see FindByType).
Pregion* AddressSpace::FindPregion(vaddr_t va, bool* out_shared) SG_NO_THREAD_SAFETY_ANALYSIS {
  Pregion* pr = FindPrivate(va);
  const bool shared = pr == nullptr && shared_ != nullptr;
  if (shared) {
    pr = shared_->Find(va);
  }
  if (out_shared != nullptr) {
    *out_shared = shared && pr != nullptr;
  }
  return pr;
}

bool AddressSpace::DetachPrivate(vaddr_t base) {
  for (auto it = private_.begin(); it != private_.end(); ++it) {
    if ((*it)->base == base) {
      const u64 pages = (*it)->region->pages();
      tlb_.FlushRange(PageOf(base), PageOf(base) + pages);
      private_.erase(it);
      return true;
    }
  }
  return false;
}

void AddressSpace::DetachAllPrivate() {
  private_.clear();
  tlb_.FlushAll();
}

}  // namespace sg
