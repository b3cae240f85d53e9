#include "vm/address_space.h"

namespace sg {

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
