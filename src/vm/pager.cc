#include "vm/pager.h"

#include "obs/stats.h"
#include "obs/trace.h"
#include "sync/update_lock.h"

namespace sg {

u64 ReclaimPages(AddressSpace& as, u64 target) {
  if (as.mem().swap_device() == nullptr || target == 0) {
    return 0;
  }
  u64 stolen = 0;
  Tlb& tlb = as.tlb();
  for (auto& pr : as.private_pregions()) {
    if (stolen >= target) {
      break;
    }
    const u64 vpn0 = PageOf(pr->base);
    stolen += pr->region->StealPages(target - stolen,
                                     [&](u64 idx) { tlb.FlushPage(vpn0 + idx); });
  }
  SharedSpace* ss = as.shared();
  if (ss != nullptr && stolen < target) {
    UpdateGuard g(ss->lock());
    const LayoutSnapshot& layout = ss->locked_layout();
    for (Pregion* pr : layout.pregions) {
      if (stolen >= target) {
        break;
      }
      // StealPages holds each PTE's stripe from its flush to its copy-out,
      // and a lockless faulter inserts under the same stripe, so no stale
      // translation to a frame we swap out survives.
      const u64 vpn0 = PageOf(pr->base);
      stolen += pr->region->StealPages(target - stolen, [&](u64 idx) {
        SharedSpace::FlushPageAll(layout, vpn0 + idx);
      });
    }
  }
  if (stolen > 0) {
    SG_OBS_ADD("vm.pager_steals", stolen);
    obs::Trace(obs::TraceKind::kPagerSteal, stolen);
  }
  return stolen;
}

}  // namespace sg
