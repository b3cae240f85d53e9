#include "vm/region.h"

#include <cstring>

#include "base/check.h"
#include "hw/swap.h"
#include "obs/stats.h"
#include "sync/spinlock.h"  // CpuRelax
#include "vm/page_source.h"

namespace sg {

const char* RegionTypeName(RegionType t) {
  switch (t) {
    case RegionType::kText: return "text";
    case RegionType::kData: return "data";
    case RegionType::kStack: return "stack";
    case RegionType::kAnon: return "anon";
    case RegionType::kShm: return "shm";
    case RegionType::kFile: return "file";
    case RegionType::kPrda: return "prda";
  }
  return "?";
}

Region::Region(PhysMem& mem, RegionType type, u64 pages)
    : mem_(mem), type_(type), ptes_(pages), npages_(pages) {}

std::shared_ptr<Region> Region::Alloc(PhysMem& mem, RegionType type, u64 pages) {
  return std::shared_ptr<Region>(new Region(mem, type, pages));
}

std::shared_ptr<Region> Region::AllocBacked(PhysMem& mem, u64 pages,
                                            std::shared_ptr<PageSource> source, u64 source_off,
                                            u64 source_len, bool shared_mapping) {
  auto r = std::shared_ptr<Region>(new Region(mem, RegionType::kFile, pages));
  r->source_ = std::move(source);
  r->source_off_ = source_off;
  r->source_len_ = source_len;
  r->shared_mapping_ = shared_mapping;
  return r;
}

bool Region::SharedAcrossFork() const {
  switch (type_) {
    case RegionType::kText:
    case RegionType::kShm:
      return true;  // immutable / genuinely shared
    case RegionType::kFile:
      return shared_mapping_;  // MAP_SHARED-style mappings stay shared
    default:
      return false;  // copy-on-write
  }
}

Region::~Region() {
  u64 resident = 0;
  for (Pte& pte : ptes_) {
    if (const u64 w = pte.load(); (w & Pte::kValid) != 0) {
      mem_.Unref(Pte::Pfn(w));
      ++resident;
    } else if (pte.swap_slot != 0) {
      mem_.swap_device()->Free(pte.swap_slot);
    }
  }
  // Normally the share-group teardown has already called SetCharge(nullptr);
  // this covers regions destroyed straight off a shared list (Unmap).
  if (charge_ != nullptr && resident != 0) {
    charge_->UnchargePages(resident);
  }
}

Region::TableGuard::TableGuard(const Region& r) : r(r) {
  for (Stripe& s : r.stripes_) {
    s.mu.lock();
  }
}

Region::TableGuard::~TableGuard() {
  for (Stripe& s : r.stripes_) {
    s.mu.unlock();
  }
}

void Region::SetCharge(PageCharge* charge) {
  TableGuard g(*this);
  if (charge == charge_) {
    return;
  }
  u64 resident = 0;
  for (const Pte& pte : ptes_) {
    resident += (pte.load() & Pte::kValid) != 0 ? 1 : 0;
  }
  if (resident != 0) {
    if (charge_ != nullptr) {
      charge_->UnchargePages(resident);
    }
    if (charge != nullptr) {
      charge->ChargePagesForced(resident);
    }
  }
  charge_ = charge;
}

// try_lock rounds before a faulter sleeps on its stripe, ~1.8 µs on a Xeon:
// enough to wait out another faulter's resolution or a pager run, well short
// of a resize or a writeback, which the faulter sleeps through.
constexpr int kFaultSpins = 64;

void Region::LockForFault(std::mutex& mu) {
  if (mu.try_lock()) {
    return;
  }
  SG_OBS_INC("vm.ptlock.contended");
  for (int spin = 1; spin < kFaultSpins; ++spin) {
    CpuRelax();
    if (mu.try_lock()) {
      return;
    }
  }
  SG_OBS_INC("vm.ptlock.sleeps");
  mu.lock();
}

Result<PageResolution> Region::ResolveLocked(u64 idx, bool want_write) {
  if (idx >= ptes_.size()) {
    return Errno::kEFAULT;
  }
  Pte& pte = ptes_[idx];
  const u64 was = pte.load();
  u64 w = was | Pte::kReferenced;  // clock bit for the pager; see Pte::kReferenced
  // Shared file mappings track dirtiness: writes must fault once so the
  // dirty bit is set before write access is granted.
  const bool track_dirty = NeedsWriteBack();
  if (want_write && track_dirty) {
    w |= Pte::kDirty;
  }
  if ((w & Pte::kValid) == 0) {
    // Cap check before the allocation: a group at its resident-page cap is
    // refused even when free frames exist, and the kENOMEM sends the fault
    // path to the pager, which steals from this same image (uncharging as
    // it goes) until there is headroom — or the access faults for real.
    if (charge_ != nullptr && !charge_->TryChargePages(1)) {
      return Errno::kENOMEM;
    }
    // A swap-in overwrites the whole frame, so only the other fills zero it.
    auto frame = pte.swap_slot != 0 ? mem_.AllocFrameForOverwrite() : mem_.AllocFrame();
    if (!frame.ok()) {
      if (charge_ != nullptr) {
        charge_->UnchargePages(1);
      }
      return frame.error();
    }
    if (pte.swap_slot != 0) {
      // Major fault: the pager stole this page; bring it back in.
      mem_.swap_device()->ReadInAndFree(pte.swap_slot, mem_.FrameData(frame.value()));
      pte.swap_slot = 0;
    } else if (source_ != nullptr) {
      // File-backed: fill from the source (frame is pre-zeroed, so the
      // tail past EOF stays zero).
      source_->ReadPage(source_off_ + idx * kPageSize, mem_.FrameData(frame.value()));
    }
    // else: demand zero — first touch of the page.
    w = Pte::WithPfn(w & ~Pte::kCow, frame.value()) | Pte::kValid;
    pte.store(w);
    return PageResolution{frame.value(), Writable(w), false};
  }
  const pfn_t pfn = Pte::Pfn(w);
  if ((w & Pte::kCow) != 0 && want_write) {
    // Copy-on-write break.
    if (mem_.TakeExclusive(pfn)) {
      // Sole owner already: just regain write permission.
      pte.store(w & ~Pte::kCow);
      return PageResolution{pfn, true, false};
    }
    auto frame = mem_.AllocFrameForOverwrite();
    if (!frame.ok()) {
      return frame.error();
    }
    std::memcpy(mem_.FrameData(frame.value()), mem_.FrameData(pfn), kPageSize);
    mem_.Unref(pfn);
    // The new pfn is stored before `map` flushes the members.
    pte.store(Pte::WithPfn(w & ~Pte::kCow, frame.value()));
    return PageResolution{frame.value(), true, true};
  }
  if (w != was) {
    pte.store(w);
  }
  // Present page: COW pages stay read-only so a later write traps, and
  // clean pages of a writeback mapping stay read-only so the first write
  // marks them dirty.
  return PageResolution{pfn, Writable(w), false};
}

Status Region::WriteBack() {
  TableGuard g(*this);
  if (!NeedsWriteBack()) {
    return Errno::kEINVAL;
  }
  for (u64 idx = 0; idx < ptes_.size(); ++idx) {
    const Pte& pte = ptes_[idx];
    const u64 w = pte.load();
    if ((w & Pte::kDirty) == 0) {
      continue;
    }
    const u64 off = idx * kPageSize;
    if (off >= source_len_) {
      continue;  // the zero tail past the mapped length never writes back
    }
    const u64 len = std::min<u64>(kPageSize, source_len_ - off);
    if ((w & Pte::kValid) != 0) {
      source_->WritePage(source_off_ + off, mem_.FrameData(Pte::Pfn(w)), len);
    } else if (pte.swap_slot != 0) {
      // The pager stole a dirty page; push the swap copy out.
      std::byte page[kPageSize];
      mem_.swap_device()->Peek(pte.swap_slot, page);
      source_->WritePage(source_off_ + off, page, len);
    }
  }
  return Status::Ok();
}

Status Region::GrowTo(u64 new_pages) {
  TableGuard g(*this);
  if (new_pages < ptes_.size()) {
    return Errno::kEINVAL;
  }
  ptes_.resize(new_pages);
  npages_.store(new_pages, std::memory_order_release);
  return Status::Ok();
}

Status Region::ShrinkTo(u64 new_pages) {
  TableGuard g(*this);
  if (new_pages > ptes_.size()) {
    return Errno::kEINVAL;
  }
  u64 freed = 0;
  for (u64 i = new_pages; i < ptes_.size(); ++i) {
    if (const u64 w = ptes_[i].load(); (w & Pte::kValid) != 0) {
      mem_.Unref(Pte::Pfn(w));
      ++freed;
    } else if (ptes_[i].swap_slot != 0) {
      mem_.swap_device()->Free(ptes_[i].swap_slot);
    }
  }
  ptes_.resize(new_pages);
  npages_.store(new_pages, std::memory_order_release);
  if (charge_ != nullptr && freed != 0) {
    charge_->UnchargePages(freed);
  }
  return Status::Ok();
}

std::shared_ptr<Region> Region::DupCow() {
  TableGuard g(*this);
  auto twin = std::shared_ptr<Region>(new Region(mem_, type_, ptes_.size()));
  // A private file mapping's twin keeps the backing so untouched pages
  // still fill from the file; it never writes back.
  twin->source_ = source_;
  twin->source_off_ = source_off_;
  twin->source_len_ = source_len_;
  twin->shared_mapping_ = false;
  for (u64 i = 0; i < ptes_.size(); ++i) {
    Pte& src = ptes_[i];
    u64 w = src.load();
    if ((w & Pte::kValid) == 0 && src.swap_slot != 0) {
      // Paged-out page: the twin needs its own copy of the swap slot (two
      // PTEs must never own one slot). If the device is full, swap the
      // source back in and COW-share the frame instead; exhausting BOTH
      // memory and swap mid-duplication is a panic, like early UNIX.
      auto dup = mem_.swap_device()->Duplicate(src.swap_slot);
      if (dup.ok()) {
        twin->ptes_[i].swap_slot = dup.value();
        continue;
      }
      auto frame = mem_.AllocFrameForOverwrite();
      SG_CHECK(frame.ok());  // out of memory AND swap: nothing left to do
      mem_.swap_device()->ReadInAndFree(src.swap_slot, mem_.FrameData(frame.value()));
      src.swap_slot = 0;
      w = Pte::WithPfn(w, frame.value()) | Pte::kValid;
      if (charge_ != nullptr) {
        // The source page came back resident mid-duplication; there is no
        // way to back out here, so the charge is forced past any cap.
        charge_->ChargePagesForced(1);
      }
    }
    if ((w & Pte::kValid) != 0) {
      mem_.Ref(Pte::Pfn(w));
      src.store(w | Pte::kCow);  // source loses write permission until it re-faults
      twin->ptes_[i].store(Pte::WithPfn(Pte::kValid | Pte::kCow, Pte::Pfn(w)));
    }
  }
  return twin;
}

Status Region::FillFrom(u64 off, std::span<const std::byte> data) {
  TableGuard g(*this);
  if (off + data.size() > ptes_.size() * kPageSize) {
    return Errno::kEFAULT;
  }
  u64 done = 0;
  while (done < data.size()) {
    const u64 idx = (off + done) >> kPageShift;
    const u64 page_off = (off + done) & kPageMask;
    const u64 chunk = std::min<u64>(kPageSize - page_off, data.size() - done);
    Pte& pte = ptes_[idx];
    u64 w = pte.load();
    if ((w & Pte::kValid) == 0) {
      auto frame = mem_.AllocFrame();
      if (!frame.ok()) {
        return frame.error();
      }
      w = Pte::WithPfn(w, frame.value()) | Pte::kValid;
      pte.store(w);
      if (charge_ != nullptr) {
        // Kernel-side image initialization never bounces on a cap.
        charge_->ChargePagesForced(1);
      }
    }
    SG_CHECK((w & Pte::kCow) == 0);  // initialization happens before any sharing
    std::memcpy(mem_.FrameData(Pte::Pfn(w)) + page_off, data.data() + done, chunk);
    done += chunk;
  }
  return Status::Ok();
}

Status Region::ReadBack(u64 off, std::span<std::byte> out) const {
  TableGuard g(*this);
  if (off + out.size() > ptes_.size() * kPageSize) {
    return Errno::kEFAULT;
  }
  u64 done = 0;
  while (done < out.size()) {
    const u64 idx = (off + done) >> kPageShift;
    const u64 page_off = (off + done) & kPageMask;
    const u64 chunk = std::min<u64>(kPageSize - page_off, out.size() - done);
    const Pte& pte = ptes_[idx];
    if (const u64 w = pte.load(); (w & Pte::kValid) != 0) {
      std::memcpy(out.data() + done, mem_.FrameData(Pte::Pfn(w)) + page_off, chunk);
    } else if (pte.swap_slot != 0) {
      std::byte page[kPageSize];
      mem_.swap_device()->Peek(pte.swap_slot, page);
      std::memcpy(out.data() + done, page + page_off, chunk);
    } else {
      std::memset(out.data() + done, 0, chunk);
    }
    done += chunk;
  }
  return Status::Ok();
}

u64 Region::ResidentPages() const {
  TableGuard g(*this);
  u64 n = 0;
  for (const Pte& pte : ptes_) {
    n += (pte.load() & Pte::kValid) != 0 ? 1 : 0;
  }
  return n;
}

u64 Region::SwappedPages() const {
  TableGuard g(*this);
  u64 n = 0;
  for (const Pte& pte : ptes_) {
    n += ((pte.load() & Pte::kValid) == 0 && pte.swap_slot != 0) ? 1 : 0;
  }
  return n;
}

}  // namespace sg
