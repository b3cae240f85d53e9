#include "vm/vm_ops.h"

#include <optional>

#include "base/check.h"
#include "base/thread_annotations.h"
#include "sync/seqcount.h"
#include "sync/update_lock.h"

namespace sg {

namespace {

// Finds the data pregion. Caller holds the update lock when `ss` != null.
Pregion* FindData(AddressSpace& as) { return as.FindByType(RegionType::kData); }

// The one per-pregion copy rule: a region that stays shared across fork
// (Region::SharedAcrossFork) is attached again, anything else is
// duplicated copy-on-write.
void CopyPregion(const Pregion& pr, AddressSpace& to) {
  std::shared_ptr<Region> r = pr.region->SharedAcrossFork() ? pr.region : pr.region->DupCow();
  auto copy = std::make_unique<Pregion>(std::move(r), pr.base, pr.prot);
  copy->stack_owner = pr.stack_owner;
  if (pr.base >= kArenaBase) {
    // Claim arena/stack ranges in the copy's allocator so its own
    // mmaps/stacks cannot collide with inherited attachments.
    SG_CHECK(to.va().Reserve(pr.base, pr.region->pages()).ok());
  }
  to.AttachPrivate(std::move(copy));
}

}  // namespace

// Suppressed: the guard is conditional (std::optional, taken only when the
// process shares VM), a shape clang's analysis cannot model. The runtime
// lockdep validator covers these paths instead.
Result<vaddr_t> Sbrk(AddressSpace& as, i64 delta, u64 max_data_pages) SG_NO_THREAD_SAFETY_ANALYSIS {
  SharedSpace* ss = as.shared();
  // Any resize is a VM-image update: exclude all concurrent faulters so the
  // paper's rule holds — "by the time control is returned to the process
  // making the VM modification, all other processes in the share group will
  // also see that modification".
  std::optional<UpdateGuard> guard;
  if (ss != nullptr) {
    guard.emplace(ss->lock());
  }
  Pregion* data = FindData(as);
  if (data == nullptr) {
    return Errno::kEINVAL;
  }
  const u64 old_pages = data->region->pages();
  const vaddr_t old_brk = data->base + old_pages * kPageSize;
  if (delta == 0) {
    return old_brk;
  }
  u64 new_pages = 0;
  if (delta > 0) {
    new_pages = old_pages + PagesFor(static_cast<u64>(delta));
    if (max_data_pages != 0 && new_pages > max_data_pages) {
      return Errno::kENOMEM;
    }
    if (data->base + new_pages * kPageSize > kPrdaBase) {
      return Errno::kENOMEM;  // data may not run into the PRDA
    }
  } else {
    const u64 sub = PagesFor(static_cast<u64>(-delta));
    if (sub > old_pages) {
      return Errno::kEINVAL;
    }
    new_pages = old_pages - sub;
  }
  const bool shrink = new_pages < old_pages;
  // A shrink frees frames: §6.2 — synchronously flush every processor's
  // TLB first, while holding the update lock. Either resize may move the
  // page table that lockless refills read, so both drain the epoch pins
  // first. The seqcount bracket covers flush, drain and resize: a faulter
  // that resolved a doomed page fails its re-check and drops its own
  // entry, and one pinned after the drain finds the section open and never
  // reads the table (DESIGN.md §4h).
  std::optional<SeqWriter> w;
  if (ss != nullptr) {
    w.emplace(ss->layout_seq());
    if (shrink) {
      ss->ShootdownAll();
    }
    ss->AwaitQuiescent();
  } else if (shrink) {
    as.tlb().FlushAll();
  }
  SG_RETURN_IF_ERROR(shrink ? data->region->ShrinkTo(new_pages) : data->region->GrowTo(new_pages));
  return old_brk;
}

Result<vaddr_t> MapAnon(AddressSpace& as, u64 bytes, u32 prot) {
  if (bytes == 0) {
    return Errno::kEINVAL;
  }
  const u64 pages = PagesFor(bytes);
  auto region = Region::Alloc(as.mem(), RegionType::kAnon, pages);
  return AttachRegion(as, std::move(region), prot);
}

Result<vaddr_t> AttachRegion(AddressSpace& as, std::shared_ptr<Region> region, u32 prot) {
  const u64 pages = region->pages();
  SharedSpace* ss = as.shared();
  if (ss != nullptr) {
    UpdateGuard guard(ss->lock());
    auto base = ss->va().AllocUp(pages);
    if (!base.ok()) {
      return base.error();
    }
    // AttachPregion points the region at the group's page accountant,
    // publishes the new layout and bumps the seqcount around the insert.
    ss->AttachPregion(std::make_unique<Pregion>(std::move(region), base.value(), prot));
    return base.value();
  }
  auto base = as.va().AllocUp(pages);
  if (!base.ok()) {
    return base.error();
  }
  as.AttachPrivate(std::make_unique<Pregion>(std::move(region), base.value(), prot));
  return base.value();
}

Status Unmap(AddressSpace& as, vaddr_t base) {
  if (base < kArenaBase || base >= kArenaEnd) {
    return Errno::kEINVAL;  // only arena mappings may be detached
  }
  SharedSpace* ss = as.shared();
  if (ss != nullptr) {
    UpdateGuard guard(ss->lock());
    Pregion* found = ss->locked_layout().Find(base);
    if (found == nullptr || found->base != base) {
      return Errno::kEINVAL;
    }
    if (found->region->NeedsWriteBack()) {
      SG_RETURN_IF_ERROR(found->region->WriteBack());
    }
    // DetachPregion shoots every member down, unpublishes the pregion and
    // cuts it loose from the page accountant — all seqcount-bracketed. The
    // pregion itself goes to the graveyard, and the quiescence wait below
    // both guarantees no lockless faulter still holds it and returns its
    // frames promptly (munmap's contract is that the memory is really gone).
    auto owned = ss->DetachPregion(base);
    SG_CHECK(owned != nullptr);
    ss->va().Free(base);
    ss->RetirePregion(std::move(owned));
    ss->AwaitQuiescent();
    return Status::Ok();
  }
  Pregion* pr = as.FindPrivate(base);
  if (pr == nullptr || pr->base != base) {
    return Errno::kEINVAL;
  }
  if (pr->region->NeedsWriteBack()) {
    SG_RETURN_IF_ERROR(pr->region->WriteBack());
  }
  SG_CHECK(as.DetachPrivate(base));
  as.va().Free(base);
  return Status::Ok();
}

void CopySharedImage(SharedSpace& ss, AddressSpace& as) {
  // COW marking revokes write permission from pages other members may
  // still hold cached writable — or may be about to re-resolve through
  // the lockless fault path. The seqcount bracket spans marking + flush,
  // so a racing faulter that installed a writable entry off the
  // pre-marking page table fails its re-check and undoes it; a refill that
  // read a pre-marking PTE word also lands before the flush or backs off.
  SeqWriter w(ss.layout_seq());
  for (const Pregion* pr : ss.locked_layout().pregions) {
    CopyPregion(*pr, as);
  }
  ss.ShootdownAll();
}

// Suppressed: conditional std::optional guard (see Sbrk).
Status DuplicateForFork(AddressSpace& parent, AddressSpace& child) SG_NO_THREAD_SAFETY_ANALYSIS {
  SG_CHECK(child.shared() == nullptr);
  SharedSpace* ss = parent.shared();
  std::optional<UpdateGuard> guard;
  if (ss != nullptr) {
    guard.emplace(ss->lock());
  }
  for (auto& pr : parent.private_pregions()) {
    CopyPregion(*pr, child);
  }
  if (ss != nullptr) {
    CopySharedImage(*ss, child);
  } else {
    parent.tlb().FlushAll();
  }
  return Status::Ok();
}

}  // namespace sg
