#include "vm/shared_space.h"

#include <thread>

#include "inject/inject.h"
#include "obs/stats.h"
#include "sync/spinlock.h"  // CpuRelax

namespace sg {

SharedSpace::SharedSpace(CpuSet& cpus)
    : cpus_(cpus), va_(kArenaBase, kArenaEnd, kStackTop) {
  snap_.store(new LayoutSnapshot{}, std::memory_order_release);
}

SharedSpace::~SharedSpace() {
  delete snap_.load(std::memory_order_acquire);
  for (const LayoutSnapshot* s : retired_snaps_) {
    delete s;
  }
  // retired_pregions_ (if TeardownRelease was skipped — plain vm tests)
  // free via their unique_ptrs.
}

u64 SharedSpace::EpochSum(u32 parity) const {
  u64 sum = 0;
  for (const EpochSlot& s : epoch_slots_) {
    sum += s.n[parity].load(std::memory_order_seq_cst);
  }
  return sum;
}

void SharedSpace::Republish() {
  auto* next = new LayoutSnapshot{};
  next->pregions.reserve(pregions_.size());
  for (auto& pr : pregions_) {
    next->pregions.push_back(pr.get());
  }
  next->tlbs = member_tlbs_;
  const LayoutSnapshot* old = snap_.exchange(next, std::memory_order_acq_rel);
  retired_snaps_.push_back(old);
}

void SharedSpace::AwaitQuiescent() {
  // Flip first, then drain only the OLD parity: readers arriving during
  // the drain register on the new side and — having incremented after the
  // flip in the seq_cst order — load the current snapshot, so they can
  // never hold anything the graveyard is about to free. Old-parity
  // sections span a single fault resolution, so the wait is bounded and a
  // continuous fault stream cannot starve the writer.
  const u32 old = epoch_parity_.fetch_xor(1, std::memory_order_seq_cst) & 1;
  SG_INJECT_POINT("vm.layout.await_drain");
  u64 spins = 0;
  u32 since_yield = 0;
  while (EpochSum(old) != 0) {
    CpuRelax();
    ++spins;
    // Epoch sections are normally one CPU-bound fault resolution, but a
    // resolve can hit the pager (swap-in) and hold its section for an I/O
    // latency — and we are spinning with the group update lock held, with
    // every other updater and fallback faulter queued behind us. Yield the
    // host thread past a threshold (same policy as Spinlock's contended
    // path) so a slow reader can actually run to its guard drop.
    if (++since_yield == 1024) {
      since_yield = 0;
      std::this_thread::yield();
    }
  }
  if (spins > 0) {
    SG_OBS_INC("vm.layout.drain_waits");
  }
  FreeGraveyard();
}

void SharedSpace::TryReclaim() {
  if (retired_pregions_.empty() && retired_snaps_.empty()) {
    return;
  }
  // Safe without a parity flip: a reader charged on either side entered
  // before these sums and may hold a retired pointer; a reader entering
  // after the sums loads the CURRENT snapshot (its increment precedes its
  // snapshot load in the seq_cst order), which references no retired
  // memory.
  if (EpochSum(0) != 0 || EpochSum(1) != 0) {
    return;
  }
  FreeGraveyard();
}

void SharedSpace::FreeGraveyard() {
  if (retired_pregions_.empty() && retired_snaps_.empty()) {
    return;
  }
  SG_OBS_ADD("vm.layout.reclaimed_pregions", retired_pregions_.size());
  retired_pregions_.clear();
  for (const LayoutSnapshot* s : retired_snaps_) {
    delete s;
  }
  retired_snaps_.clear();
}

Pregion* SharedSpace::AttachPregion(std::unique_ptr<Pregion> pr) {
  // The region joins the group image: its resident pages (usually zero for
  // fresh mappings, but a re-attached SysV segment may be populated) count
  // against the group's page cap from here on.
  pr->region->SetCharge(page_charge_);
  Pregion* raw = pr.get();
  {
    SeqWriter w(seq_);
    pregions_.push_back(std::move(pr));
    Republish();
  }
  TryReclaim();
  return raw;
}

std::unique_ptr<Pregion> SharedSpace::DetachPregion(vaddr_t base) {
  auto it = pregions_.begin();
  for (; it != pregions_.end(); ++it) {
    if ((*it)->base == base) {
      break;
    }
  }
  if (it == pregions_.end()) {
    return nullptr;
  }
  std::unique_ptr<Pregion> owned;
  {
    SeqWriter w(seq_);
    // Flush before free: no processor may retain a stale translation when
    // the region's frames return to the allocator. A lockless faulter that
    // re-inserts one concurrently fails the seqcount revalidation (the TLB
    // lock orders its insert after this flush, hence after WriteBegin) and
    // undoes its own entry.
    ShootdownAll();
    owned = std::move(*it);
    pregions_.erase(it);
    Republish();
  }
  // Leaving the group image: return the resident pages to the group before
  // the region (which may outlive the group via other owners — SysV
  // segments) loses its last tie to this accountant. SetCharge takes every
  // page-table stripe, so a racing lockless resolve either charges before
  // this (and the detach returns that page too) or sees no accountant.
  owned->region->SetCharge(nullptr);
  return owned;
}

std::unique_ptr<Pregion> SharedSpace::ExtractStackOf(pid_t pid) {
  for (auto it = pregions_.begin(); it != pregions_.end(); ++it) {
    if ((*it)->region->type() == RegionType::kStack && (*it)->stack_owner == pid) {
      std::unique_ptr<Pregion> owned;
      {
        SeqWriter w(seq_);
        owned = std::move(*it);
        pregions_.erase(it);
        Republish();
      }
      return owned;
    }
  }
  return nullptr;
}

void SharedSpace::RetirePregion(std::unique_ptr<Pregion> pr) {
  retired_pregions_.push_back(std::move(pr));
}

void SharedSpace::AddMemberTlb(Tlb* tlb) {
  {
    // Seqcount-bracketed like every other layout mutation: a lockless
    // COW-break that flushed only the old (narrower) member set fails its
    // revalidation and retries against the widened snapshot, so the "a
    // membership change forces a retry" invariant the fault path documents
    // is carried by the counter itself, not only by the drain below.
    SeqWriter w(seq_);
    member_tlbs_.push_back(tlb);
    Republish();
  }
  // Belt and braces on top of the retry: drain old-snapshot readers before
  // the new member can run, so any in-flight flush against the previous
  // member set completes before the member's first fault can cache a
  // translation.
  AwaitQuiescent();
}

void SharedSpace::RemoveMemberTlb(Tlb* tlb) {
  {
    // Same bracket as AddMemberTlb — see there.
    SeqWriter w(seq_);
    std::erase(member_tlbs_, tlb);
    Republish();
  }
  // The Tlb pointer is leaving the published member set; wait out every
  // reader that could still flush through the old snapshot before the
  // caller tears the context down.
  AwaitQuiescent();
}

void SharedSpace::TeardownRelease() {
  // Owner-only, past the last detach: no reader can race these scans, so
  // no lock or epoch discipline is needed (and the lock may already be
  // unheld forever).
  for (auto& pr : pregions_) {
    pr->region->SetCharge(nullptr);
  }
  retired_pregions_.clear();  // ~Region returns charges while the node lives
  for (const LayoutSnapshot* s : retired_snaps_) {
    delete s;
  }
  retired_snaps_.clear();
}

}  // namespace sg
