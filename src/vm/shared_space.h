// SharedSpace — the VM half of the paper's shared-address block: the common
// pregion list of a share group, the update lock around every locked use
// of it, the registry of member translation contexts (for cross-processor
// TLB shootdowns), and the group's virtual-address allocator.
//
// It is owned by core::ShaddrBlock but lives in vm/ so the fault path does
// not depend on the share-group layer.
//
// One read view. Every reader of the list, locked or not, reads the
// published LayoutSnapshot: the lockless fault path under an epoch pin,
// every other scan through locked_layout() under the update lock, where
// the snapshot is the list because every mutation republishes while
// holding the lock. The raw list and member registry are private.
//
// Lockless fault-path surface (DESIGN.md §4h). The fault hot path takes
// no lock at all:
//
//   * layout_seq() — a SeqCount bumped around every pregion-list,
//     region-shape, or member-TLB-registry mutation. A lockless reader
//     snapshots it, works, and revalidates; any intervening write section
//     forces a retry.
//   * layout() — an immutable LayoutSnapshot (pregion pointers + member
//     TLB pointers) republished by every mutation. Readers load it with
//     one atomic acquire; writers never mutate a published snapshot.
//   * EpochGuard — two-parity sharded reader registration. A mutation that
//     retires pregions or snapshots flips the parity and waits only for
//     readers of the OLD parity to drain (AwaitQuiescent), so erased
//     pregions are reclaimed without ever freeing memory a racing lockless
//     reader may still dereference, and without writer livelock under a
//     continuous fault stream.
//
// Every mutation goes through the methods below (AttachPregion,
// DetachPregion, ExtractStackOf, AddMemberTlb, ...), so the snapshot can
// never go stale behind the seqcount's back.
#ifndef SRC_VM_SHARED_SPACE_H_
#define SRC_VM_SHARED_SPACE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "base/thread_annotations.h"
#include "base/thread_slot.h"
#include "base/types.h"
#include "hw/cpu_set.h"
#include "hw/tlb.h"
#include "inject/inject.h"
#include "sync/seqcount.h"
#include "sync/update_lock.h"
#include "vm/layout.h"
#include "vm/page_charge.h"
#include "vm/pregion.h"
#include "vm/va_allocator.h"

namespace sg {

// Immutable view of the group layout published to lockless readers. The
// pointed-to Pregions are kept alive by the graveyard protocol: a pregion
// leaving the list (and the snapshot that referenced it) is retired, not
// destroyed, until every epoch reader that could hold it has drained.
struct LayoutSnapshot {
  std::vector<Pregion*> pregions;
  std::vector<Tlb*> tlbs;  // member translation contexts (COW-break flush)

  Pregion* Find(vaddr_t va) const {
    for (Pregion* pr : pregions) {
      if (pr->Contains(va)) {
        return pr;
      }
    }
    return nullptr;
  }

  // The first pregion whose region has type `t`.
  Pregion* FindByType(RegionType t) const {
    for (Pregion* pr : pregions) {
      if (pr->region->type() == t) {
        return pr;
      }
    }
    return nullptr;
  }
};

class SharedSpace {
 public:
  explicit SharedSpace(CpuSet& cpus);
  // Owner-only teardown; no reader can exist (suppressed for clang's
  // analysis, which cannot see that).
  ~SharedSpace() SG_NO_THREAD_SAFETY_ANALYSIS;
  SharedSpace(const SharedSpace&) = delete;
  SharedSpace& operator=(const SharedSpace&) = delete;

  // The group's update lock (§6.2). Hold it around any locked scan
  // (locked_layout()) and any modification of the list, a region resize,
  // or a member TLB registry change. SG_RETURN_CAPABILITY lets clang see
  // `UpdateGuard g(space.lock())` as guarding the fields below even
  // through this accessor.
  UpdateLock& lock() SG_RETURN_CAPABILITY(lock_) { return lock_; }

  // The layout for a caller holding the lock: every mutation republishes
  // while holding it, so here the published snapshot is the list and its
  // member set. The reference is valid until the caller's own next
  // mutation, which retires the snapshot.
  const LayoutSnapshot& locked_layout() const SG_REQUIRES(lock_) { return *layout(); }

  // ----- lockless reader surface (no lock held) -----

  // The layout sequence counter. Even while stable; bumped (odd, then even
  // again) around every mutation that a lockless fault-path lookup must
  // not straddle.
  SeqCount& layout_seq() { return seq_; }

  // Current published layout. Readers must wrap the load AND every use of
  // the returned pointer in an EpochGuard (or hold the lock, which excludes
  // the writers that retire snapshots).
  const LayoutSnapshot* layout() const {
    return snap_.load(std::memory_order_acquire);
  }

  // Registers the calling thread as an epoch reader for its lifetime.
  // Writers retiring memory flip the parity and wait for the old side to
  // drain, so anything reachable from a snapshot loaded inside the guard
  // stays alive until the guard is destroyed.
  class EpochGuard {
   public:
    explicit EpochGuard(SharedSpace& ss) : ss_(ss), slot_(ThreadSlot()) {
      // Registration counts only if the parity still reads the same AFTER
      // the increment. A writer may flip and drain between the load and
      // the increment; registered on the side it already drained, this
      // reader would be invisible to the NEXT writer, which drains only
      // the other side and would free a snapshot loaded below. After a
      // passing re-check, the next flip follows the increment in the
      // seq_cst order, so that flip's drain waits for this reader.
      for (;;) {
        parity_ = ss_.epoch_parity_.load(std::memory_order_seq_cst) & 1;
        SG_INJECT_POINT("vm.epoch.enter");
        ss_.epoch_slots_[slot_].n[parity_].fetch_add(1, std::memory_order_seq_cst);
        if ((ss_.epoch_parity_.load(std::memory_order_seq_cst) & 1) == parity_) {
          return;
        }
        ss_.epoch_slots_[slot_].n[parity_].fetch_sub(1, std::memory_order_seq_cst);
      }
    }
    ~EpochGuard() {
      ss_.epoch_slots_[slot_].n[parity_].fetch_sub(1, std::memory_order_seq_cst);
    }
    EpochGuard(const EpochGuard&) = delete;
    EpochGuard& operator=(const EpochGuard&) = delete;

   private:
    SharedSpace& ss_;
    u32 slot_;
    u32 parity_;
  };

  // Page-granular invalidation against a snapshot's member set, used when a
  // COW break in a shared region replaces a frame and by the pager's
  // steal: every member must drop its stale translation before the new
  // frame becomes visible (the page table entry itself is guarded by its
  // page-table stripe). A lockless COW break holds only that lock and an
  // EpochGuard pinning `l`, and flushes BEFORE its seqcount re-check, so a
  // layout/membership change that could widen the member set forces a
  // retry rather than a missed invalidation.
  static void FlushPageAll(const LayoutSnapshot& l, u64 vpn) {
    for (Tlb* t : l.tlbs) {
      t->FlushPage(vpn);
    }
  }

  // ----- mutations -----

  // Group VA allocator; callers hold the lock.
  VaAllocator& va() SG_REQUIRES(lock_) { return va_; }

  // Attaches `pr` to the shared image (the caller already claimed its VA
  // range): points its region at the group's page accountant, bumps the
  // layout seqcount around the insert, republishes the snapshot, and
  // opportunistically reclaims the graveyard. Returns the attached pregion.
  Pregion* AttachPregion(std::unique_ptr<Pregion> pr) SG_REQUIRES(lock_);

  // Detaches the pregion based at `base` (exact match): shoots down every
  // member TLB, erases it from the list and republishes — all inside one
  // seqcount write section — then cuts the region loose from the page
  // accountant. Returns the detached pregion (the caller frees its VA range
  // and usually retires it), or null if no pregion is based there.
  std::unique_ptr<Pregion> DetachPregion(vaddr_t base) SG_REQUIRES(lock_);

  // Extracts the stack pregion owned by `pid` from the shared image
  // (seqcount-bracketed erase + republish; NO shootdown or charge change —
  // the callers' policies differ). Null if `pid` has no stack here.
  std::unique_ptr<Pregion> ExtractStackOf(pid_t pid) SG_REQUIRES(lock_);

  // Hands an erased pregion to the graveyard: it is destroyed (frames
  // freed, page charge returned by ~Region) only once no epoch reader can
  // still hold a pointer to it — at the next AwaitQuiescent, or at an
  // opportunistic TryReclaim that finds both parities empty.
  void RetirePregion(std::unique_ptr<Pregion> pr) SG_REQUIRES(lock_);

  // Rebuilds and publishes the layout snapshot from the authoritative list
  // and member registry; the previous snapshot joins the graveyard. Called
  // by every mutation above; exposed for compound update paths in vm/.
  void Republish() SG_REQUIRES(lock_);

  // Flips the epoch parity and spins until every reader of the old parity
  // has drained, then frees the graveyard. Bounded: epoch sections span
  // one fault resolution. New readers enter the new parity and see the
  // current snapshot, so a continuous fault stream cannot livelock this.
  void AwaitQuiescent() SG_REQUIRES(lock_);

  // Frees the graveyard iff no epoch reader is registered on either parity
  // right now (no waiting). Cheap enough for every attach.
  void TryReclaim() SG_REQUIRES(lock_);

  // Member translation-context registry, under the lock to modify or
  // iterate. Both mutators bump the layout seqcount around the
  // republish — so a lockless COW-break that flushed only the old member
  // set fails its revalidation and retries — and then wait for old-snapshot
  // readers to drain, so every in-flight flush either completed against the
  // old member set before the membership change returns, or runs against
  // the new one.
  void AddMemberTlb(Tlb* tlb) SG_REQUIRES(lock_);
  void RemoveMemberTlb(Tlb* tlb) SG_REQUIRES(lock_);

  // §6.2 shootdown: synchronously flush every member's translations on all
  // processors. Caller holds the lock; any member that then
  // touches the space misses, enters the fault path, and (seeing the odd
  // seqcount or failing revalidation) lands on the lock.
  void ShootdownAll() SG_REQUIRES(lock_) { cpus_.SynchronousFlush(member_tlbs_); }

  CpuSet& cpus() { return cpus_; }

  // Resident-page accountant for this group's image (the share group's rm
  // node; null when the group has no manager). Set once by the owning
  // ShaddrBlock before any member runs; every region that joins the shared
  // list is pointed at it (AttachPregion) and cut loose when it leaves
  // (DetachPregion, UnshareVm, block teardown).
  void set_page_charge(PageCharge* c) { page_charge_ = c; }
  PageCharge* page_charge() const { return page_charge_; }

  // Block teardown (no members remain, nobody can fault): cuts every
  // surviving image region loose from the page accountant and frees the
  // graveyard unconditionally, so retired regions return their charges
  // while the accountant is still alive.
  void TeardownRelease() SG_NO_THREAD_SAFETY_ANALYSIS;

 private:
  struct alignas(64) EpochSlot {
    std::atomic<u64> n[2] = {0, 0};
  };

  u64 EpochSum(u32 parity) const;
  void FreeGraveyard() SG_REQUIRES(lock_);

  CpuSet& cpus_;
  // sgcheck:allow(guarded-fields): wired once (SetCharge) while the space
  // is still private to its creator, then read-only
  PageCharge* page_charge_ = nullptr;
  UpdateLock lock_;
  SeqCount seq_{"vm.layout_seq"};
  std::atomic<const LayoutSnapshot*> snap_;  // never null after construction

  // Reader registration: writers flip epoch_parity_ and drain the old side.
  EpochSlot epoch_slots_[kThreadSlots];  // one per ThreadSlot()
  std::atomic<u32> epoch_parity_{0};

  std::vector<std::unique_ptr<Pregion>> pregions_ SG_GUARDED_BY(lock_);
  std::vector<Tlb*> member_tlbs_ SG_GUARDED_BY(lock_);
  VaAllocator va_ SG_GUARDED_BY(lock_);

  // Deferred reclamation (erased pregions, superseded snapshots).
  std::vector<std::unique_ptr<Pregion>> retired_pregions_ SG_GUARDED_BY(lock_);
  std::vector<const LayoutSnapshot*> retired_snaps_ SG_GUARDED_BY(lock_);
};

}  // namespace sg

#endif  // SRC_VM_SHARED_SPACE_H_
