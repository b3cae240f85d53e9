#include "vm/access.h"

#include "base/check.h"
#include "base/thread_annotations.h"
#include "inject/inject.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "sync/update_lock.h"
#include "vm/pager.h"

namespace sg {

namespace {

// One fault-resolution attempt; HandleFault wraps it with the reclaim loop.
Status HandleFaultOnce(AddressSpace& as, vaddr_t va, bool want_write);

// Lockless lookup attempts before falling back to the locked path. Two
// retries absorb back-to-back layout bumps (e.g. an sbrk racing an mmap);
// past that the fault stream is contending with a writer burst and blocking
// on the lock is the honest thing to do.
constexpr int kLocklessAttempts = 3;

// ENOMEM reclaim attempts before the fault gives up. Each round steals up
// to 64 pages; if 16 rounds of successful stealing still cannot hold a
// frame long enough to finish one resolution, other faulting members are
// re-resolving frames as fast as we free them and looping further would
// livelock (the bug this cap fixes), so kENOMEM surfaces to the caller.
constexpr int kMaxReclaimRetries = 16;

}  // namespace

Status HandleFault(AddressSpace& as, vaddr_t va, bool want_write) {
  for (int attempt = 0;; ++attempt) {
    Status st = HandleFaultOnce(as, va, want_write);
    if (st.error() != Errno::kENOMEM) {
      return st;
    }
    if (attempt >= kMaxReclaimRetries) {
      return st;  // bounded: see kMaxReclaimRetries
    }
    // Out of frames: wake the pager against our own visible image and
    // retry; give up only when nothing could be stolen and no frame is free
    // (a reclaimer we queued behind may have swept the image already).
    SG_OBS_INC("vm.fault.reclaim_retries");
    if (ReclaimPages(as, 64) == 0 && as.mem().FreeFrames() == 0) {
      return st;
    }
  }
}

namespace {

bool ProtAllows(const Pregion& pr, bool want_write) {
  return (pr.prot & (want_write ? kProtWrite : kProtRead)) != 0;
}

// Resolves one page of `pr` and installs the translation in the faulter's
// TLB, both under the PTE's page-table stripe, so a pager steal (which holds
// it from its flush to its copy-out) lands wholly before the resolution or
// wholly after the insert. `flush_members(vpn)` runs when a COW break replaced the frame,
// BEFORE the insert — for a shared pregion it must drop every member's
// stale translation so their next access refaults onto the new frame.
template <typename FlushFn>
Status ResolveAndMap(AddressSpace& as, Pregion& pr, vaddr_t va, bool want_write,
                     FlushFn&& flush_members) {
  auto map = [&](const PageResolution& res) {
    if (res.frame_changed) {
      as.cow_breaks.fetch_add(1, std::memory_order_relaxed);
      SG_OBS_INC("vm.cow_breaks");
      obs::Trace(obs::TraceKind::kCowBreak, va);
      flush_members(PageOf(va));
    }
    const bool tlb_writable = res.writable && (pr.prot & kProtWrite) != 0;
    as.tlb().Insert(PageOf(va), res.pfn, tlb_writable);
  };
  return pr.region->Resolve(pr.PageIndex(va), want_write, map).status();
}

// How one attempt against the published layout ended.
enum class Attempt {
  kDone,   // validated: the status stands
  kMoved,  // a write section straddled it; our own TLB entry is undone
  kBusy,   // a writer was mid-section before it began; nothing was done
};

// One lookup and resolution of `va` against the published layout,
// bracketed by a layout seqcount read and its revalidation: the lockless
// path runs it up to kLocklessAttempts times, the fallback once under the
// update lock, where no write section can open and it always validates.
Attempt SharedAttempt(AddressSpace& as, SharedSpace& ss, vaddr_t va, bool want_write,
                      Status* out) {
  // The epoch guard pins the snapshot and everything it points to
  // (including a pregion a concurrent munmap is retiring, and the page
  // table a refill reads) for the rest of this attempt. It comes BEFORE the
  // seqcount read: a resizer drains pins inside its write section, so a pin
  // taken after its drain reads an odd count below and touches nothing.
  // It MUST outlive the revalidation and the undo flush below: the instant
  // we drop it, an updater's AwaitQuiescent may complete and free retired
  // frames, so we stay registered until either the revalidation proves our
  // TLB entry belongs to a stable layout or the entry is gone again. A
  // sibling thread of this task shares our TLB — a stale entry outliving
  // the quiescence point would let it translate to a freed frame.
  SharedSpace::EpochGuard epoch(ss);
  u64 s0 = 0;
  if (!ss.layout_seq().TryReadBegin(&s0)) {
    return Attempt::kBusy;
  }
  SG_INJECT_POINT("vm.fault.lockless");
  Status st = Errno::kEFAULT;
  const LayoutSnapshot* snap = ss.layout();
  // sgcheck:allow(sleep-in-atomic): name collision — sgcheck links calls
  // by bare name, so `Find` reaches ProcTable::Find's mutex. This Find
  // walks the immutable snapshot, and Contains loads the region's atomic
  // page count: nothing on this lookup blocks.
  if (Pregion* pr = snap->Find(va); pr != nullptr) {
    if (ProtAllows(*pr, want_write)) {
      // A present page refills with no stripe; any other access resolves
      // under the PTE's stripe, which closes the resolve/insert vs
      // pager-steal window. Layout writers are caught by the seqcount
      // recheck below instead.
      auto insert = [&](pfn_t pfn, bool writable, auto&& unchanged) {
        const bool tlb_writable = writable && (pr->prot & kProtWrite) != 0;
        return as.tlb().InsertIf(PageOf(va), pfn, tlb_writable, unchanged);
      };
      const bool refilled = pr->region->TryRefill(pr->PageIndex(va), want_write, insert);
      // sgcheck:allow(sleep-in-atomic): §4h — resolve takes a page-table
      // stripe (spinning briefly first) and may read swap; the epoch pin is
      // expected to span the whole resolve+flush+insert+recheck.
      st = refilled ? Status::Ok() : ResolveAndMap(as, *pr, va, want_write, [&](u64 vpn) {
        // Frame change published to every member BEFORE the seqcount
        // re-check: a membership/layout change that could widen the
        // member set forces a retry, never a missed invalidation.
        SharedSpace::FlushPageAll(*snap, vpn);
      });
    }
  }
  if (ss.layout_seq().ReadValidate(s0)) {
    // No mutation straddled us: the lookup (hit OR miss), the protection
    // check, and any installed translation all belong to a stable layout.
    *out = st;
    return Attempt::kDone;
  }
  // The layout moved underneath the resolution. Whatever we concluded —
  // even a translation already visible in our TLB — may be stale (e.g. a
  // frame freed by a racing shrink): drop our own entry, still inside the
  // epoch so the updater cannot reach its free first. The inject seam
  // stretches exactly that stale-entry window — a schedule parks us here
  // while an updater spins in AwaitQuiescent against our epoch
  // registration.
  SG_INJECT_POINT("vm.fault.undo");
  as.tlb().FlushPage(PageOf(va));
  return Attempt::kMoved;
}

// The §6.2 fault path, since PR 7 in the lockless form of DESIGN.md §4h.
//
// Private pregions are owner-thread state and resolve with no locking at
// all. For the shared image, SharedAttempt looks `va` up in the published
// snapshot under an epoch guard, refills a present page's
// translation from its PTE word or else resolves the page and inserts its
// translation under that PTE's stripe, and REVALIDATES the layout
// seqcount: unchanged means no mutation straddled the resolution and the
// installed translation stands.
// A failed revalidation retries; retry exhaustion or an in-progress writer
// falls back to the group's update lock — which blocks until the updater
// finishes, exactly how a member that trapped after a shootdown waits for
// the VM modification to complete — and runs the same attempt there.
//
// Suppressed: the guard appears only on the fallback path — a shape
// clang's analysis cannot model. The runtime lockdep validator covers
// these paths instead.
Status HandleFaultOnce(AddressSpace& as, vaddr_t va, bool want_write) SG_NO_THREAD_SAFETY_ANALYSIS {
  as.faults.fetch_add(1, std::memory_order_relaxed);
  SG_OBS_INC("vm.faults");
  obs::Trace(obs::TraceKind::kPageFault, va, want_write ? 1 : 0);

  // Private pregions first (§6.2 scan order — a private page shadows the
  // shared image). No group lock: nothing here is visible to other members,
  // and only this thread changes the list.
  if (Pregion* pr = as.FindPrivate(va); pr != nullptr) {
    if (!ProtAllows(*pr, want_write)) {
      return Errno::kEFAULT;
    }
    // A private COW break needs no cross-member flush; the insert below
    // replaces our own stale entry.
    return ResolveAndMap(as, *pr, va, want_write, [](u64) {});
  }

  SharedSpace* ss = as.shared();
  if (ss == nullptr) {
    return Errno::kEFAULT;
  }

  Status st = Errno::kEFAULT;
  for (int attempt = 0; attempt < kLocklessAttempts; ++attempt) {
    const Attempt a = SharedAttempt(as, *ss, va, want_write, &st);
    if (a == Attempt::kBusy) {
      break;  // a writer is mid-mutation right now: go block on the lock
    }
    if (a == Attempt::kDone) {
      if (st.ok()) {
        SG_OBS_INC("vm.fault.lockless_hits");
      }
      return st;
    }
    SG_OBS_INC("vm.fault.retries");
    SG_INJECT_POINT("vm.fault.retry");
  }

  // Fallback ladder, last rung: the same attempt under the update lock.
  // Blocks while an updater holds the lock; every layout write section
  // runs under it, so the attempt cannot fail to validate.
  SG_OBS_INC("vm.fault.fallbacks");
  SG_INJECT_POINT("vm.fault.fallback");
  UpdateGuard guard(ss->lock());
  SG_CHECK(SharedAttempt(as, *ss, va, want_write, &st) == Attempt::kDone);
  return st;
}

}  // namespace

namespace {

// Shared page-walking loop for the bulk transfer routines.
template <typename PageFn>
Status ForEachUserPage(AddressSpace& as, vaddr_t ua, u64 len, bool want_write, PageFn&& fn) {
  u64 done = 0;
  while (done < len) {
    const vaddr_t va = ua + done;
    const u64 page_off = va & kPageMask;
    const u64 chunk = std::min<u64>(kPageSize - page_off, len - done);
    for (;;) {
      const bool hit = as.tlb().WithEntry(PageOf(va), want_write, [&](pfn_t pfn) {
        fn(as.mem().FrameData(pfn) + page_off, done, chunk);
      });
      if (hit) {
        break;
      }
      SG_RETURN_IF_ERROR(HandleFault(as, va, want_write));
    }
    done += chunk;
  }
  return Status::Ok();
}

}  // namespace

Status CopyIn(AddressSpace& as, void* dst, vaddr_t src, u64 len) {
  return ForEachUserPage(as, src, len, /*want_write=*/false,
                         [dst](std::byte* page, u64 done, u64 chunk) {
                           std::memcpy(static_cast<std::byte*>(dst) + done, page, chunk);
                         });
}

Status CopyOut(AddressSpace& as, vaddr_t dst, const void* src, u64 len) {
  return ForEachUserPage(as, dst, len, /*want_write=*/true,
                         [src](std::byte* page, u64 done, u64 chunk) {
                           std::memcpy(page, static_cast<const std::byte*>(src) + done, chunk);
                         });
}

Status FillUser(AddressSpace& as, vaddr_t dst, u8 byte, u64 len) {
  return ForEachUserPage(as, dst, len, /*want_write=*/true,
                         [byte](std::byte* page, u64, u64 chunk) {
                           std::memset(page, byte, chunk);
                         });
}

namespace {

template <typename Fn>
Result<u32> AtomicOp32(AddressSpace& as, vaddr_t va, bool want_write, Fn&& fn) {
  if (va % 4 != 0) {
    return Errno::kEINVAL;  // contract violation, not a bad mapping
  }
  u32 out = 0;
  for (;;) {
    const bool hit = as.tlb().WithEntry(PageOf(va), want_write, [&](pfn_t pfn) {
      auto* word = reinterpret_cast<u32*>(as.mem().FrameData(pfn) + (va & kPageMask));
      out = fn(std::atomic_ref<u32>(*word));
    });
    if (hit) {
      return out;
    }
    SG_RETURN_IF_ERROR(HandleFault(as, va, want_write));
  }
}

}  // namespace

Result<u32> AtomicLoad32(AddressSpace& as, vaddr_t va) {
  return AtomicOp32(as, va, /*want_write=*/false,
                    [](std::atomic_ref<u32> w) { return w.load(std::memory_order_acquire); });
}

Status AtomicStore32(AddressSpace& as, vaddr_t va, u32 value) {
  auto r = AtomicOp32(as, va, /*want_write=*/true, [value](std::atomic_ref<u32> w) {
    w.store(value, std::memory_order_release);
    return value;
  });
  return r.status();
}

Result<u32> AtomicCas32(AddressSpace& as, vaddr_t va, u32 expected, u32 desired) {
  return AtomicOp32(as, va, /*want_write=*/true, [expected, desired](std::atomic_ref<u32> w) {
    u32 e = expected;
    w.compare_exchange_strong(e, desired, std::memory_order_acq_rel);
    return e;  // previous value
  });
}

Result<u32> AtomicFetchAdd32(AddressSpace& as, vaddr_t va, u32 delta) {
  return AtomicOp32(as, va, /*want_write=*/true, [delta](std::atomic_ref<u32> w) {
    return w.fetch_add(delta, std::memory_order_acq_rel);
  });
}

}  // namespace sg
