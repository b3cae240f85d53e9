// Region — the System V.3 virtual-memory object the paper builds on
// ([Bach 1986]): a contiguous stretch of virtual space described by a page
// table, shared between processes by attaching it at some virtual address
// via a Pregion. "This model is designed to allow for full orthogonality
// between regions that grow (up or down), and those that are shared."
//
// Frames are demand-allocated (zero fill). Copy-on-write duplication
// (`DupCow`) produces a twin region whose pages share frames with the
// source until either side writes.
//
// Locking: the page table is guarded by kStripes mutexes ("stripes"), each
// on its own cache line (1 KB per region): PTE `idx` belongs to stripe
// (idx / kRunPtes) % kStripes, so faults on PTEs of different stripes do not
// meet.
// Share-group callers reach the region either through the group's UpdateLock
// or, on the lockless fault path, under an epoch pin (see vm/access.cc) — the
// two forms of the paper's fix for the "implicit pointers into the region"
// problem of stock V.3. A fault that changes a PTE installs its translation
// under the PTE's stripe (Resolve's `map`), and a pager steal holds that
// stripe from its TLB flush to its copy-out, so neither lands inside the
// other; the pager holds one stripe per run it scans. A refill of a present
// page takes no stripe (TryRefill). Whole-table operations take every stripe
// in ascending order (TableGuard), so the table's size and charge_ are stable
// under any one stripe. Lock order: [group update lock] -> one stripe -> TLB
// spinlock; only TableGuard holds two stripes.
#ifndef SRC_VM_REGION_H_
#define SRC_VM_REGION_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "base/result.h"
#include "base/types.h"
#include "hw/phys_mem.h"
#include "hw/swap.h"
#include "vm/page_charge.h"

namespace sg {

enum class RegionType {
  kText,   // program code
  kData,   // initialized data + bss + heap (grows via sbrk)
  kStack,  // per-process stack (demand-zero up to its maximum)
  kAnon,   // anonymous mapping (mmap); copy-on-write across fork
  kShm,    // System V shared-memory segment; stays shared across fork
  kFile,   // file-backed mapping; pages fill from a PageSource
  kPrda,   // the always-private process data area page
};

const char* RegionTypeName(RegionType t);

// One page-table entry. Everything a translation depends on is one word,
// the pfn in the low 32 bits and the flags above it, so a refill reads it
// whole without the stripe (Region::TryRefill). The word is written only
// under the PTE's stripe, one store per change, and a writer that revokes a
// translation stores the new word before it flushes the TLBs.
struct Pte {
  static constexpr u64 kPfnMask = 0xffff'ffff;
  static constexpr u64 kValid = u64{1} << 32;  // frame present
  static constexpr u64 kCow = u64{1} << 33;    // frame shared copy-on-write; mapped read-only
  // Clock bit, set by a fault only when clear: refaults leave the line clean.
  static constexpr u64 kReferenced = u64{1} << 34;  // touched since the pager's last pass
  static constexpr u64 kDirty = u64{1} << 35;       // written since mapped (file writeback)

  Pte() = default;
  // For std::vector, which copies only under every stripe.
  Pte(const Pte& o) : word(o.word.load(std::memory_order_relaxed)), swap_slot(o.swap_slot) {}

  // Acquire/release: a frame filled before its word is stored is filled for
  // whoever loads the word.
  u64 load() const { return word.load(std::memory_order_acquire); }
  void store(u64 w) { word.store(w, std::memory_order_release); }
  static pfn_t Pfn(u64 w) { return static_cast<pfn_t>(w & kPfnMask); }
  static u64 WithPfn(u64 w, pfn_t pfn) { return (w & ~kPfnMask) | pfn; }

  std::atomic<u64> word{0};
  u32 swap_slot = 0;  // nonzero while paged out; read and written under the stripe
};

// Outcome of resolving a page for an access.
struct PageResolution {
  pfn_t pfn = 0;
  bool writable = false;      // may the TLB entry allow writes?
  bool frame_changed = false;  // a COW break replaced the frame (shootdown!)
};

class PageSource;

class Region {
 public:
  // PTEs per stripe run, and stripes per region (sized by a sweep on
  // perfbench shm_pool and shm_swap; DESIGN.md §4h item 3).
  static constexpr u64 kRunPtes = 64;
  static constexpr u64 kStripes = 16;

  // Creates a region of `pages` demand-zero pages.
  static std::shared_ptr<Region> Alloc(PhysMem& mem, RegionType type, u64 pages);

  // Creates a file-backed region (type kFile): invalid pages fill from
  // `source` starting at byte `source_off`; `source_len` bytes are mapped
  // (the zero tail of the last page never reaches the source). A SHARED
  // mapping writes dirty pages back (WriteBack) and stays shared across
  // fork; a private one is COW like anonymous memory and never writes back.
  static std::shared_ptr<Region> AllocBacked(PhysMem& mem, u64 pages,
                                             std::shared_ptr<PageSource> source, u64 source_off,
                                             u64 source_len, bool shared_mapping);

  ~Region();
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  RegionType type() const { return type_; }

  // Lock-free: Pregion::Contains calls this on every pregion lookup,
  // including the lockless fault path's walk of the layout snapshot.
  u64 pages() const { return npages_.load(std::memory_order_acquire); }

  // Resolves page `idx` for an access, allocating a zero frame on first
  // touch and breaking copy-on-write when `want_write`, then runs
  // `map(resolution)` before the PTE's stripe drops. kEFAULT if the index is
  // out of range; kENOMEM if physical memory is exhausted (`map` not run).
  template <typename MapFn>
  Result<PageResolution> Resolve(u64 idx, bool want_write, MapFn&& map);

  // Refills a translation of page `idx` without its stripe: if the PTE word
  // is present, referenced and grants the access, returns `insert(pfn,
  // writable, unchanged)`, where `unchanged()` rereads the word and holds
  // while it is the one read; `insert` tests it under the TLB lock
  // (Tlb::InsertIf). Otherwise returns false: the access needs Resolve.
  // The caller holds an epoch pin, which an image region's resizers drain.
  template <typename InsertFn>
  bool TryRefill(u64 idx, bool want_write, InsertFn&& insert) const;

  // Grows the region to `new_pages` (demand-zero). kEINVAL if shrinking.
  // The table may move: an image region's resizer drains refills first.
  Status GrowTo(u64 new_pages);

  // Shrinks to `new_pages`, freeing the frames beyond. The caller must have
  // completed the TLB shootdown protocol FIRST (§6.2): no processor may
  // hold a stale translation when the frames are freed. As for GrowTo, an
  // image region's resizer drains refills first.
  Status ShrinkTo(u64 new_pages);

  // Copy-on-write duplicate: the twin shares every present frame; both
  // sides' pages become read-only-COW. The caller must flush TLBs that may
  // cache writable translations of this region afterwards.
  std::shared_ptr<Region> DupCow();

  // Kernel-side initialization write (program loading at exec): copies
  // `data` into the region starting at byte offset `off`, allocating frames
  // directly (no TLB involvement).
  Status FillFrom(u64 off, std::span<const std::byte> data);

  // Kernel-side read (core dumps, tests): copies region bytes out; holes
  // (never-touched pages) read as zeroes.
  Status ReadBack(u64 off, std::span<std::byte> out) const;

  // Number of frames currently resident (stats / tests).
  u64 ResidentPages() const;
  // Number of pages currently out on the swap device.
  u64 SwappedPages() const;

  // True if fork shares this region instead of COW-duplicating it
  // (immutable text, SysV segments, shared file mappings).
  bool SharedAcrossFork() const;

  // True for shared file mappings, whose dirty pages must be written back
  // before the mapping is torn down.
  bool NeedsWriteBack() const { return source_ != nullptr && shared_mapping_; }

  // Writes every page of a shared file mapping written since it was mapped
  // back to the source (msync / munmap). Dirty bits stay set: a writable
  // translation stays cached, so a later store would not set one again.
  Status WriteBack();

  // Points this region's resident pages at `charge` (null to detach): the
  // current resident count is unaccounted from the old charge and accounted
  // (forced — an adopted image never bounces) to the new one, and every
  // later validity transition is tracked. Called when the region joins or
  // leaves a share group's image. Invariant: charge_ is non-null only while
  // the region sits on some group's shared pregion list, so the accountant
  // always outlives the pointer.
  void SetCharge(PageCharge* charge);

  // Pager support (hw/swap.h must be attached to the PhysMem):
  // One clock-hand sweep over the page table, stealing up to `want`
  // resident, unreferenced, sole-owner pages to swap. The first encounter
  // of a referenced page clears its clock bit (second-chance). For every
  // stolen page, `flushed(idx)` runs BEFORE the frame contents are copied
  // out, so the caller can invalidate any TLB that might still write to it.
  // A region attached more than once is never swept: the caller flushes
  // only the TLBs of the space it sweeps, and another attaching space
  // (a fork child's MAP_SHARED mapping or SysV segment, a second shmat)
  // could keep translating the stolen frame. Returns the pages stolen.
  template <typename FlushFn>
  u64 StealPages(u64 want, FlushFn&& flushed);

 private:
  friend struct Pregion;  // counts attachments_
  Region(PhysMem& mem, RegionType type, u64 pages);

  struct alignas(64) Stripe {
    std::mutex mu;
  };
  std::mutex& StripeOf(u64 idx) const { return stripes_[(idx / kRunPtes) % kStripes].mu; }

  // Holds every stripe, taken in ascending order: the whole table is stable.
  struct TableGuard {
    explicit TableGuard(const Region& r);
    ~TableGuard();
    const Region& r;
  };

  // Takes a fault's stripe: brief try_lock spins, then a sleeping lock().
  static void LockForFault(std::mutex& mu);
  // Resolve under the PTE's stripe (held by the caller).
  Result<PageResolution> ResolveLocked(u64 idx, bool want_write);
  // May a translation of a present page with word `w` allow writes? COW
  // pages and clean pages of a writeback mapping map read-only, so the
  // write that changes them faults.
  bool Writable(u64 w) const {
    return (w & Pte::kCow) == 0 && (!NeedsWriteBack() || (w & Pte::kDirty) != 0);
  }

  // Steals page `idx`, whose word is `w` (caller holds its stripe,
  // preconditions checked). Returns false if the swap device is full.
  template <typename FlushFn>
  bool StealOne(u64 idx, u64 w, FlushFn&& flushed);

  PhysMem& mem_;
  RegionType type_;
  mutable std::array<Stripe, kStripes> stripes_;
  // Each PTE is written under its stripe; the vector is resized only under
  // every stripe, and an image region's only after its refills drain.
  std::vector<Pte> ptes_;
  // ptes_.size(), set at construction and stored under every stripe by
  // each resize (GrowTo, ShrinkTo), so pages() needs no lock.
  std::atomic<u64> npages_{0};
  std::atomic<u64> clock_hand_{0};  // pager sweep position; a hint only

  // Resident-page accountant (set under every stripe); see SetCharge.
  PageCharge* charge_ = nullptr;
  // Pregions attaching this region; a group image counts once.
  std::atomic<u32> attachments_{0};

  // File backing (kFile regions only).
  std::shared_ptr<PageSource> source_;
  u64 source_off_ = 0;
  u64 source_len_ = 0;
  bool shared_mapping_ = false;
};

template <typename MapFn>
Result<PageResolution> Region::Resolve(u64 idx, bool want_write, MapFn&& map) {
  std::mutex& mu = StripeOf(idx);
  LockForFault(mu);
  std::lock_guard<std::mutex> l(mu, std::adopt_lock);
  auto res = ResolveLocked(idx, want_write);
  if (res.ok()) {
    map(res.value());
  }
  return res;
}

template <typename InsertFn>
bool Region::TryRefill(u64 idx, bool want_write, InsertFn&& insert) const {
  if (idx >= ptes_.size()) {
    return false;
  }
  const Pte& pte = ptes_[idx];
  const u64 w = pte.load();
  // An unreferenced page goes to Resolve, which sets its clock bit.
  constexpr u64 kPresent = Pte::kValid | Pte::kReferenced;
  if ((w & kPresent) != kPresent || (want_write && !Writable(w))) {
    return false;
  }
  return insert(Pte::Pfn(w), Writable(w), [&pte, w] { return pte.load() == w; });
}

// ----- pager support (template bodies) -----

template <typename FlushFn>
bool Region::StealOne(u64 idx, u64 w, FlushFn&& flushed) {
  Pte& pte = ptes_[idx];
  // Revoke first: the invalid word (dirty kept for WriteBack) lands before
  // the flush, so a refill that read the old word either inserted before
  // the flush, which drops it, or finds the word changed and falls back to
  // Resolve, which waits on this stripe. The flush runs BEFORE the frame is
  // copied out, so no store lands after the copy.
  pte.store(w & Pte::kDirty);
  flushed(idx);
  const pfn_t pfn = Pte::Pfn(w);
  auto slot = mem_.swap_device()->WriteOut(mem_.FrameData(pfn));
  if (!slot.ok()) {
    pte.store(w);  // swap device full: the page stays
    return false;
  }
  mem_.Unref(pfn);
  pte.swap_slot = slot.value();
  if (charge_ != nullptr) {
    // The steal shrank the group's resident set — this is how the pager
    // makes headroom under a page cap.
    charge_->UnchargePages(1);
  }
  return true;
}

template <typename FlushFn>
u64 Region::StealPages(u64 want, FlushFn&& flushed) {
  if (mem_.swap_device() == nullptr || attachments_ > 1) {
    return 0;
  }
  u64 stolen = 0;
  // Two-handed clock: up to two full sweeps (the first clears reference
  // bits, the second harvests whatever stayed cold). Each run of kRunPtes
  // PTEs is scanned under its own stripe, so faults elsewhere proceed; the
  // table may resize between runs, so each run rereads its size.
  const u64 limit = 2 * pages();
  for (u64 step = 0; step < limit && stolen < want;) {
    u64 idx = clock_hand_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> l(StripeOf(idx));
    const u64 size = ptes_.size();
    if (idx >= size) {
      clock_hand_.store(0, std::memory_order_relaxed);  // shrunk since
      if (size == 0) {
        break;
      }
      continue;
    }
    const u64 run_end = std::min(size, (idx / kRunPtes + 1) * kRunPtes);
    for (; idx < run_end && step < limit && stolen < want; ++idx, ++step) {
      Pte& pte = ptes_[idx];
      const u64 w = pte.load();
      if ((w & Pte::kValid) == 0 || (w & Pte::kCow) != 0) {
        continue;  // absent, or the frame is COW-shared with another region
      }
      if ((w & Pte::kReferenced) != 0) {
        pte.store(w & ~Pte::kReferenced);  // second chance
        continue;
      }
      if (mem_.RefCount(Pte::Pfn(w)) != 1) {
        continue;  // shared frame: no reverse map, so leave it alone
      }
      if (!StealOne(idx, w, flushed)) {
        return stolen;  // swap full
      }
      ++stolen;
    }
    clock_hand_.store(idx == size ? 0 : idx, std::memory_order_relaxed);
  }
  return stolen;
}

}  // namespace sg

#endif  // SRC_VM_REGION_H_
