// Software-managed TLB in the style of the MIPS R2000 the paper targets.
//
// Every simulated user load/store translates through a Tlb; a miss raises a
// (software) TLB-miss exception handled by the VM fault path, which refills
// the TLB after walking the pregion lists. Because the TLB is software
// managed, the kernel can *synchronously* invalidate entries on every
// processor before shrinking or detaching a shared region (§6.2) — a
// running share-group member then immediately misses, enters the kernel,
// and blocks on the group's update lock until the update completes.
//
// Each simulated process owns one Tlb (its translation context on whichever
// processor runs it); a cross-processor shootdown is modelled by flushing
// the Tlbs of all affected processes (see CpuSet::SynchronousFlush).
//
// FlushAll is O(1): instead of scanning and clearing every entry under the
// TLB spinlock, it bumps a flush generation; Probe/WithEntry/Insert treat
// an entry stamped with an older generation as invalid (lazy
// invalidation). The flush still takes (and immediately releases) the
// spinlock so an in-flight WithEntry access strictly orders before the
// flush returns — the same translate-and-access atomicity as before, but a
// shootdown IPI now costs O(1) per member instead of O(entries).
#ifndef SRC_HW_TLB_H_
#define SRC_HW_TLB_H_

#include <atomic>
#include <vector>

#include "base/thread_annotations.h"
#include "base/types.h"
#include "obs/stats.h"
#include "sync/spinlock.h"

namespace sg {

// Result of a TLB probe.
struct TlbProbe {
  enum class Kind {
    kHit,        // translation present with sufficient permission
    kMiss,       // no translation: refill required (page fault path)
    kWriteProt,  // translation present but read-only and a write was asked
  };
  Kind kind = Kind::kMiss;
  pfn_t pfn = 0;
};

class Tlb {
 public:
  // The R2000 TLB holds 64 entries; the default follows it.
  explicit Tlb(u32 entries = 64);
  Tlb(const Tlb&) = delete;
  Tlb& operator=(const Tlb&) = delete;

  // Probes for virtual page `vpn`; `want_write` distinguishes a write access
  // (read-only entries then report kWriteProt, which the fault path treats
  // as a potential copy-on-write break).
  TlbProbe Probe(u64 vpn, bool want_write);

  // Atomic translate-and-access: if a matching entry with sufficient
  // permission exists, runs `fn(pfn)` while the entry is pinned (the TLB
  // lock is held, so a concurrent shootdown completes only after `fn`
  // returns — this models the per-instruction atomicity of translation and
  // access on real hardware) and returns true. Returns false on miss or
  // write-protection; the caller then takes the fault path and retries.
  // `fn` must be short and must not block.
  template <typename Fn>
  bool WithEntry(u64 vpn, bool want_write, Fn&& fn) {
    SpinGuard g(lock_);
    Entry& e = entries_[SlotFor(vpn)];
    if (!Live(e) || e.vpn != vpn || (want_write && !e.writable)) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      SG_OBS_INC("tlb.misses");
      return false;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    fn(e.pfn);
    return true;
  }

  // Installs (or replaces) the translation for `vpn`.
  void Insert(u64 vpn, pfn_t pfn, bool writable) {
    InsertIf(vpn, pfn, writable, [] { return true; });
  }

  // Installs it only if `still()` holds under the TLB lock, and says whether
  // it did. A lockless refill passes a reread of its PTE word
  // (Region::TryRefill): a writer that revokes the translation changes the
  // word before it flushes, and the flush takes this lock, so the insert
  // lands before the flush, which drops it, or sees the change and backs off.
  template <typename Pred>
  bool InsertIf(u64 vpn, pfn_t pfn, bool writable, Pred&& still) {
    SpinGuard g(lock_);
    if (!still()) {
      return false;
    }
    Entry& e = entries_[SlotFor(vpn)];
    if (!Live(e)) {
      ++live_count_;  // replacing a stale/empty slot brings a new live entry
    }
    e = Entry{vpn, pfn, flush_gen_, true, writable};
    return true;
  }

  // Invalidation. FlushAll is what a cross-processor shootdown delivers;
  // it is O(1) (generation bump, see file comment).
  void FlushAll();
  void FlushPage(u64 vpn);
  void FlushRange(u64 vpn_begin, u64 vpn_end);  // [begin, end)

  u64 hits() const { return hits_.load(std::memory_order_relaxed); }
  u64 misses() const { return misses_.load(std::memory_order_relaxed); }
  // Flush *operations* (every FlushAll/FlushPage/FlushRange call) vs
  // entries actually invalidated — a FlushPage of an absent translation
  // performs work-free, and the split keeps /proc/stat's view of shootdown
  // cost honest ("tlb.flushes" / "tlb.flushed_entries").
  u64 flushes() const { return flushes_.load(std::memory_order_relaxed); }
  u64 flushed_entries() const { return flushed_entries_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    u64 vpn = 0;
    pfn_t pfn = 0;
    u64 gen = 0;  // flush generation the entry was installed under
    bool valid = false;
    bool writable = false;
  };

  // An entry counts only if it was installed under the current flush
  // generation.
  bool Live(const Entry& e) const SG_REQUIRES(lock_) { return e.valid && e.gen == flush_gen_; }

  u32 SlotFor(u64 vpn) const { return static_cast<u32>(vpn) & (nentries_ - 1); }

  // Invalidates `e` (already checked Live).
  void Invalidate(Entry& e) SG_REQUIRES(lock_);

  // sgcheck:allow(guarded-fields): set in the constructor, immutable after
  u32 nentries_;  // power of two; direct-mapped by low vpn bits
  // Owner thread probes/inserts; shootdowns flush remotely.
  Spinlock lock_{"tlb"};
  std::vector<Entry> entries_ SG_GUARDED_BY(lock_);

  // flush_gen_ advances on every FlushAll; live_count_ tracks entries live
  // under the current generation so FlushAll can account flushed entries
  // without scanning.
  u64 flush_gen_ SG_GUARDED_BY(lock_) = 0;
  u32 live_count_ SG_GUARDED_BY(lock_) = 0;

  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
  std::atomic<u64> flushes_{0};
  std::atomic<u64> flushed_entries_{0};
};

}  // namespace sg

#endif  // SRC_HW_TLB_H_
