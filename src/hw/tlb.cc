#include "hw/tlb.h"

#include "base/check.h"
#include "obs/stats.h"

namespace sg {

namespace {
constexpr bool IsPowerOfTwo(u32 v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

Tlb::Tlb(u32 entries) : nentries_(entries) {
  SG_CHECK(IsPowerOfTwo(entries));
  entries_.resize(nentries_);
}

TlbProbe Tlb::Probe(u64 vpn, bool want_write) {
  SpinGuard g(lock_);
  Entry& e = entries_[SlotFor(vpn)];
  if (!Live(e) || e.vpn != vpn) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    SG_OBS_INC("tlb.misses");
    return TlbProbe{TlbProbe::Kind::kMiss, 0};
  }
  if (want_write && !e.writable) {
    // Counted as a miss for stats purposes: it enters the fault path.
    misses_.fetch_add(1, std::memory_order_relaxed);
    SG_OBS_INC("tlb.misses");
    return TlbProbe{TlbProbe::Kind::kWriteProt, e.pfn};
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return TlbProbe{TlbProbe::Kind::kHit, e.pfn};
}

void Tlb::Invalidate(Entry& e) {
  e.valid = false;
  SG_DCHECK(live_count_ > 0);
  --live_count_;
  flushed_entries_.fetch_add(1, std::memory_order_relaxed);
  SG_OBS_INC("tlb.flushed_entries");
}

void Tlb::FlushAll() {
  // O(1): advance the generation; every entry stamped with the old one is
  // now dead. Taking the spinlock (even briefly) means any in-flight
  // WithEntry access completed before this flush returns — the synchronous
  // shootdown guarantee of §6.2 is preserved without the O(entries) scan.
  SpinGuard g(lock_);
  ++flush_gen_;
  flushed_entries_.fetch_add(live_count_, std::memory_order_relaxed);
  SG_OBS_ADD("tlb.flushed_entries", live_count_);
  live_count_ = 0;
  flushes_.fetch_add(1, std::memory_order_relaxed);
  SG_OBS_INC("tlb.flushes");
}

void Tlb::FlushPage(u64 vpn) {
  SpinGuard g(lock_);
  Entry& e = entries_[SlotFor(vpn)];
  if (Live(e) && e.vpn == vpn) {
    Invalidate(e);
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
  SG_OBS_INC("tlb.flushes");
}

void Tlb::FlushRange(u64 vpn_begin, u64 vpn_end) {
  SpinGuard g(lock_);
  for (Entry& e : entries_) {
    if (Live(e) && e.vpn >= vpn_begin && e.vpn < vpn_end) {
      Invalidate(e);
    }
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
  SG_OBS_INC("tlb.flushes");
}

}  // namespace sg
