// Unit tests for vm/: regions (demand zero, COW, grow/shrink), the VA
// allocator, address-space scan order, the fault path, and accesses.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "hw/swap.h"
#include "hw/tlb.h"
#include "obs/stats.h"
#include "sync/seqcount.h"
#include "vm/access.h"
#include "vm/address_space.h"
#include "vm/layout.h"
#include "vm/region.h"
#include "vm/shared_space.h"
#include "vm/va_allocator.h"
#include "vm/vm_ops.h"

namespace sg {
namespace {

TEST(Region, DemandZeroResolve) {
  PhysMem mem(8 * kPageSize);
  auto r = Region::Alloc(mem, RegionType::kData, 4);
  EXPECT_EQ(r->pages(), 4u);
  EXPECT_EQ(r->ResidentPages(), 0u);
  auto res = r->Resolve(2, /*want_write=*/false, [](const PageResolution&) {});
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.value().writable);  // plain page: full access
  EXPECT_EQ(r->ResidentPages(), 1u);
  EXPECT_EQ(r->Resolve(9, false, [](const PageResolution&) {}).error(), Errno::kEFAULT);
}

TEST(Region, CowDupSharesThenSplits) {
  PhysMem mem(8 * kPageSize);
  auto a = Region::Alloc(mem, RegionType::kData, 2);
  const std::byte payload[] = {std::byte{1}, std::byte{2}, std::byte{3}};
  ASSERT_TRUE(a->FillFrom(0, payload).ok());
  auto b = a->DupCow();
  // Shared frame: one resident frame serves both; reads agree.
  std::byte out[3];
  ASSERT_TRUE(b->ReadBack(0, out).ok());
  EXPECT_EQ(0, std::memcmp(out, payload, 3));
  const u64 free_before = mem.FreeFrames();
  // Read resolve keeps sharing (maps read-only).
  auto read_res = b->Resolve(0, false, [](const PageResolution&) {});
  ASSERT_TRUE(read_res.ok());
  EXPECT_FALSE(read_res.value().writable);
  EXPECT_EQ(mem.FreeFrames(), free_before);
  // Write resolve breaks COW: new frame, contents preserved.
  auto write_res = b->Resolve(0, true, [](const PageResolution&) {});
  ASSERT_TRUE(write_res.ok());
  EXPECT_TRUE(write_res.value().writable);
  EXPECT_TRUE(write_res.value().frame_changed);
  EXPECT_EQ(mem.FreeFrames(), free_before - 1);
  ASSERT_TRUE(b->ReadBack(0, out).ok());
  EXPECT_EQ(0, std::memcmp(out, payload, 3));
  // The source side regains write access without copying (sole owner now).
  auto src_res = a->Resolve(0, true, [](const PageResolution&) {});
  ASSERT_TRUE(src_res.ok());
  EXPECT_FALSE(src_res.value().frame_changed);
}

TEST(Region, GrowAndShrinkFreeFrames) {
  PhysMem mem(8 * kPageSize);
  auto r = Region::Alloc(mem, RegionType::kData, 1);
  ASSERT_TRUE(r->GrowTo(4).ok());
  EXPECT_EQ(r->pages(), 4u);
  for (u64 i = 0; i < 4; ++i) {
    ASSERT_TRUE(r->Resolve(i, true, [](const PageResolution&) {}).ok());
  }
  const u64 free_before = mem.FreeFrames();
  ASSERT_TRUE(r->ShrinkTo(1).ok());
  EXPECT_EQ(mem.FreeFrames(), free_before + 3);
  EXPECT_EQ(r->GrowTo(0).error(), Errno::kEINVAL);
  EXPECT_EQ(r->ShrinkTo(5).error(), Errno::kEINVAL);
}

TEST(Region, FillAndReadBackAcrossPages) {
  PhysMem mem(8 * kPageSize);
  auto r = Region::Alloc(mem, RegionType::kData, 3);
  std::vector<std::byte> data(2 * kPageSize + 100);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 31);
  }
  ASSERT_TRUE(r->FillFrom(kPageSize / 2, data).ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(r->ReadBack(kPageSize / 2, out).ok());
  EXPECT_EQ(data, out);
  EXPECT_FALSE(r->FillFrom(2 * kPageSize, data).ok());  // overruns the region
}

// A swap-in and a COW break overwrite their whole new frame, so they take
// it unzeroed (PhysMem::AllocFrameForOverwrite). Each must read back
// exactly its own bytes from a frame that a previous owner dirtied.
TEST(Region, WholeFrameFillersOverwriteADirtyFrame) {
  PhysMem mem(8 * kPageSize);
  SwapSpace swap(8);
  mem.AttachSwap(&swap);
  // Frees a frame full of 0xee; the next allocation takes it.
  auto dirty_next_frame = [&] {
    auto prev = Region::Alloc(mem, RegionType::kAnon, 1);
    auto res = prev->Resolve(0, true, [](const PageResolution&) {});
    std::memset(mem.FrameData(res.value().pfn), 0xee, kPageSize);
    return res.value().pfn;
  };
  auto pattern = [](int mul) {
    std::vector<std::byte> p(kPageSize);
    for (size_t i = 0; i < p.size(); ++i) {
      p[i] = static_cast<std::byte>(i * mul + 1);
    }
    return p;
  };
  std::vector<std::byte> out(kPageSize);

  const auto swapped_bytes = pattern(7);
  auto swapped = Region::Alloc(mem, RegionType::kAnon, 1);
  ASSERT_TRUE(swapped->FillFrom(0, swapped_bytes).ok());
  ASSERT_EQ(swapped->StealPages(1, [](u64) {}), 1u);
  const pfn_t dirty = dirty_next_frame();
  auto in = swapped->Resolve(0, false, [](const PageResolution&) {});
  ASSERT_TRUE(in.ok());
  ASSERT_EQ(in.value().pfn, dirty);  // the swap-in took the dirtied frame
  ASSERT_TRUE(swapped->ReadBack(0, out).ok());
  EXPECT_EQ(out, swapped_bytes);

  const auto cow_bytes = pattern(13);
  auto src = Region::Alloc(mem, RegionType::kAnon, 1);
  ASSERT_TRUE(src->FillFrom(0, cow_bytes).ok());
  auto twin = src->DupCow();
  const pfn_t dirty_again = dirty_next_frame();
  auto broken = twin->Resolve(0, true, [](const PageResolution&) {});
  ASSERT_TRUE(broken.ok());
  ASSERT_TRUE(broken.value().frame_changed);
  ASSERT_EQ(broken.value().pfn, dirty_again);  // the COW copy took it
  ASSERT_TRUE(twin->ReadBack(0, out).ok());
  EXPECT_EQ(out, cow_bytes);
}

// A parked faulter: its `map` has not returned, so it holds its PTE's
// stripe until Release().
class ParkedFaulter {
 public:
  ParkedFaulter(Region& r, u64 idx)
      : thread_([this, &r, idx] {
          EXPECT_TRUE(r.Resolve(idx, false, [this](const PageResolution&) {
                         parked_ = true;
                         while (!release_) {
                           std::this_thread::yield();
                         }
                       }).ok());
        }) {
    while (!parked_) {
      std::this_thread::yield();
    }
  }
  ~ParkedFaulter() { Release(); }

  void Release() {
    release_ = true;
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  std::atomic<bool> parked_{false};
  std::atomic<bool> release_{false};
  std::thread thread_;  // last: starts after the flags exist
};

// A read fault on page `idx` in its own thread; `done` is set once it returns.
struct BackgroundFault {
  BackgroundFault(Region& r, u64 idx)
      : thread([this, &r, idx] {
          EXPECT_TRUE(r.Resolve(idx, false, [](const PageResolution&) {}).ok());
          done = true;
        }) {}
  ~BackgroundFault() { thread.join(); }

  std::atomic<bool> done{false};
  std::thread thread;
};

// The page table is locked in stripes of Region::kRunPtes PTEs: a fault on
// another stripe passes a parked faulter, and one on its run, its own page
// included, waits until the parked fault's map returns.
TEST(Region, FaultOnAnotherStripePassesAParkedFaulter) {
  PhysMem mem(8 * kPageSize);
  auto r = Region::Alloc(mem, RegionType::kAnon, Region::kRunPtes * Region::kStripes);
  ParkedFaulter parked(*r, 0);
  BackgroundFault other(*r, Region::kRunPtes);  // first page of the next stripe
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!other.done && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(other.done.load());
  BackgroundFault same(*r, 1);  // page 0's run
  BackgroundFault same_page(*r, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(same.done.load());
  EXPECT_FALSE(same_page.done.load());
  parked.Release();
}

// Resizes take every stripe, so a GrowTo waits for a faulter parked on any.
TEST(Region, GrowWaitsForAFaulterParkedOnAnyStripe) {
  PhysMem mem(8 * kPageSize);
  for (const u64 stripe : {u64{0}, Region::kStripes - 1}) {
    auto r = Region::Alloc(mem, RegionType::kAnon, Region::kRunPtes * Region::kStripes);
    ParkedFaulter parked(*r, stripe * Region::kRunPtes);
    std::atomic<bool> grown{false};
    std::thread grow([&] {
      EXPECT_TRUE(r->GrowTo(2 * r->pages()).ok());
      grown = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(grown.load()) << "stripe " << stripe;
    parked.Release();
    grow.join();
    EXPECT_TRUE(grown.load());
  }
}

// A present page refills with no stripe: TryRefill reads the PTE word and
// Tlb::InsertIf installs the translation only if the word is unchanged under
// the TLB lock. In each test a revoking writer lands between the read and
// the insert, which must back off; a refill with no writer in between is the
// control.
TEST(Region, RefillBacksOffWhenAStealLandsBeforeItsInsert) {
  PhysMem mem(8 * kPageSize);
  SwapSpace swap(8);
  mem.AttachSwap(&swap);
  auto r = Region::Alloc(mem, RegionType::kAnon, 1);
  ASSERT_TRUE(r->Resolve(0, true, [](const PageResolution&) {}).ok());
  Tlb tlb;
  auto insert = [&](pfn_t pfn, bool writable, auto&& unchanged) {
    return tlb.InsertIf(0, pfn, writable, unchanged);
  };
  ASSERT_TRUE(r->TryRefill(0, false, insert));
  ASSERT_EQ(tlb.Probe(0, false).kind, TlbProbe::Kind::kHit);
  tlb.FlushAll();
  u64 stolen = 0;
  EXPECT_FALSE(r->TryRefill(0, false, [&](pfn_t pfn, bool writable, auto&& unchanged) {
    stolen = r->StealPages(1, [&](u64 idx) { tlb.FlushPage(idx); });
    return insert(pfn, writable, unchanged);
  }));
  EXPECT_EQ(stolen, 1u);
  EXPECT_EQ(tlb.Probe(0, false).kind, TlbProbe::Kind::kMiss);
}

TEST(Region, RefillBacksOffWhenACowMarkLandsBeforeItsInsert) {
  PhysMem mem(8 * kPageSize);
  auto r = Region::Alloc(mem, RegionType::kAnon, 1);
  ASSERT_TRUE(r->Resolve(0, true, [](const PageResolution&) {}).ok());
  Tlb tlb;
  auto insert = [&](pfn_t pfn, bool writable, auto&& unchanged) {
    return tlb.InsertIf(0, pfn, writable, unchanged);
  };
  ASSERT_TRUE(r->TryRefill(0, true, insert));
  ASSERT_EQ(tlb.Probe(0, true).kind, TlbProbe::Kind::kHit);
  tlb.FlushAll();
  std::shared_ptr<Region> twin;
  EXPECT_FALSE(r->TryRefill(0, true, [&](pfn_t pfn, bool writable, auto&& unchanged) {
    twin = r->DupCow();
    return insert(pfn, writable, unchanged);
  }));
  EXPECT_NE(twin, nullptr);
  EXPECT_NE(tlb.Probe(0, true).kind, TlbProbe::Kind::kHit);
}

TEST(VaAllocator, UpDownAndReserve) {
  VaAllocator va(kArenaBase, kArenaEnd, kStackTop);
  auto a = va.AllocUp(2);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value(), kArenaBase);
  auto b = va.AllocUp(1);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value(), kArenaBase + 2 * kPageSize);
  va.Free(a.value());
  auto c = va.AllocUp(1);  // first fit reuses the hole
  EXPECT_EQ(c.value(), kArenaBase);
  auto d = va.AllocUp(2);  // does not fit in the 1-page remainder of the hole
  EXPECT_EQ(d.value(), kArenaBase + 3 * kPageSize);

  auto s1 = va.AllocDown(4);
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1.value(), kStackTop - 4 * kPageSize);
  auto s2 = va.AllocDown(4);
  EXPECT_EQ(s2.value(), kStackTop - 8 * kPageSize);
  va.Free(s1.value());
  auto s3 = va.AllocDown(2);  // reuses the top gap
  EXPECT_EQ(s3.value(), kStackTop - 2 * kPageSize);

  EXPECT_TRUE(va.Reserve(kArenaBase + 16 * kPageSize, 4).ok());
  EXPECT_FALSE(va.Reserve(kArenaBase + 17 * kPageSize, 1).ok());  // overlap
  EXPECT_FALSE(va.Reserve(kArenaBase + 1, 1).ok());               // unaligned
}

TEST(VaAllocator, ExhaustionReturnsEnomem) {
  VaAllocator va(kArenaBase, kArenaBase + 4 * kPageSize, kArenaBase + 8 * kPageSize);
  EXPECT_TRUE(va.AllocUp(4).ok());
  EXPECT_EQ(va.AllocUp(1).error(), Errno::kENOMEM);
  EXPECT_TRUE(va.AllocDown(4).ok());
  EXPECT_EQ(va.AllocDown(1).error(), Errno::kENOMEM);
}

// Builds a bare AddressSpace with a data pregion for fault-path tests.
struct Fixture {
  PhysMem mem{64 * kPageSize};
  CpuSet cpus{2};
  AddressSpace as{mem};

  Fixture() {
    auto data = Region::Alloc(mem, RegionType::kData, 4);
    as.AttachPrivate(std::make_unique<Pregion>(std::move(data), kDataBase, kProtRw));
  }
};

TEST(Fault, LoadStoreRoundTrip) {
  Fixture f;
  ASSERT_TRUE(Store<u32>(f.as, kDataBase + 8, 0xdeadbeef).ok());
  auto v = Load<u32>(f.as, kDataBase + 8);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 0xdeadbeefu);
  EXPECT_GE(f.as.faults.load(), 1u);
}

TEST(Fault, UnmappedAddressFaults) {
  Fixture f;
  EXPECT_EQ(Load<u32>(f.as, 0x50).error(), Errno::kEFAULT);
  EXPECT_EQ(Store<u32>(f.as, kDataBase + 4 * kPageSize, 1).error(), Errno::kEFAULT);
}

TEST(Fault, ProtectionEnforced) {
  Fixture f;
  auto ro = Region::Alloc(f.mem, RegionType::kText, 1);
  f.as.AttachPrivate(std::make_unique<Pregion>(std::move(ro), kTextBase, kProtRx));
  EXPECT_TRUE(Load<u32>(f.as, kTextBase).ok());
  EXPECT_EQ(Store<u32>(f.as, kTextBase, 1).error(), Errno::kEFAULT);
}

TEST(Fault, MisalignedScalarRejected) {
  Fixture f;
  EXPECT_EQ(Load<u32>(f.as, kDataBase + 2).error(), Errno::kEFAULT);
}

TEST(Fault, AtomicErrorPathsDistinguished) {
  // The word atomics separate the two failure modes: a misaligned va is a
  // contract violation (kEINVAL), while kEFAULT is reserved for addresses
  // that are unmapped or forbidden — same split on the write-side ops.
  Fixture f;
  EXPECT_EQ(AtomicLoad32(f.as, kDataBase + 2).error(), Errno::kEINVAL);
  EXPECT_EQ(AtomicStore32(f.as, kDataBase + 2, 1).error(), Errno::kEINVAL);
  EXPECT_EQ(AtomicFetchAdd32(f.as, kDataBase + 6, 1).error(), Errno::kEINVAL);
  const vaddr_t unmapped = kDataBase + 64 * kPageSize;
  EXPECT_EQ(AtomicLoad32(f.as, unmapped).error(), Errno::kEFAULT);
  EXPECT_EQ(AtomicStore32(f.as, unmapped, 1).error(), Errno::kEFAULT);
  EXPECT_EQ(AtomicCas32(f.as, unmapped, 0, 1).error(), Errno::kEFAULT);
}

TEST(Fault, CopyInOutAcrossPages) {
  Fixture f;
  std::vector<std::byte> in(3 * kPageSize / 2);
  for (size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::byte>(i);
  }
  ASSERT_TRUE(CopyOut(f.as, kDataBase + 100, in.data(), in.size()).ok());
  std::vector<std::byte> out(in.size());
  ASSERT_TRUE(CopyIn(f.as, out.data(), kDataBase + 100, out.size()).ok());
  EXPECT_EQ(in, out);
  EXPECT_TRUE(FillUser(f.as, kDataBase, 0x5a, 64).ok());
  auto b = Load<u8>(f.as, kDataBase + 63);
  EXPECT_EQ(b.value(), 0x5au);
}

TEST(Fault, PrivateShadowsShared) {
  // Private pregions are scanned FIRST (§6.2) — a private page at the same
  // address wins over the shared list's mapping.
  PhysMem mem(16 * kPageSize);
  CpuSet cpus(1);
  SharedSpace ss(cpus);
  AddressSpace as(mem);
  as.set_shared(&ss);
  {
    UpdateGuard g(ss.lock());
    ss.AddMemberTlb(&as.tlb());
    auto shared = Region::Alloc(mem, RegionType::kData, 1);
    const std::byte v[] = {std::byte{0xaa}};
    ASSERT_TRUE(shared->FillFrom(0, v).ok());
    ss.AttachPregion(std::make_unique<Pregion>(std::move(shared), kDataBase, kProtRw));
  }
  EXPECT_EQ(Load<u8>(as, kDataBase).value(), 0xaau);
  // Attach a private region shadowing the same address.
  as.tlb().FlushAll();
  auto priv = Region::Alloc(mem, RegionType::kPrda, 1);
  const std::byte v2[] = {std::byte{0xbb}};
  ASSERT_TRUE(priv->FillFrom(0, v2).ok());
  as.AttachPrivate(std::make_unique<Pregion>(std::move(priv), kDataBase, kProtRw));
  EXPECT_EQ(Load<u8>(as, kDataBase).value(), 0xbbu);
}

TEST(Lookup, SharedHintInvalidatedByImageUpdate) {
  // A detach plus a reattach at the same address: the lookup must find the
  // NEW pregion, never the destroyed one.
  PhysMem mem(16 * kPageSize);
  CpuSet cpus(1);
  SharedSpace ss(cpus);
  AddressSpace as(mem);
  as.set_shared(&ss);
  {
    UpdateGuard g(ss.lock());
    ss.AddMemberTlb(&as.tlb());
    ss.AttachPregion(std::make_unique<Pregion>(
        Region::Alloc(mem, RegionType::kAnon, 1), kArenaBase, kProtRw));
  }
  {
    UpdateGuard g(ss.lock());
    Pregion* first = as.FindPregion(kArenaBase);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(as.FindPrivate(kArenaBase), nullptr);  // found on the shared list
    EXPECT_EQ(first->region->pages(), 1u);
  }
  {
    UpdateGuard g(ss.lock());
    auto old_pr = ss.DetachPregion(kArenaBase);
    ASSERT_NE(old_pr, nullptr);
    old_pr.reset();  // destroyed
    ss.AttachPregion(std::make_unique<Pregion>(
        Region::Alloc(mem, RegionType::kAnon, 2), kArenaBase, kProtRw));
  }
  {
    UpdateGuard g(ss.lock());
    Pregion* second = as.FindPregion(kArenaBase);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->region->pages(), 2u);  // the new pregion
  }
}

TEST(Lookup, PrivateHintDroppedOnDetach) {
  // After Unmap erases a private pregion, a lookup at its address finds
  // nothing.
  Fixture f;
  auto a = MapAnon(f.as, kPageSize);
  ASSERT_TRUE(a.ok());
  Pregion* pr = f.as.FindPregion(a.value());
  ASSERT_NE(pr, nullptr);
  EXPECT_EQ(f.as.FindPrivate(a.value()), pr);  // found on the private list
  ASSERT_TRUE(Unmap(f.as, a.value()).ok());
  EXPECT_EQ(f.as.FindPregion(a.value()), nullptr);
}

TEST(VmOps, SbrkGrowShrinkRoundTrip) {
  Fixture f;
  auto brk0 = Sbrk(f.as, 0);
  ASSERT_TRUE(brk0.ok());
  auto old = Sbrk(f.as, static_cast<i64>(2 * kPageSize));
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(old.value(), brk0.value());
  EXPECT_EQ(Sbrk(f.as, 0).value(), brk0.value() + 2 * kPageSize);
  ASSERT_TRUE(Store<u32>(f.as, brk0.value(), 7).ok());
  auto back = Sbrk(f.as, -static_cast<i64>(2 * kPageSize));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(Sbrk(f.as, 0).value(), brk0.value());
  // The shrunk range faults again.
  EXPECT_EQ(Load<u32>(f.as, brk0.value()).error(), Errno::kEFAULT);
}

TEST(VmOps, SbrkRespectsMaxDataPages) {
  Fixture f;
  EXPECT_EQ(Sbrk(f.as, static_cast<i64>(kPageSize), /*max_data_pages=*/4).error(),
            Errno::kENOMEM);
  EXPECT_TRUE(Sbrk(f.as, static_cast<i64>(kPageSize), 5).ok());
}

TEST(VmOps, MapUnmapPrivate) {
  Fixture f;
  auto a = MapAnon(f.as, 3 * kPageSize);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(Store<u32>(f.as, a.value() + kPageSize, 9).ok());
  ASSERT_TRUE(Unmap(f.as, a.value()).ok());
  EXPECT_EQ(Load<u32>(f.as, a.value()).error(), Errno::kEFAULT);
  EXPECT_EQ(Unmap(f.as, a.value()).error(), Errno::kEINVAL);
  EXPECT_EQ(Unmap(f.as, kDataBase).error(), Errno::kEINVAL);  // not an arena mapping
}

TEST(VmOps, ForkDuplicationSharesTextCowsData) {
  Fixture f;
  auto text = Region::Alloc(f.mem, RegionType::kText, 1);
  f.as.AttachPrivate(std::make_unique<Pregion>(text, kTextBase, kProtRx));
  ASSERT_TRUE(Store<u32>(f.as, kDataBase, 41).ok());

  AddressSpace child(f.mem);
  ASSERT_TRUE(DuplicateForFork(f.as, child).ok());
  // Text: same region object (shared, it is immutable).
  EXPECT_EQ(child.FindPrivate(kTextBase)->region.get(), text.get());
  // Data: different region object (COW twin).
  EXPECT_NE(child.FindPrivate(kDataBase)->region.get(),
            f.as.FindPrivate(kDataBase)->region.get());
  EXPECT_EQ(Load<u32>(child, kDataBase).value(), 41u);
  ASSERT_TRUE(Store<u32>(child, kDataBase, 42).ok());
  EXPECT_EQ(Load<u32>(f.as, kDataBase).value(), 41u);
}

// A shared sbrk may move the data region's page table, which lockless
// refills read under an epoch pin, so it drains the pins before it resizes.
TEST(VmOps, SharedSbrkGrowWaitsForAPinnedReader) {
  PhysMem mem(16 * kPageSize);
  CpuSet cpus(2);
  SharedSpace ss(cpus);
  AddressSpace as(mem);
  as.set_shared(&ss);
  {
    UpdateGuard g(ss.lock());
    ss.AddMemberTlb(&as.tlb());
    ss.AttachPregion(std::make_unique<Pregion>(Region::Alloc(mem, RegionType::kData, 1),
                                               kDataBase, kProtRw));
  }
  std::atomic<bool> pinned{false};
  std::atomic<bool> unpin{false};
  std::thread reader([&] {
    SharedSpace::EpochGuard pin(ss);
    pinned = true;
    while (!unpin) {
      std::this_thread::yield();
    }
  });
  while (!pinned) {
    std::this_thread::yield();
  }
  std::atomic<bool> grown{false};
  Result<vaddr_t> old_brk = Errno::kEFAULT;
  std::thread grow([&] {
    old_brk = Sbrk(as, static_cast<i64>(kPageSize));
    grown = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(grown.load()) << "the grow did not wait for the pinned reader";
  unpin = true;
  reader.join();
  grow.join();
  ASSERT_TRUE(old_brk.ok());
  EXPECT_EQ(old_brk.value(), kDataBase + kPageSize);
  EXPECT_EQ(Sbrk(as, 0).value(), kDataBase + 2 * kPageSize);
}

TEST(VmOps, OutOfFramesSurfacesEnomem) {
  PhysMem tiny(2 * kPageSize);
  AddressSpace as(tiny);
  auto data = Region::Alloc(tiny, RegionType::kData, 8);
  as.AttachPrivate(std::make_unique<Pregion>(std::move(data), kDataBase, kProtRw));
  ASSERT_TRUE(Store<u32>(as, kDataBase, 1).ok());
  ASSERT_TRUE(Store<u32>(as, kDataBase + kPageSize, 2).ok());
  EXPECT_EQ(Store<u32>(as, kDataBase + 2 * kPageSize, 3).error(), Errno::kENOMEM);
}

// The two §6.2 behaviours the group's update lock carries for faults: a
// member that traps during an update waits until it completes, and an
// update completes against faulters that never stop.

// An open layout write section sends a faulter past the lockless path to
// the update lock, where it must wait until the updater releases.
TEST(FaultFallback, BlocksUntilUpdaterReleases) {
  PhysMem mem(16 * kPageSize);
  CpuSet cpus(2);
  SharedSpace ss(cpus);
  AddressSpace updater(mem);
  AddressSpace faulter(mem);
  updater.set_shared(&ss);
  faulter.set_shared(&ss);
  {
    UpdateGuard g(ss.lock());
    ss.AddMemberTlb(&updater.tlb());
    ss.AddMemberTlb(&faulter.tlb());
  }
  auto base = MapAnon(updater, kPageSize);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(Store<u32>(updater, base.value(), 0x5eed).ok());

  obs::Stats& stats = obs::Stats::Global();
  const u64 fallbacks0 = stats.CounterValue("vm.fault.fallbacks");
  std::atomic<bool> done{false};
  Result<u32> got = Errno::kEFAULT;
  std::thread t;
  {
    UpdateGuard g(ss.lock());
    SeqWriter w(ss.layout_seq());
    t = std::thread([&] {
      got = Load<u32>(faulter, base.value());
      done = true;
    });
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (stats.CounterValue("vm.fault.fallbacks") == fallbacks0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_GT(stats.CounterValue("vm.fault.fallbacks"), fallbacks0);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(done.load()) << "the fallback faulter did not wait for the updater";
  }
  t.join();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 0x5eedu);
}

// A copy-on-write break taken on the fallback path replaces a frame other
// members may still translate to, so it must flush every member, as the
// lockless path does. The reader caches a read-only translation of a frame
// a fork child shares; the writer's store, sent to the fallback by an open
// write section, breaks the COW; the reader must then see the new frame.
TEST(FaultFallback, CowBreakFlushesEveryMember) {
  PhysMem mem(16 * kPageSize);
  CpuSet cpus(2);
  SharedSpace ss(cpus);
  AddressSpace writer(mem);
  AddressSpace reader(mem);
  writer.set_shared(&ss);
  reader.set_shared(&ss);
  {
    UpdateGuard g(ss.lock());
    ss.AddMemberTlb(&writer.tlb());
    ss.AddMemberTlb(&reader.tlb());
  }
  auto base = MapAnon(writer, kPageSize);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(Store<u32>(writer, base.value(), 1).ok());
  AddressSpace child(mem);
  ASSERT_TRUE(DuplicateForFork(writer, child).ok());  // the frame is COW-shared now
  ASSERT_EQ(Load<u32>(reader, base.value()).value(), 1u);  // cached read-only

  obs::Stats& stats = obs::Stats::Global();
  const u64 fallbacks0 = stats.CounterValue("vm.fault.fallbacks");
  const u64 cow_breaks0 = stats.CounterValue("vm.cow_breaks");
  Status stored = Errno::kEFAULT;
  std::thread t;
  {
    UpdateGuard g(ss.lock());
    SeqWriter w(ss.layout_seq());
    t = std::thread([&] { stored = Store<u32>(writer, base.value(), 2); });
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (stats.CounterValue("vm.fault.fallbacks") == fallbacks0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }
  t.join();
  ASSERT_TRUE(stored.ok());
  EXPECT_GT(stats.CounterValue("vm.fault.fallbacks"), fallbacks0);
  EXPECT_GT(stats.CounterValue("vm.cow_breaks"), cow_breaks0);
  EXPECT_EQ(Load<u32>(reader, base.value()).value(), 2u);
  EXPECT_EQ(Load<u32>(child, base.value()).value(), 1u);
}

// Faulters refault a shared page as fast as they can while one updater
// maps and unmaps. Every cycle must finish while the stream still runs: if
// the faulters (lockless, or queued on the lock behind an update) could
// starve the updater, this test never terminates.
TEST(FaultFallback, UpdaterFinishesAgainstContinuousFaultStream) {
  PhysMem mem(64 * kPageSize);
  CpuSet cpus(4);
  SharedSpace ss(cpus);
  constexpr int kFaulters = 3;
  constexpr int kCycles = 300;
  std::vector<std::unique_ptr<AddressSpace>> members;
  for (int i = 0; i < kFaulters + 1; ++i) {
    members.push_back(std::make_unique<AddressSpace>(mem));
    members.back()->set_shared(&ss);
  }
  {
    UpdateGuard g(ss.lock());
    for (auto& m : members) {
      ss.AddMemberTlb(&m->tlb());
    }
  }
  AddressSpace& updater = *members[0];
  auto base = MapAnon(updater, kPageSize);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(Store<u32>(updater, base.value(), 7).ok());

  std::atomic<bool> stop{false};
  std::atomic<u64> loads{0};
  std::atomic<bool> bad_load{false};
  std::vector<std::thread> faulters;
  for (int i = 1; i <= kFaulters; ++i) {
    faulters.emplace_back([&, i] {
      AddressSpace& as = *members[static_cast<size_t>(i)];
      while (!stop.load(std::memory_order_relaxed)) {
        as.tlb().FlushAll();  // every load faults
        auto v = Load<u32>(as, base.value());
        if (!v.ok() || v.value() != 7) {
          bad_load = true;
        }
        loads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (loads.load() == 0) {
    std::this_thread::yield();
  }
  const u64 updates0 = ss.lock().updates();
  int cycles = 0;
  for (; cycles < kCycles; ++cycles) {
    auto a = MapAnon(updater, kPageSize);
    if (!a.ok() || !Store<u32>(updater, a.value(), 1).ok() || !Unmap(updater, a.value()).ok()) {
      break;
    }
  }
  // All cycles completed while the faulters were still streaming. (How
  // many loads they managed meanwhile depends on host scheduling, so it is
  // not checked.)
  EXPECT_EQ(cycles, kCycles);
  EXPECT_FALSE(stop.load());
  stop = true;
  for (auto& t : faulters) {
    t.join();
  }
  EXPECT_FALSE(bad_load.load());
  EXPECT_GE(ss.lock().updates() - updates0, static_cast<u64>(2 * kCycles));
}

}  // namespace
}  // namespace sg
