// The paging subsystem: swap-device mechanics, clock stealing, transparent
// fault-path reclaim, and data integrity under thrash — including a share
// group where the pager (on the group's update lock) and faulting members
// scan the same pregion list ("operations that scan (page fault, pager)").
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "api/kernel.h"
#include "api/user_env.h"
#include "hw/swap.h"
#include "hw/tlb.h"
#include "vm/pager.h"

namespace sg {
namespace {

void RunAsProcess(Kernel& k, std::function<void(Env&)> body) {
  auto pid = k.Launch([body = std::move(body)](Env& env, long) { body(env); });
  ASSERT_TRUE(pid.ok());
  k.WaitAll();
}

TEST(SwapDevice, SlotLifecycle) {
  SwapSpace swap(4);
  EXPECT_EQ(swap.SlotsFree(), 4u);
  std::byte page[kPageSize];
  std::memset(page, 0x5a, sizeof(page));
  auto slot = swap.WriteOut(page);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(swap.SlotsFree(), 3u);
  std::byte back[kPageSize] = {};
  swap.ReadInAndFree(slot.value(), back);
  EXPECT_EQ(back[0], std::byte{0x5a});
  EXPECT_EQ(back[kPageSize - 1], std::byte{0x5a});
  EXPECT_EQ(swap.SlotsFree(), 4u);
  EXPECT_EQ(swap.outs(), 1u);
  EXPECT_EQ(swap.ins(), 1u);
}

TEST(SwapDevice, ExhaustionAndDuplicate) {
  SwapSpace swap(2);
  std::byte page[kPageSize];
  std::memset(page, 1, sizeof(page));
  auto a = swap.WriteOut(page);
  auto dup = swap.Duplicate(a.value());
  ASSERT_TRUE(dup.ok());
  EXPECT_NE(dup.value(), a.value());
  EXPECT_EQ(swap.WriteOut(page).error(), Errno::kENOSPC);  // full
  std::byte back[kPageSize] = {};
  swap.Peek(dup.value(), back);
  EXPECT_EQ(back[17], std::byte{1});
}

TEST(Pager, StealAndFaultBackPreservesData) {
  PhysMem mem(32 * kPageSize);
  SwapSpace swap(64);
  mem.AttachSwap(&swap);
  AddressSpace as(mem);
  auto data = Region::Alloc(mem, RegionType::kData, 8);
  Region* region = data.get();
  as.AttachPrivate(std::make_unique<Pregion>(std::move(data), kDataBase, kProtRw));
  for (u64 i = 0; i < 8; ++i) {
    ASSERT_TRUE(Store<u32>(as, kDataBase + i * kPageSize, static_cast<u32>(1000 + i)).ok());
  }
  EXPECT_EQ(region->ResidentPages(), 8u);
  // First sweep clears reference bits; second harvests.
  const u64 stolen = ReclaimPages(as, 8);
  EXPECT_EQ(stolen, 8u);
  EXPECT_EQ(region->ResidentPages(), 0u);
  EXPECT_EQ(region->SwappedPages(), 8u);
  EXPECT_EQ(swap.outs(), 8u);
  // Touch them back in: major faults restore the exact contents.
  for (u64 i = 0; i < 8; ++i) {
    auto v = Load<u32>(as, kDataBase + i * kPageSize);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), 1000 + i);
  }
  EXPECT_EQ(swap.ins(), 8u);
  EXPECT_EQ(region->SwappedPages(), 0u);
}

TEST(Pager, ReferencedPagesGetASecondChance) {
  PhysMem mem(32 * kPageSize);
  SwapSpace swap(64);
  mem.AttachSwap(&swap);
  AddressSpace as(mem);
  auto data = Region::Alloc(mem, RegionType::kData, 4);
  Region* region = data.get();
  as.AttachPrivate(std::make_unique<Pregion>(std::move(data), kDataBase, kProtRw));
  for (u64 i = 0; i < 4; ++i) {
    ASSERT_TRUE(Store<u32>(as, kDataBase + i * kPageSize, 1).ok());
  }
  // Ask for ONE page: the first sweep clears all four clock bits; the
  // second sweep steals the first cold page it meets.
  EXPECT_EQ(ReclaimPages(as, 1), 1u);
  EXPECT_EQ(region->ResidentPages(), 3u);
}

// A fault sets a cleared clock bit again. A sweep clears page 1's bit (and
// steals page 0); once page 1's TLB entry is flushed, the next access
// refaults it, so the next sweep spares page 1 and steals the cold page 2.
TEST(Pager, RefaultAfterSweepSetsTheClockBitAgain) {
  PhysMem mem(32 * kPageSize);
  SwapSpace swap(64);
  mem.AttachSwap(&swap);
  AddressSpace as(mem);
  auto data = Region::Alloc(mem, RegionType::kData, 4);
  Region* region = data.get();
  as.AttachPrivate(std::make_unique<Pregion>(std::move(data), kDataBase, kProtRw));
  for (u64 i = 0; i < 4; ++i) {
    ASSERT_TRUE(Store<u32>(as, kDataBase + i * kPageSize, static_cast<u32>(10 + i)).ok());
  }
  ASSERT_EQ(ReclaimPages(as, 1), 1u);  // clears all four bits, steals page 0
  ASSERT_EQ(swap.outs(), 1u);
  const vaddr_t page1 = kDataBase + kPageSize;
  as.tlb().FlushPage(PageOf(page1));
  ASSERT_EQ(Load<u32>(as, page1).value(), 11u);  // refault: a minor fault
  EXPECT_EQ(ReclaimPages(as, 1), 1u);
  EXPECT_EQ(region->ResidentPages(), 2u);
  // Page 1 stayed resident: reading it again needs no swap-in.
  const u64 ins = swap.ins();
  as.tlb().FlushPage(PageOf(page1));
  EXPECT_EQ(Load<u32>(as, page1).value(), 11u);
  EXPECT_EQ(swap.ins(), ins);
  // Page 2 went out instead.
  EXPECT_EQ(Load<u32>(as, kDataBase + 2 * kPageSize).value(), 12u);
  EXPECT_EQ(swap.ins(), ins + 1);
}

TEST(Pager, SharedFramesAreNeverStolen) {
  PhysMem mem(32 * kPageSize);
  SwapSpace swap(64);
  mem.AttachSwap(&swap);
  AddressSpace as(mem);
  auto data = Region::Alloc(mem, RegionType::kData, 2);
  as.AttachPrivate(std::make_unique<Pregion>(data, kDataBase, kProtRw));
  ASSERT_TRUE(Store<u32>(as, kDataBase, 7).ok());
  auto twin = data->DupCow();  // the frame is now COW-shared
  EXPECT_EQ(ReclaimPages(as, 4), 0u);  // nothing eligible
  (void)twin;
}

// The region-level twin of SharedFramesAreNeverStolen: a region that a
// second address space also attaches is never stolen. The pager flushes
// only the sweeping space's TLBs, so a fork child sharing the parent's
// MAP_SHARED mapping would keep a translation to the stolen frame after
// its reuse, and read another page's data through it.
TEST(Pager, StealSkipsRegionAForkChildAlsoMaps) {
  BootParams bp;
  bp.phys_mem_bytes = 48 * kPageSize;
  bp.swap_pages = 256;
  Kernel k(bp);
  RunAsProcess(k, [&](Env& env) {
    const int fd = env.Open("/blob", kOpenRdwr | kOpenCreat);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(env.WriteStr(fd, "blob"), 4);
    const vaddr_t a = env.MmapFile(fd, 0, kPageSize, /*shared=*/true);
    ASSERT_NE(a, 0u);
    env.Store32(a, 1);
    std::atomic<bool> cached{false};
    std::atomic<bool> release{false};
    std::atomic<u32> child_saw{0};
    env.Fork([&, a](Env& c, long) {
      EXPECT_EQ(c.Load32(a), 1u);  // caches the translation
      cached = true;
      while (!release.load()) {
        c.Yield();
      }
      child_saw = c.Load32(a);
    });
    while (!cached.load()) {
      env.Yield();
    }
    // Twice the frames in fresh anonymous pages: the parent's faults run
    // the pager over its own image, the shared mapping included.
    constexpr u64 kPages = 96;
    const vaddr_t anon = env.Mmap(kPages * kPageSize);
    ASSERT_NE(anon, 0u);
    for (int round = 0; round < 3; ++round) {
      for (u64 i = 0; i < kPages; ++i) {
        env.Store32(anon + i * kPageSize, 77);
      }
    }
    env.Store32(a, 2);
    release = true;
    env.WaitChild();
    EXPECT_EQ(child_saw.load(), 2u);
  });
  EXPECT_EQ(k.mem().FreeFrames(), k.mem().TotalFrames());
}

// A fault resolves and inserts its translation under the region lock, and
// a steal flushes and copies out under it. So a steal racing a fault lands
// after the insert, and its flush removes the fresh translation: none to
// the stolen frame survives. The clock's first pass over the page waits out
// the fault's hold and clears the referenced bit; its second pass steals.
TEST(Pager, StealCannotFallBetweenResolveAndInsert) {
  PhysMem mem(8 * kPageSize);
  SwapSpace swap(8);
  mem.AttachSwap(&swap);
  auto region = Region::Alloc(mem, RegionType::kAnon, 1);
  ASSERT_TRUE(region->Resolve(0, true, [](const PageResolution&) {}).ok());
  Tlb tlb;
  std::atomic<bool> mapping{false};
  std::atomic<bool> flushed{false};
  bool flushed_before_insert = true;
  auto slow_map = [&](const PageResolution& res) {
    mapping = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    flushed_before_insert = flushed.load();
    tlb.Insert(0, res.pfn, res.writable);
  };
  std::thread faulter([&] { EXPECT_TRUE(region->Resolve(0, false, slow_map).ok()); });
  while (!mapping) {
    std::this_thread::yield();
  }
  const u64 stolen = region->StealPages(1, [&](u64 idx) {
    flushed = true;
    tlb.FlushPage(idx);
  });
  faulter.join();
  EXPECT_FALSE(flushed_before_insert);
  EXPECT_EQ(stolen, 1u);
  EXPECT_EQ(tlb.Probe(0, false).kind, TlbProbe::Kind::kMiss);
}

TEST(Pager, FaultPathReclaimsTransparently) {
  // 48 frames of memory, a working set of ~80 pages, plenty of swap: every
  // touch must succeed, with the pager running inside the fault path.
  BootParams bp;
  bp.phys_mem_bytes = 48 * kPageSize;
  bp.swap_pages = 512;
  Kernel k(bp);
  RunAsProcess(k, [&](Env& env) {
    constexpr u64 kPages = 80;
    const vaddr_t a = env.Mmap(kPages * kPageSize);
    ASSERT_NE(a, 0u);
    for (u64 i = 0; i < kPages; ++i) {
      env.Store32(a + i * kPageSize, static_cast<u32>(i * 31));
    }
    // Re-read everything: swapped-out pages fault back in (and push others
    // out); all data survives.
    for (u64 i = 0; i < kPages; ++i) {
      ASSERT_EQ(env.Load32(a + i * kPageSize), static_cast<u32>(i * 31)) << i;
    }
  });
  ASSERT_NE(k.swap(), nullptr);
  EXPECT_GT(k.swap()->outs(), 0u);
  EXPECT_GT(k.swap()->ins(), 0u);
  EXPECT_EQ(k.mem().FreeFrames(), k.mem().TotalFrames());  // no frame leaks
}

TEST(Pager, ShareGroupThrashKeepsDataCoherent) {
  BootParams bp;
  bp.phys_mem_bytes = 64 * kPageSize;
  bp.swap_pages = 1024;
  Kernel k(bp);
  RunAsProcess(k, [&](Env& env) {
    constexpr u64 kPages = 48;
    const vaddr_t a = env.Mmap(kPages * kPageSize);
    constexpr int kMembers = 3;
    for (int m = 0; m < kMembers; ++m) {
      env.Sproc(
          [a](Env& c, long idx) {
            // Each member owns a page-stride; rounds of write-then-verify
            // while the pager steals around us.
            for (int round = 0; round < 4; ++round) {
              for (u64 p = static_cast<u64>(idx); p < kPages; p += kMembers) {
                c.Store32(a + p * kPageSize, static_cast<u32>(round * 1000 + p));
              }
              for (u64 p = static_cast<u64>(idx); p < kPages; p += kMembers) {
                ASSERT_EQ(c.Load32(a + p * kPageSize), static_cast<u32>(round * 1000 + p));
              }
            }
          },
          PR_SADDR, m);
    }
    for (int m = 0; m < kMembers; ++m) {
      env.WaitChild();
    }
    // Final cross-check from the parent through its own translations.
    for (u64 p = 0; p < kPages; ++p) {
      ASSERT_EQ(env.Load32(a + p * kPageSize), static_cast<u32>(3000 + p));
    }
  });
  EXPECT_EQ(k.mem().FreeFrames(), k.mem().TotalFrames());
  EXPECT_EQ(k.swap()->SlotsFree(), 1024u);  // every slot returned
}

TEST(Pager, SwapAndMemoryBothExhaustedStillErrorsCleanly) {
  BootParams bp;
  bp.phys_mem_bytes = 40 * kPageSize;
  bp.swap_pages = 8;
  Kernel k(bp);
  RunAsProcess(k, [&](Env& env) {
    const vaddr_t a = env.Mmap(256 * kPageSize);
    pid_t pid = env.Sproc(
        [a](Env& c, long) {
          for (u64 i = 0; i < 256; ++i) {
            c.Store32(a + i * kPageSize, 1);
          }
          ADD_FAILURE() << "exceeded memory + swap yet survived";
        },
        PR_SADDR);
    int sig = 0;
    EXPECT_EQ(env.WaitChild(nullptr, &sig), pid);
    EXPECT_EQ(sig, kSigSegv);
  });
  EXPECT_EQ(k.mem().FreeFrames(), k.mem().TotalFrames());
}

TEST(Pager, ForkDuplicatesSwappedPages) {
  BootParams bp;
  bp.phys_mem_bytes = 64 * kPageSize;
  bp.swap_pages = 256;
  Kernel k(bp);
  RunAsProcess(k, [&](Env& env) {
    const vaddr_t a = env.Mmap(4 * kPageSize);
    for (u64 i = 0; i < 4; ++i) {
      env.Store32(a + i * kPageSize, static_cast<u32>(50 + i));
    }
    // Push our pages out by hand, then fork: the child must inherit copies
    // of the SWAPPED pages too.
    ASSERT_EQ(sg::ReclaimPages(env.proc().as, 4), 4u);
    std::atomic<bool> child_ok{true};
    env.Fork([&, a](Env& c, long) {
      for (u64 i = 0; i < 4; ++i) {
        if (c.Load32(a + i * kPageSize) != 50 + i) {
          child_ok = false;
        }
      }
      c.Store32(a, 9999);
    });
    env.WaitChild();
    EXPECT_TRUE(child_ok.load());
    EXPECT_EQ(env.Load32(a), 50u);  // the child's write stayed in its copy
  });
  EXPECT_EQ(k.swap()->SlotsFree(), 256u);
}

}  // namespace
}  // namespace sg
