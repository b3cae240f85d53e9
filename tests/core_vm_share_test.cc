// §6.2 virtual-space sharing: immediate visibility of VM-image updates,
// lockless fault scans beside the update lock, the synchronous TLB
// shootdown on shrink/detach, and copy-on-write interactions between a
// group and its fork children.
#include <gtest/gtest.h>

#include <atomic>

#include "api/kernel.h"
#include "api/user_env.h"
#include "obs/stats.h"

namespace sg {
namespace {

void RunAsProcess(Kernel& k, std::function<void(Env&)> body) {
  auto pid = k.Launch([body = std::move(body)](Env& env, long) { body(env); });
  ASSERT_TRUE(pid.ok());
  k.WaitAll();
}

TEST(VmShare, MmapInOneMemberImmediatelyVisible) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<vaddr_t> addr{0};
    std::atomic<bool> done{false};
    env.Sproc(
        [&](Env& c, long) {
          vaddr_t a = c.Mmap(kPageSize);
          ASSERT_NE(a, 0u);
          c.Store32(a, 31337);
          addr = a;
          while (!done.load()) {
            c.Yield();
          }
        },
        PR_SADDR);
    while (addr.load() == 0) {
      env.Yield();
    }
    // "if one process adds a pregion (say through a mmap(2) call) all other
    // share group members will immediately see that new virtual region."
    EXPECT_EQ(env.Load32(addr.load()), 31337u);
    done = true;
    env.WaitChild();
  });
}

TEST(VmShare, SbrkGrowVisibleToAllMembers) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    const vaddr_t old_brk = env.Sbrk(0);
    ASSERT_NE(old_brk, 0u);
    std::atomic<bool> grown{false};
    std::atomic<u32> child_val{0};
    env.Sproc(
        [&](Env& c, long) {
          while (!grown.load()) {
            c.Yield();
          }
          // The parent grew the shared data region; by the time it returned
          // from sbrk every member sees the new pages.
          child_val = c.Load32(old_brk + 128);
        },
        PR_SADDR);
    ASSERT_EQ(env.Sbrk(static_cast<i64>(kPageSize)), old_brk);
    env.Store32(old_brk + 128, 777);
    grown = true;
    env.WaitChild();
    EXPECT_EQ(child_val.load(), 777u);
  });
}

TEST(VmShare, ShrinkPerformsSynchronousShootdown) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Sproc([](Env& c, long) { (void)c; }, PR_SADDR);
    env.WaitChild();  // group existed; we are still the remaining member
    const u64 shoot_before = k.cpus().shootdowns();
    const vaddr_t brk = env.Sbrk(static_cast<i64>(4 * kPageSize));
    env.Store32(brk, 1);  // touch so frames exist
    ASSERT_NE(env.Sbrk(-static_cast<i64>(4 * kPageSize)), 0u);
    // "before shrinking or detaching a region, we synchronously flush the
    // TLBs for ALL processors."
    EXPECT_GT(k.cpus().shootdowns(), shoot_before);
    // The address is gone: a touch now raises SIGSEGV, which default-kills;
    // verify via a child so this process can observe it.
    pid_t pid = env.Sproc([brk](Env& c, long) { c.Store32(brk, 2); }, PR_SADDR);
    ASSERT_GT(pid, 0);
    int sig = 0;
    EXPECT_EQ(env.WaitChild(nullptr, &sig), pid);
    EXPECT_EQ(sig, kSigSegv);
  });
}

TEST(VmShare, MunmapShootsDownAndUnmaps) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<bool> hold{true};
    env.Sproc(
        [&](Env& c, long) {
          while (hold.load()) {
            c.Yield();
          }
        },
        PR_SADDR);
    vaddr_t a = env.Mmap(2 * kPageSize);
    ASSERT_NE(a, 0u);
    env.Store32(a, 5);
    const u64 shoot_before = k.cpus().shootdowns();
    EXPECT_EQ(env.Munmap(a), 0);
    EXPECT_GT(k.cpus().shootdowns(), shoot_before);
    hold = false;
    env.WaitChild();
  });
}

TEST(VmShare, ForkChildCowDoesNotLeakIntoGroup) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    vaddr_t a = env.Mmap(kPageSize);
    env.Store32(a, 100);
    env.Sproc([](Env&, long) {}, PR_SADDR);  // make it a real group
    env.WaitChild();
    pid_t pid = env.Fork([a](Env& c, long) {
      EXPECT_EQ(c.Load32(a), 100u);  // snapshot at fork
      c.Store32(a, 200);             // private COW copy
      EXPECT_EQ(c.Load32(a), 200u);
    });
    ASSERT_GT(pid, 0);
    env.WaitChild();
    EXPECT_EQ(env.Load32(a), 100u);  // group image untouched
  });
}

TEST(VmShare, GroupWriteAfterForkDoesNotLeakIntoChild) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    vaddr_t a = env.Mmap(kPageSize);
    env.Store32(a, 1);
    std::atomic<bool> parent_wrote{false};
    std::atomic<u32> child_saw{0};
    pid_t pid = env.Fork([&, a](Env& c, long) {
      while (!parent_wrote.load()) {
        c.Yield();
      }
      child_saw = c.Load32(a);  // must still be the snapshot value
    });
    ASSERT_GT(pid, 0);
    env.Store32(a, 2);  // breaks COW on the parent side
    parent_wrote = true;
    env.WaitChild();
    EXPECT_EQ(child_saw.load(), 1u);
    EXPECT_EQ(env.Load32(a), 2u);
  });
}

TEST(VmShare, SharedRegionCowBreakFlushesOtherMembers) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    vaddr_t a = env.Mmap(kPageSize);
    env.Store32(a, 10);
    env.Sproc([](Env&, long) {}, PR_SADDR);
    env.WaitChild();
    // Fork marks the group's pages COW. A member's write then replaces the
    // frame IN the shared page table; every member must see the new frame.
    std::atomic<bool> wrote{false};
    std::atomic<u32> other_saw{0};
    pid_t reader = env.Sproc(
        [&, a](Env& c, long) {
          (void)c.Load32(a);  // warm the TLB with the old frame
          while (!wrote.load()) {
            c.Yield();
          }
          other_saw = c.Load32(a);
        },
        PR_SADDR);
    ASSERT_GT(reader, 0);
    pid_t frozen = env.Fork([](Env& c, long) {
      while (true) {
        c.Yield();  // keep the COW twin alive; killed below
      }
    });
    ASSERT_GT(frozen, 0);
    env.Store32(a, 20);  // COW break inside the shared region
    wrote = true;
    env.WaitChild();  // reader
    EXPECT_EQ(other_saw.load(), 20u);
    env.Kill(frozen, kSigKill);
    env.WaitChild();
  });
}

TEST(VmShare, TlbMissesRefillThroughSharedList) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Sproc([](Env&, long) {}, PR_SADDR);
    env.WaitChild();
    obs::Stats& stats = obs::Stats::Global();
    const u64 lockless_before = stats.CounterValue("vm.fault.lockless_hits");
    vaddr_t a = env.Mmap(8 * kPageSize);
    for (u64 i = 0; i < 8; ++i) {
      env.Store32(a + i * kPageSize, static_cast<u32>(i));
    }
    // Each first touch is a miss -> fault -> shared-image resolution. The
    // resolution validates against the layout seqcount instead of taking
    // the group lock (DESIGN.md §4h); with no writer racing, every one of
    // these resolves on the lockless path.
    EXPECT_GE(stats.CounterValue("vm.fault.lockless_hits") - lockless_before, 8u);
    const u64 hits_before = env.proc().as.tlb().hits();
    for (u64 i = 0; i < 8; ++i) {
      EXPECT_EQ(env.Load32(a + i * kPageSize), static_cast<u32>(i));
    }
    // Refilled translations now hit.
    EXPECT_GE(env.proc().as.tlb().hits() - hits_before, 8u);
  });
}

TEST(VmShare, StackGrowsOnDemandUpToLimit) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    // Touch far below the current stack use but inside the max: demand zero.
    const vaddr_t deep = env.proc().stack_base + 8;
    env.Store32(deep, 9);
    EXPECT_EQ(env.Load32(deep), 9u);
    // Below the stack's floor: fault (verified via a child's death).
    pid_t pid = env.Sproc(
        [](Env& c, long) {
          const vaddr_t below = c.proc().stack_base - kPageSize;
          c.Store32(below, 1);
        },
        PR_SADDR);
    int sig = 0;
    EXPECT_EQ(env.WaitChild(nullptr, &sig), pid);
    EXPECT_EQ(sig, kSigSegv);
  });
}

TEST(VmShare, PrctlStackSizeControlsNewStacks) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    ASSERT_GT(env.Prctl(PR_SETSTACKSIZE, 8 * kPageSize), 0);
    std::atomic<u64> child_stack_pages{0};
    env.Sproc(
        [&](Env& c, long) {
          // PR_SETSTACKSIZE is inherited across sproc (§5.2).
          child_stack_pages = static_cast<u64>(c.Prctl(PR_GETSTACKSIZE)) / kPageSize;
          // The child's stack region is exactly the configured size: one
          // page above the top must fault... but we just check the size.
        },
        PR_SADDR);
    env.WaitChild();
    EXPECT_EQ(child_stack_pages.load(), 8u);
  });
}

TEST(VmShare, ManyMembersHammerSharedCounter) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    vaddr_t ctr = env.Mmap(kPageSize);
    constexpr int kMembers = 8;
    constexpr u32 kIncrements = 2000;
    for (int i = 0; i < kMembers; ++i) {
      ASSERT_GT(env.Sproc(
                    [ctr](Env& c, long) {
                      for (u32 n = 0; n < kIncrements; ++n) {
                        c.FetchAdd32(ctr, 1);
                      }
                    },
                    PR_SADDR),
                0);
    }
    for (int i = 0; i < kMembers; ++i) {
      ASSERT_GT(env.WaitChild(), 0);
    }
    EXPECT_EQ(env.Load32(ctr), kMembers * kIncrements);
  });
}

}  // namespace
}  // namespace sg
