// Machine-configuration sweeps (TEST_P): the same canonical workloads must
// produce identical results on every processor count, TLB geometry, group
// size and memory/swap configuration — goal 1 of §6: "the implementation
// must work correctly in both multiprocessor and uniprocessor
// environments."
#include <gtest/gtest.h>

#include <atomic>

#include "api/kernel.h"
#include "api/user_env.h"

namespace sg {
namespace {

void RunAsProcess(Kernel& k, std::function<void(Env&)> body) {
  auto pid = k.Launch([body = std::move(body)](Env& env, long) { body(env); });
  ASSERT_TRUE(pid.ok());
  k.WaitAll();
}

// ---- canonical workload 1: spinlock counter across ncpus × members ----

class CpuByMembers : public ::testing::TestWithParam<std::tuple<u32, int>> {};

TEST_P(CpuByMembers, SpinlockCounterExactOnEveryMachine) {
  const u32 ncpus = std::get<0>(GetParam());
  const int members = std::get<1>(GetParam());
  BootParams bp;
  bp.ncpus = ncpus;
  Kernel k(bp);
  RunAsProcess(k, [&](Env& env) {
    const vaddr_t lock = env.Mmap(kPageSize);
    const vaddr_t ctr = lock + 64;
    constexpr int kRounds = 200;
    for (int m = 0; m < members; ++m) {
      ASSERT_GT(env.Sproc(
                    [lock, ctr](Env& c, long) {
                      for (int n = 0; n < kRounds; ++n) {
                        c.SpinLock(lock);
                        c.Store32(ctr, c.Load32(ctr) + 1);
                        c.SpinUnlock(lock);
                      }
                    },
                    PR_SADDR),
                0);
    }
    for (int m = 0; m < members; ++m) {
      ASSERT_GT(env.WaitChild(), 0);
    }
    EXPECT_EQ(env.Load32(ctr), static_cast<u32>(members) * kRounds);
  });
  EXPECT_EQ(k.mem().FreeFrames(), k.mem().TotalFrames());
}

INSTANTIATE_TEST_SUITE_P(Machines, CpuByMembers,
                         ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                                            ::testing::Values(1, 3, 6)));

// ---- canonical workload 2: pipes + fork fan-in across ncpus ----

class CpuSweep : public ::testing::TestWithParam<u32> {};

TEST_P(CpuSweep, PipeFanInDrainsCompletely) {
  BootParams bp;
  bp.ncpus = GetParam();
  Kernel k(bp);
  std::atomic<int> got{0};
  RunAsProcess(k, [&](Env& env) {
    int rd = -1, wr = -1;
    ASSERT_EQ(env.Pipe(&rd, &wr), 0);
    constexpr int kProducers = 4;
    constexpr int kEach = 50;
    for (int i = 0; i < kProducers; ++i) {
      env.Fork([rd, wr](Env& c, long) {
        c.Close(rd);
        for (int n = 0; n < kEach; ++n) {
          ASSERT_EQ(c.WriteStr(wr, "pkt!"), 4);
        }
      });
    }
    env.Close(wr);
    char b[4];
    while (env.ReadBuf(rd, std::as_writable_bytes(std::span<char>(b, 4))) > 0) {
      got.fetch_add(1);
    }
    for (int i = 0; i < kProducers; ++i) {
      env.WaitChild();
    }
  });
  EXPECT_EQ(got.load(), 200);
}

TEST_P(CpuSweep, AttributePropagationUnderLoad) {
  BootParams bp;
  bp.ncpus = GetParam();
  Kernel k(bp);
  RunAsProcess(k, [&](Env& env) {
    // Members hammer umask while the founder verifies master convergence.
    constexpr int kMembers = 3;
    for (int m = 0; m < kMembers; ++m) {
      env.Sproc(
          [](Env& c, long idx) {
            for (int n = 0; n < 40; ++n) {
              c.Umask(static_cast<mode_t>((idx * 40 + n) & 0777));
              c.UlimitSet(static_cast<u64>(1000 + idx * 40 + n));
            }
          },
          PR_SUMASK | PR_SULIMIT, m);
    }
    for (int m = 0; m < kMembers; ++m) {
      env.WaitChild();
    }
    env.Yield();
    EXPECT_EQ(env.proc().umask, env.proc().shaddr->scalars().cmask);
    EXPECT_EQ(env.proc().ulimit, env.proc().shaddr->scalars().limit);
  });
}

INSTANTIATE_TEST_SUITE_P(Cpus, CpuSweep, ::testing::Values(1u, 2u, 4u, 8u));

// ---- TLB geometry sweep: tiny TLBs only change speed, never results ----

class TlbSweep : public ::testing::TestWithParam<u32> {};

TEST_P(TlbSweep, WorkloadCorrectAtAnyTlbSize) {
  BootParams bp;
  bp.tlb_entries = GetParam();
  Kernel k(bp);
  RunAsProcess(k, [&](Env& env) {
    // Touch far more pages than TLB entries, with a member doing the same.
    constexpr u64 kPages = 64;
    const vaddr_t a = env.Mmap(kPages * kPageSize);
    env.Sproc(
        [a](Env& c, long) {
          for (u64 i = 0; i < kPages; i += 2) {
            c.Store32(a + i * kPageSize, static_cast<u32>(2000 + i));
          }
        },
        PR_SADDR);
    for (u64 i = 1; i < kPages; i += 2) {
      env.Store32(a + i * kPageSize, static_cast<u32>(2000 + i));
    }
    env.WaitChild();
    for (u64 i = 0; i < kPages; ++i) {
      ASSERT_EQ(env.Load32(a + i * kPageSize), static_cast<u32>(2000 + i)) << i;
    }
    // A tiny TLB must observably miss more than a huge one would.
    if (GetParam() <= 8) {
      EXPECT_GT(env.proc().as.tlb().misses(), kPages);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Geometries, TlbSweep, ::testing::Values(2u, 8u, 64u, 512u));

// ---- memory/swap sweep: the same job under increasing pressure ----

class PressureSweep : public ::testing::TestWithParam<u64> {};

TEST_P(PressureSweep, GroupJobSurvivesAnyMemorySize) {
  BootParams bp;
  bp.phys_mem_bytes = GetParam() * kPageSize;
  bp.swap_pages = 2048;
  Kernel k(bp);
  RunAsProcess(k, [&](Env& env) {
    constexpr u64 kPages = 96;
    const vaddr_t a = env.Mmap(kPages * kPageSize);
    for (int m = 0; m < 2; ++m) {
      env.Sproc(
          [a](Env& c, long idx) {
            for (u64 p = static_cast<u64>(idx); p < kPages; p += 2) {
              c.Store32(a + p * kPageSize, static_cast<u32>(p * 7));
            }
          },
          PR_SADDR, m);
    }
    for (int m = 0; m < 2; ++m) {
      env.WaitChild();
    }
    for (u64 p = 0; p < kPages; ++p) {
      ASSERT_EQ(env.Load32(a + p * kPageSize), static_cast<u32>(p * 7)) << p;
    }
  });
  EXPECT_EQ(k.mem().FreeFrames(), k.mem().TotalFrames());
  EXPECT_EQ(k.swap()->SlotsFree(), 2048u);
}

INSTANTIATE_TEST_SUITE_P(MemorySizes, PressureSweep,
                         ::testing::Values(u64{64}, u64{128}, u64{512}, u64{16384}));

}  // namespace
}  // namespace sg
