// Torture: randomized mixes of every major syscall family running
// concurrently in and around a share group, ending with global invariant
// checks — no leaked frames, no leaked open files, no live share blocks,
// empty process table. The goal is crossing the paths that directed tests
// keep apart (exits racing opens, shootdowns racing faults, signals racing
// group updates).
#include <gtest/gtest.h>

#include <atomic>
#include <random>

#include "api/kernel.h"
#include "api/user_env.h"
#include "sync/lockdep.h"

namespace sg {
namespace {

// One chaotic worker: a random walk over the syscall surface.
void ChaosWorker(Env& env, u32 seed, const vaddr_t arena) {
  std::mt19937 rng(seed);
  std::vector<int> fds;
  std::vector<vaddr_t> maps;
  for (int step = 0; step < 120; ++step) {
    switch (rng() % 12) {
      case 0: {  // open
        char path[32];
        std::snprintf(path, sizeof(path), "/t%u", static_cast<unsigned>(rng() % 24));
        const int fd = env.Open(path, kOpenRdwr | kOpenCreat);
        if (fd >= 0) {
          fds.push_back(fd);
        }
        break;
      }
      case 1:  // close something of ours
        if (!fds.empty()) {
          env.Close(fds.back());
          fds.pop_back();
        }
        break;
      case 2:  // write/read through a descriptor
        if (!fds.empty()) {
          const int fd = fds[rng() % fds.size()];
          env.WriteStr(fd, "abcdefgh");
          char b[8];
          env.Lseek(fd, 0);
          env.ReadBuf(fd, std::as_writable_bytes(std::span<char>(b, 8)));
        }
        break;
      case 3: {  // map + touch
        if (maps.size() < 4) {
          const vaddr_t a = env.Mmap((1 + rng() % 4) * kPageSize);
          if (a != 0) {
            env.Store32(a, rng());
            maps.push_back(a);
          }
        }
        break;
      }
      case 4:  // unmap
        if (!maps.empty()) {
          env.Munmap(maps.back());
          maps.pop_back();
        }
        break;
      case 5:  // sbrk dance
        if (env.Sbrk(static_cast<i64>(kPageSize)) != 0) {
          env.Store32(env.Sbrk(0) - 8, 1);
          env.Sbrk(-static_cast<i64>(kPageSize));
        }
        break;
      case 6:  // shared-arena traffic
        env.FetchAdd32(arena + 4 * (rng() % 64), 1);
        break;
      case 7:  // attribute churn
        env.Umask(static_cast<mode_t>(rng() & 0777));
        break;
      case 8: {  // short-lived grandchild
        if (rng() % 4 == 0) {
          const pid_t pid = env.Sproc([](Env& c, long) { c.Yield(); }, PR_SADDR);
          if (pid > 0) {
            env.WaitChild();
          }
        }
        break;
      }
      case 9:  // directories
        env.Mkdir("/dir-a");
        env.Chdir(rng() % 2 == 0 ? "/dir-a" : "/");
        break;
      case 10:  // self-signal through a handler
        env.Signal(kSigUsr1, [](int) {});
        env.Kill(env.Pid(), kSigUsr1);
        env.Yield();
        break;
      default:
        env.Yield();
        break;
    }
  }
  for (int fd : fds) {
    env.Close(fd);
  }
  for (vaddr_t a : maps) {
    env.Munmap(a);
  }
}

class Torture : public ::testing::TestWithParam<u32> {};

TEST_P(Torture, ChaoticGroupLeavesNoResidue) {
  const u32 seed = GetParam();
  BootParams bp;
  bp.ncpus = 2 + seed % 3;
  Kernel k(bp);
  const u64 frames0 = k.mem().FreeFrames();
  auto pid = k.Launch([&](Env& env, long) {
    const vaddr_t arena = env.Mmap(kPageSize);
    constexpr int kWorkers = 5;
    std::vector<pid_t> kids;
    for (int w = 0; w < kWorkers; ++w) {
      // Mixed membership: some share everything, some only parts, one is a
      // plain fork child hammering the same files.
      pid_t child;
      if (w % 3 == 0) {
        child = env.Fork(
            [seed, arena](Env& c, long idx) {
              ChaosWorker(c, seed * 100 + static_cast<u32>(idx), arena);
            },
            w);
      } else {
        child = env.Sproc(
            [seed, arena](Env& c, long idx) {
              ChaosWorker(c, seed * 100 + static_cast<u32>(idx), arena);
            },
            w % 2 == 0 ? PR_SALL : (PR_SFDS | PR_SUMASK), w);
      }
      ASSERT_GT(child, 0);
      kids.push_back(child);
    }
    // Kill one mid-flight for extra chaos.
    env.Kill(kids[seed % kids.size()], kSigKill);
    for (int w = 0; w < kWorkers; ++w) {
      ASSERT_GT(env.WaitChild(), 0);
    }
  });
  ASSERT_TRUE(pid.ok());
  k.WaitAll();

  // Invariants: nothing lingers.
  EXPECT_EQ(k.procs().Count(), 0u);
  EXPECT_EQ(k.LiveBlocks(), 0u);
  EXPECT_EQ(k.vfs().files().Count(), 0u);
  EXPECT_EQ(k.mem().FreeFrames(), frames0);
  // Under the lockdep preset the whole chaotic run must also be free of
  // lock-order inversions and sleep-under-spinlock reports.
  EXPECT_EQ(lockdep::Reports(), 0u) << lockdep::RenderReport();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Torture, ::testing::Range(1u, 9u));

TEST(Torture, RepeatedGroupLifecycles) {
  // Build and tear down many groups in sequence; ids, frames and blocks
  // must recycle perfectly.
  Kernel k;
  const u64 frames0 = k.mem().FreeFrames();
  for (int round = 0; round < 20; ++round) {
    auto pid = k.Launch([&](Env& env, long) {
      const vaddr_t a = env.Mmap(kPageSize);
      for (int m = 0; m < 3; ++m) {
        env.Sproc([a](Env& c, long) { c.FetchAdd32(a, 1); }, PR_SALL);
      }
      for (int m = 0; m < 3; ++m) {
        env.WaitChild();
      }
      ASSERT_EQ(env.Load32(a), 3u);
    });
    ASSERT_TRUE(pid.ok());
    k.WaitAll();
    ASSERT_EQ(k.LiveBlocks(), 0u) << "round " << round;
  }
  EXPECT_EQ(k.mem().FreeFrames(), frames0);
  EXPECT_EQ(k.vfs().files().Count(), 0u);
  EXPECT_EQ(lockdep::Reports(), 0u) << lockdep::RenderReport();
}

}  // namespace
}  // namespace sg
