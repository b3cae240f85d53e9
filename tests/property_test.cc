// Property-based / parameterized tests: the share-mask inheritance lattice
// over every mask combination, VM invariants under randomized operation
// sequences, shared-read-lock invariants under stress, and fd-propagation
// under concurrent opens.
#include <gtest/gtest.h>

#include <atomic>
#include <random>

#include "api/kernel.h"
#include "api/user_env.h"
#include "vm/access.h"

namespace sg {
namespace {

void RunAsProcess(Kernel& k, std::function<void(Env&)> body) {
  auto pid = k.Launch([body = std::move(body)](Env& env, long) { body(env); });
  ASSERT_TRUE(pid.ok());
  k.WaitAll();
}

// ---- strict inheritance is mask intersection, for EVERY mask pair ----

class MaskLattice : public ::testing::TestWithParam<std::tuple<u32, u32>> {};

TEST_P(MaskLattice, ChildMaskIsIntersection) {
  const u32 parent_mask = std::get<0>(GetParam());
  const u32 child_request = std::get<1>(GetParam());
  Kernel k;
  std::atomic<u32> child_effective{0xffffffff};
  RunAsProcess(k, [&](Env& env) {
    env.Sproc(
        [&, child_request](Env& member, long) {
          member.Sproc(
              [&](Env& grandchild, long) { child_effective = grandchild.proc().p_shmask.load(); },
              child_request);
          member.WaitChild();
        },
        parent_mask);
    env.WaitChild();
  });
  EXPECT_EQ(child_effective.load(), parent_mask & child_request & PR_SALL);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, MaskLattice,
    ::testing::Combine(::testing::Values(0u, PR_SADDR, PR_SFDS, PR_SDIR | PR_SUMASK,
                                         PR_SADDR | PR_SFDS | PR_SID, PR_SALL),
                       ::testing::Values(0u, PR_SADDR, PR_SFDS | PR_SULIMIT,
                                         PR_SDIR | PR_SID, PR_SALL, 0xffffffffu)));

// ---- per-bit sharing: exactly the selected resource propagates ----

class PerBitSharing : public ::testing::TestWithParam<u32> {};

TEST_P(PerBitSharing, OnlySelectedResourcePropagates) {
  const u32 mask = GetParam();
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Umask(0);
    env.UlimitSet(1 << 20);
    env.Mkdir("/elsewhere");
    // A shared PR_SID setuid(33) reaches us; keep directories writable for
    // the unprivileged identity.
    ASSERT_TRUE(env.kernel().Chmod(env.proc(), "/", 0777).ok());
    ASSERT_TRUE(env.kernel().Chmod(env.proc(), "/elsewhere", 0777).ok());
    env.Sproc(
        [](Env& c, long) {
          c.Umask(011);
          c.UlimitSet(4096);
          c.Chdir("/elsewhere");
          c.Setuid(33);
        },
        mask);
    env.WaitChild();
    env.Yield();  // a kernel entry to resynchronize
    EXPECT_EQ(env.Umask(0), (mask & PR_SUMASK) != 0 ? 011 : 0);
    env.Umask(0);
    EXPECT_EQ(static_cast<u64>(env.UlimitGet()),
              (mask & PR_SULIMIT) != 0 ? 4096u : u64{1} << 20);
    // cwd: a relative create lands where the cwd is.
    const int fd = env.Open("where-am-i", kOpenWrite | kOpenCreat);
    ASSERT_GE(fd, 0);
    const bool in_elsewhere = env.kernel().Stat(env.proc(), "/elsewhere/where-am-i").ok();
    EXPECT_EQ(in_elsewhere, (mask & PR_SDIR) != 0);
    EXPECT_EQ(env.Getuid(), (mask & PR_SID) != 0 ? 33 : 0);
  });
}

INSTANTIATE_TEST_SUITE_P(EachBit, PerBitSharing,
                         ::testing::Values(0u, PR_SUMASK, PR_SULIMIT, PR_SDIR, PR_SID,
                                           PR_SUMASK | PR_SID, PR_SALL));

// ---- VM invariants under random operation sequences ----
//
// Invariant 1: every byte ever stored reads back the same value until the
//              mapping it lives in is unmapped.
// Invariant 2: after unmap, access faults.
// Invariant 3: COW never aliases — a fork child's writes are invisible to
//              the group and vice versa.
class VmOpsFuzz : public ::testing::TestWithParam<u32> {};

TEST_P(VmOpsFuzz, RandomOpSequencePreservesInvariants) {
  const u32 seed = GetParam();
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::mt19937 rng(seed);
    struct Mapping {
      vaddr_t base;
      u64 pages;
      std::map<u64, u32> shadow;  // offset -> expected value
    };
    std::vector<Mapping> live;
    for (int step = 0; step < 300; ++step) {
      const u32 op = rng() % 100;
      if (op < 25 || live.empty()) {
        if (live.size() < 8) {
          const u64 pages = 1 + rng() % 4;
          const vaddr_t base = env.Mmap(pages * kPageSize);
          ASSERT_NE(base, 0u);
          live.push_back({base, pages, {}});
        }
      } else if (op < 40) {
        const size_t i = rng() % live.size();
        // Invariant 2 is checked through the raw VM (no SIGSEGV suicide).
        ASSERT_EQ(env.Munmap(live[i].base), 0);
        EXPECT_EQ(sg::Load<u32>(env.proc().as, live[i].base).error(), Errno::kEFAULT);
        live.erase(live.begin() + static_cast<long>(i));
      } else if (op < 75) {
        Mapping& m = live[rng() % live.size()];
        const u64 off = (rng() % (m.pages * kPageSize / 4)) * 4;
        const u32 val = rng();
        env.Store32(m.base + off, val);
        m.shadow[off] = val;
      } else {
        Mapping& m = live[rng() % live.size()];
        if (!m.shadow.empty()) {
          auto it = m.shadow.begin();
          std::advance(it, static_cast<long>(rng() % m.shadow.size()));
          EXPECT_EQ(env.Load32(m.base + it->first), it->second);  // Invariant 1
        }
      }
    }
    // Invariant 3: a fork child sees the snapshot, not later group writes.
    if (!live.empty()) {
      Mapping& m = live.front();
      env.Store32(m.base, 0xaaaa);
      std::atomic<bool> child_ok{false};
      std::atomic<bool> parent_wrote{false};
      env.Fork([&](Env& c, long) {
        while (!parent_wrote.load()) {
          c.Yield();
        }
        child_ok = (c.Load32(m.base) == 0xaaaa);
        c.Store32(m.base, 0xbbbb);
      });
      env.Store32(m.base, 0xcccc);
      parent_wrote = true;
      env.WaitChild();
      EXPECT_TRUE(child_ok.load());
      EXPECT_EQ(env.Load32(m.base), 0xccccu);
    }
  });
  // Nothing leaked: every frame returned once every process exited.
  EXPECT_EQ(k.mem().FreeFrames(), k.mem().TotalFrames());
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmOpsFuzz, ::testing::Range(1u, 9u));

// ---- shared image: randomized member stores always visible to the parent ----

class SharedStoresFuzz : public ::testing::TestWithParam<u32> {};

TEST_P(SharedStoresFuzz, MemberStoresVisibleEverywhere) {
  const u32 seed = GetParam();
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    constexpr u64 kWords = 1024;
    const vaddr_t base = env.Mmap(kWords * 4);
    constexpr int kMembers = 3;
    for (int m = 0; m < kMembers; ++m) {
      env.Sproc(
          [base, seed](Env& c, long idx) {
            std::mt19937 rng(seed * 97 + static_cast<u32>(idx));
            // Each member owns a word-stride; no write races.
            for (u64 w = static_cast<u64>(idx); w < kWords; w += kMembers) {
              c.Store32(base + w * 4, static_cast<u32>(rng()));
            }
          },
          PR_SADDR, m);
    }
    for (int m = 0; m < kMembers; ++m) {
      env.WaitChild();
    }
    // Recompute each member's stream and verify through OUR translation.
    for (int m = 0; m < kMembers; ++m) {
      std::mt19937 rng(seed * 97 + static_cast<u32>(m));
      for (u64 w = static_cast<u64>(m); w < kWords; w += kMembers) {
        ASSERT_EQ(env.Load32(base + w * 4), static_cast<u32>(rng())) << "word " << w;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedStoresFuzz, ::testing::Range(1u, 6u));

// ---- fd table under concurrent opens from many members ----

TEST(FdPropagationStress, ConcurrentOpensAllVisibleAndDistinct) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    constexpr int kMembers = 4;
    constexpr int kEach = 8;
    std::atomic<int> fds[kMembers * kEach];
    for (auto& f : fds) {
      f = -1;
    }
    for (int m = 0; m < kMembers; ++m) {
      env.Sproc(
          [&fds](Env& c, long idx) {
            for (int i = 0; i < kEach; ++i) {
              char path[32];
              std::snprintf(path, sizeof(path), "/m%ld-%d", idx, i);
              const int fd = c.Open(path, kOpenWrite | kOpenCreat);
              ASSERT_GE(fd, 0);
              fds[idx * kEach + i] = fd;
            }
          },
          PR_SFDS | PR_SADDR, m);
    }
    for (int m = 0; m < kMembers; ++m) {
      env.WaitChild();
    }
    // Every descriptor number is distinct (the s_fupdsema single-threading
    // prevented slot collisions) and usable from the parent.
    std::set<int> seen;
    for (auto& f : fds) {
      ASSERT_GE(f.load(), 0);
      EXPECT_TRUE(seen.insert(f.load()).second) << "fd " << f.load() << " duplicated";
      EXPECT_EQ(env.WriteStr(f.load(), "x"), 1);
    }
  });
}

// ---- umask storms from many members converge to one master value ----

TEST(UmaskStress, ConcurrentUpdatesConverge) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    constexpr int kMembers = 4;
    for (int m = 0; m < kMembers; ++m) {
      env.Sproc(
          [](Env& c, long idx) {
            for (int i = 0; i < 50; ++i) {
              c.Umask(static_cast<mode_t>((idx * 50 + i) & 0777));
            }
          },
          PR_SUMASK, m);
    }
    for (int m = 0; m < kMembers; ++m) {
      env.WaitChild();
    }
    env.Yield();  // sync
    // Our value equals the block's master value (single source of truth).
    EXPECT_EQ(env.proc().umask, env.proc().shaddr->scalars().cmask);
  });
}

}  // namespace
}  // namespace sg
