// §8 "Future Directions" extensions: PR_UNSHARE (stop sharing, including
// the address space), PR_PRIVDATA (selective region sharing at sproc),
// PR_BLOCKGROUP / PR_UNBLKGROUP (suspend the whole group), PR_JOINGROUP
// (dynamic membership for non-VM resources), PR_SETGROUPPRI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

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

TEST(Unshare, NonVmResourceStopsPropagating) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Umask(0);
    std::atomic<bool> unshared{false};
    std::atomic<bool> done{false};
    env.Sproc(
        [&](Env& c, long) {
          const i64 left = c.Prctl(PR_UNSHARE, PR_SUMASK);
          ASSERT_GE(left, 0);
          EXPECT_EQ(static_cast<u32>(left) & PR_SUMASK, 0u);
          unshared = true;
          while (!done.load()) {
            c.Yield();
          }
          // Our umask is now private: the parent's later change must not
          // have reached us.
          EXPECT_EQ(c.Umask(0), 0);
        },
        PR_SUMASK | PR_SADDR);
    while (!unshared.load()) {
      env.Yield();
    }
    env.Umask(077);  // would previously have propagated
    done = true;
    env.WaitChild();
  });
}

TEST(Unshare, VmSnapshotBehavesLikeFork) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    vaddr_t a = env.Mmap(kPageSize);
    env.Store32(a, 5);
    std::atomic<int> phase{0};
    std::atomic<u32> member_saw{0};
    env.Sproc(
        [&, a](Env& c, long) {
          ASSERT_GE(c.Prctl(PR_UNSHARE, PR_SADDR), 0);
          EXPECT_EQ(c.proc().as.shared(), nullptr);
          phase = 1;
          while (phase.load() != 2) {
            c.Yield();
          }
          member_saw = c.Load32(a);  // our COW snapshot: still 5
          c.Store32(a, 7);           // private now
          phase = 3;
        },
        PR_SADDR);
    while (phase.load() != 1) {
      env.Yield();
    }
    env.Store32(a, 6);  // group side changes after the snapshot
    phase = 2;
    while (phase.load() != 3) {
      env.Yield();
    }
    env.WaitChild();
    EXPECT_EQ(member_saw.load(), 5u);
    EXPECT_EQ(env.Load32(a), 6u);  // member's 7 stayed private
  });
}

// PR_UNSHARE(PR_SADDR) copies the image by fork's rule, so a MAP_SHARED
// file mapping stays shared (as in MmapFile.SharedMappingSharedAcrossFork):
// the member's store after the unshare reaches the group.
TEST(Unshare, SharedFileMappingStaysSharedLikeFork) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    const int fd = env.Open("/blob", kOpenRdwr | kOpenCreat);
    ASSERT_GE(fd, 0);
    const u32 words[4] = {0, 3, 6, 9};
    ASSERT_EQ(env.WriteBuf(fd, std::as_bytes(std::span<const u32>(words))), 16);
    const vaddr_t a = env.MmapFile(fd, 0, kPageSize, /*shared=*/true);
    ASSERT_NE(a, 0u);
    env.Sproc(
        [a](Env& c, long) {
          ASSERT_GE(c.Prctl(PR_UNSHARE, PR_SADDR), 0);
          EXPECT_EQ(c.proc().as.shared(), nullptr);
          c.Store32(a + 8, 4242);
        },
        PR_SADDR);
    env.WaitChild();
    EXPECT_EQ(env.Load32(a + 8), 4242u);  // not the file's 6
  });
}

TEST(Unshare, OwnStackKeepsWorkingAndLeavesGroupImage) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<vaddr_t> member_stack{0};
    std::atomic<bool> release{false};
    env.Sproc(
        [&](Env& c, long) {
          c.Store32(c.proc().stack_base, 11);
          ASSERT_GE(c.Prctl(PR_UNSHARE, PR_SADDR), 0);
          EXPECT_EQ(c.Load32(c.proc().stack_base), 11u);  // moved, not lost
          c.Store32(c.proc().stack_base, 12);
          member_stack = c.proc().stack_base;
          while (!release.load()) {
            c.Yield();
          }
        },
        PR_SADDR);
    while (member_stack.load() == 0) {
      env.Yield();
    }
    // The stack left the shared image: the parent cannot reach it.
    EXPECT_EQ(sg::Load<u32>(env.proc().as, member_stack.load()).error(), Errno::kEFAULT);
    release = true;
    env.WaitChild();
  });
  EXPECT_EQ(k.LiveBlocks(), 0u);
  EXPECT_EQ(k.mem().FreeFrames(), k.mem().TotalFrames());
}

TEST(Unshare, StillAMemberForOtherResources) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<bool> unshared{false};
    std::atomic<bool> fd_ok{false};
    std::atomic<int> late_fd{-1};
    env.Sproc(
        [&](Env& c, long) {
          ASSERT_GE(c.Prctl(PR_UNSHARE, PR_SADDR), 0);
          unshared = true;
          while (late_fd.load() < 0) {
            c.Yield();
          }
          // fds still shared: the parent's later open reaches us.
          fd_ok = (c.WriteStr(late_fd.load(), "x") == 1);
        },
        PR_SADDR | PR_SFDS);
    while (!unshared.load()) {
      env.Yield();
    }
    EXPECT_EQ(env.proc().shaddr->refcnt(), 2u);  // still two members
    late_fd = env.Open("/after-unshare", kOpenWrite | kOpenCreat);
    ASSERT_GE(late_fd.load(), 0);
    env.WaitChild();
    EXPECT_TRUE(fd_ok.load());
  });
}

TEST(Unshare, OutsideGroupIsInvalid) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    EXPECT_LT(env.Prctl(PR_UNSHARE, PR_SALL), 0);
    EXPECT_EQ(env.LastError(), Errno::kEINVAL);
  });
}

TEST(PrivData, DataShadowIsPrivateWhileArenaStaysShared) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    // The DATA region (sbrk heap) gets the private shadow; the mmap arena
    // stays fully shared.
    const vaddr_t heap = env.Sbrk(0) - kPageSize;  // inside the data region
    env.Store32(heap, 100);
    const vaddr_t arena = env.Mmap(kPageSize);
    env.Store32(arena, 200);
    std::atomic<u32> child_heap{0};
    std::atomic<bool> gate{false};
    env.Sproc(
        [&, heap, arena](Env& c, long) {
          child_heap = c.Load32(heap);  // COW shadow: sees 100
          c.Store32(heap, 111);         // private to the child
          c.Store32(arena, 222);        // shared with everyone
          gate = true;
          while (gate.load()) {
            c.Yield();
          }
        },
        PR_SADDR | PR_PRIVDATA);
    while (!gate.load()) {
      env.Yield();
    }
    EXPECT_EQ(child_heap.load(), 100u);
    EXPECT_EQ(env.Load32(heap), 100u);   // child's heap write stayed private
    EXPECT_EQ(env.Load32(arena), 222u);  // arena write came through
    gate = false;
    env.WaitChild();
  });
}

TEST(BlockGroup, MembersParkAtKernelEntryUntilUnblocked) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<u64> progress{0};
    std::atomic<int> running{0};
    constexpr int kMembers = 2;
    for (int m = 0; m < kMembers; ++m) {
      env.Sproc(
          [&](Env& c, long) {
            running.fetch_add(1);
            for (;;) {
              progress.fetch_add(1);
              c.Yield();  // kernel entry: the suspension point
              if (progress.load() > 1'000'000) {
                return;  // safety valve
              }
            }
          },
          PR_SALL);
    }
    // Let both run, then freeze the group.
    while (running.load() < kMembers || progress.load() < 100) {
      env.Yield();
    }
    EXPECT_EQ(env.Prctl(PR_BLOCKGROUP, 0), kMembers);
    // Wait for them to actually park, then verify no progress. With 4 CPUs
    // and 3 processes no yield hands a CPU over, so a running member gives
    // its simulated CPU back only when it parks at kernel entry.
    while (k.sched().FreeCpus() != k.sched().ncpus() - 1) {
      env.Yield();
    }
    const u64 frozen = progress.load();
    for (int i = 0; i < 200; ++i) {
      env.Yield();
    }
    EXPECT_EQ(progress.load(), frozen);
    // Thaw; they must move again, then kill them off.
    EXPECT_EQ(env.Prctl(PR_UNBLKGROUP, 0), kMembers);
    const u64 resumed_from = progress.load();
    while (progress.load() == resumed_from) {
      env.Yield();
    }
    env.proc().shaddr->ForEachMember([&](Proc& m) {
      if (&m != &env.proc()) {
        m.PostSignal(kSigKill);
      }
    });
    for (int m = 0; m < kMembers; ++m) {
      env.WaitChild();
    }
  });
}

TEST(BlockGroup, KillStillWorksWhileBlocked) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<pid_t> member{0};
    env.Sproc(
        [&](Env& c, long) {
          member = c.Pid();
          while (true) {
            c.Yield();
          }
        },
        PR_SALL);
    while (member.load() == 0) {
      env.Yield();
    }
    EXPECT_EQ(env.Prctl(PR_BLOCKGROUP, 0), 1);
    env.Kill(member.load(), kSigKill);
    int sig = 0;
    EXPECT_EQ(env.WaitChild(nullptr, &sig), member.load());
    EXPECT_EQ(sig, kSigKill);
  });
}

TEST(JoinGroup, UnrelatedProcessJoinsForNonVmResources) {
  Kernel k;
  std::atomic<pid_t> founder_pid{0};
  std::atomic<bool> joined{false};
  std::atomic<bool> founder_sees_fd{false};
  std::atomic<int> joiner_fd{-1};
  auto founder = k.Launch([&](Env& env, long) {
    env.Sproc([](Env&, long) {}, PR_SALL);  // create the group
    env.WaitChild();
    founder_pid = env.Pid();
    while (!joined.load()) {
      env.Yield();
    }
    while (joiner_fd.load() < 0) {
      env.Yield();
    }
    env.Yield();  // sync entry
    founder_sees_fd = (env.WriteStr(joiner_fd.load(), "y") == 1);
  });
  auto joiner = k.Launch([&](Env& env, long) {
    while (founder_pid.load() == 0) {
      env.Yield();
    }
    const i64 mask = env.Prctl(PR_JOINGROUP, founder_pid.load());
    ASSERT_GT(mask, 0);
    EXPECT_EQ(static_cast<u32>(mask), PR_SALL & ~PR_SADDR);
    EXPECT_NE(env.proc().shaddr, nullptr);
    EXPECT_EQ(env.proc().as.shared(), nullptr);  // VM stays ours
    joined = true;
    joiner_fd = env.Open("/joined-file", kOpenWrite | kOpenCreat);
    ASSERT_GE(joiner_fd.load(), 0);
    while (!founder_sees_fd.load()) {
      env.Yield();
    }
  });
  ASSERT_TRUE(founder.ok() && joiner.ok());
  k.WaitAll();
  EXPECT_TRUE(founder_sees_fd.load());
  EXPECT_EQ(k.LiveBlocks(), 0u);
}

// A joiner's private copies are unrelated to the group's, so PR_JOINGROUP
// must replace each shared one with the master copy: state the founder set
// before the group existed, and a descriptor in a slot the group never used.
TEST(JoinGroup, JoinerAdoptsGroupState) {
  Kernel k;
  std::atomic<pid_t> founder_pid{0};
  std::atomic<bool> done{false};
  auto founder = k.Launch([&](Env& env, long) {
    env.Umask(027);
    EXPECT_EQ(env.Mkdir("/grp"), 0);
    EXPECT_EQ(env.Chdir("/grp"), 0);
    EXPECT_EQ(env.UlimitSet(u64{1} << 20), 0);
    env.Sproc([](Env&, long) {}, PR_SALL);  // create the group
    env.WaitChild();
    founder_pid = env.Pid();
    while (!done.load()) {
      env.Yield();
    }
  });
  auto joiner = k.Launch([&](Env& env, long) {
    [&] {
      env.Umask(0);
      ASSERT_EQ(env.Open("/private", kOpenWrite | kOpenCreat), 0);  // slot 0
      while (founder_pid.load() == 0) {
        env.Yield();
      }
      ASSERT_GT(env.Prctl(PR_JOINGROUP, founder_pid.load()), 0);
      EXPECT_LT(env.WriteStr(0, "x"), 0);  // the group's slot 0 is empty
      EXPECT_EQ(env.LastError(), Errno::kEBADF);
      EXPECT_EQ(env.Umask(027), 027);
      EXPECT_EQ(env.UlimitGet(), i64{1} << 20);
      const int fd = env.Open("rel", kOpenWrite | kOpenCreat);
      ASSERT_GE(fd, 0);
      EXPECT_EQ(env.Close(fd), 0);
      const auto entries = env.ListDir("/grp");
      EXPECT_NE(std::find(entries.begin(), entries.end(), "rel"), entries.end());
    }();
    done = true;
  });
  ASSERT_TRUE(founder.ok() && joiner.ok());
  k.WaitAll();
  EXPECT_EQ(k.vfs().files().Count(), 0u);  // the dropped private file too
}

TEST(JoinGroup, RulesEnforced) {
  Kernel k;
  std::atomic<pid_t> loner{0};
  std::atomic<bool> done{false};
  auto a = k.Launch([&](Env& env, long) {
    loner = env.Pid();
    while (!done.load()) {
      env.Yield();
    }
  });
  auto b = k.Launch([&](Env& env, long) {
    while (loner.load() == 0) {
      env.Yield();
    }
    // Target not in a group.
    EXPECT_LT(env.Prctl(PR_JOINGROUP, loner.load()), 0);
    EXPECT_EQ(env.LastError(), Errno::kESRCH);
    // No such process.
    EXPECT_LT(env.Prctl(PR_JOINGROUP, 99999), 0);
    // Already in a group: cannot join another.
    env.Sproc([](Env&, long) {}, PR_SALL);
    env.WaitChild();
    EXPECT_LT(env.Prctl(PR_JOINGROUP, loner.load()), 0);
    EXPECT_EQ(env.LastError(), Errno::kEINVAL);
    done = true;
  });
  ASSERT_TRUE(a.ok() && b.ok());
  k.WaitAll();
}

TEST(GroupPri, AppliesToEveryMember) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<int> observed{-1};
    std::atomic<bool> set{false};
    env.Sproc(
        [&](Env& c, long) {
          while (!set.load()) {
            c.Yield();
          }
          observed = c.proc().priority.load();
        },
        PR_SALL);
    EXPECT_EQ(env.Prctl(PR_SETGROUPPRI, 5), 2);
    set = true;
    env.WaitChild();
    EXPECT_EQ(observed.load(), 5);
    EXPECT_EQ(env.proc().priority.load(), 5);
  });
}

}  // namespace
}  // namespace sg
