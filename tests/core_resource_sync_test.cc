// §6.3 resource synchronization: descriptor propagation through s_ofile,
// directory/umask/ulimit/id propagation through the shared block, the
// generation caches checked at kernel entry, and the block's own reference
// counts.
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "api/kernel.h"
#include "api/user_env.h"
#include "obs/stats.h"

namespace sg {
namespace {

// Runs `body` inside a launched process and waits for completion.
void RunAsProcess(Kernel& k, std::function<void(Env&)> body) {
  auto pid = k.Launch([body = std::move(body)](Env& env, long) { body(env); });
  ASSERT_TRUE(pid.ok());
  k.WaitAll();
}

TEST(FdSharing, OpenInChildVisibleInParent) {
  Kernel k;
  std::atomic<int> parent_read{-1};
  RunAsProcess(k, [&](Env& env) {
    ASSERT_GE(env.Open("/data", kOpenWrite | kOpenCreat), 0);
    env.WriteStr(0, "hello");
    env.Close(0);

    std::atomic<int> child_fd{-1};
    env.Sproc(
        [&](Env& c, long) {
          // "When one of the processes in a group opens a file, the others
          // will see the file as immediately available to them."
          child_fd = c.Open("/data", kOpenRead);
        },
        PR_SFDS | PR_SADDR);
    env.WaitChild();
    ASSERT_GE(child_fd.load(), 0);

    // The parent's next kernel entry synchronizes its table; the
    // descriptor NUMBER from the child works directly (footnote 1).
    char buf[8] = {};
    i64 n = env.ReadBuf(child_fd.load(),
                        std::as_writable_bytes(std::span<char>(buf, sizeof(buf))));
    parent_read = static_cast<int>(n);
    EXPECT_EQ(std::string_view(buf, 5), "hello");
  });
  EXPECT_EQ(parent_read.load(), 5);
}

TEST(FdSharing, SharedOffsetThroughSharedDescriptor) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    int fd = env.Open("/f", kOpenRdwr | kOpenCreat);
    ASSERT_GE(fd, 0);
    env.WriteStr(fd, "abcdef");
    env.Lseek(fd, 0);
    std::atomic<bool> child_done{false};
    env.Sproc(
        [&, fd](Env& c, long) {
          char b[3] = {};
          c.ReadBuf(fd, std::as_writable_bytes(std::span<char>(b, 3)));
          EXPECT_EQ(std::string_view(b, 3), "abc");
          child_done = true;
        },
        PR_SFDS);
    env.WaitChild();
    ASSERT_TRUE(child_done.load());
    // The open-file entry (and its offset) is shared: we continue where
    // the child stopped.
    char b[3] = {};
    env.ReadBuf(fd, std::as_writable_bytes(std::span<char>(b, 3)));
    EXPECT_EQ(std::string_view(b, 3), "def");
  });
}

TEST(FdSharing, CloseInOneMemberPropagates) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    int fd = env.Open("/g", kOpenWrite | kOpenCreat);
    ASSERT_GE(fd, 0);
    env.Sproc([fd](Env& c, long) { EXPECT_EQ(c.Close(fd), 0); }, PR_SFDS);
    env.WaitChild();
    // Our table resynchronizes on entry: the descriptor is gone.
    EXPECT_LT(env.WriteStr(fd, "x"), 0);
    EXPECT_EQ(env.LastError(), Errno::kEBADF);
  });
}

TEST(FdSharing, NonSharingMemberUnaffected) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<int> child_result{0};
    env.Sproc(
        [&](Env& c, long) {
          int fd = c.Open("/private-child", kOpenWrite | kOpenCreat);
          child_result = fd;
        },
        PR_SADDR /* no PR_SFDS */);
    env.WaitChild();
    ASSERT_GE(child_result.load(), 0);
    // The child's open never propagated: the same slot is free here, and
    // using it reports EBADF.
    char b[1];
    EXPECT_LT(env.ReadBuf(child_result.load(), std::as_writable_bytes(std::span<char>(b, 1))),
              0);
    EXPECT_EQ(env.LastError(), Errno::kEBADF);
  });
}

TEST(FdSharing, Dup2AndCloexecPropagate) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    int fd = env.Open("/d2", kOpenWrite | kOpenCreat);
    ASSERT_GE(fd, 0);
    env.Sproc(
        [fd](Env& c, long) {
          EXPECT_EQ(c.Dup2(fd, 17), 17);
          EXPECT_EQ(c.SetCloexec(fd, true), 0);
        },
        PR_SFDS);
    env.WaitChild();
    // Our next entry delta-pulls exactly the two touched slots: the dup'd
    // descriptor works here, and the flag byte arrived with the original.
    EXPECT_GE(env.WriteStr(17, "x"), 0);
    EXPECT_TRUE(env.proc().fds.Slot(fd).close_on_exec);
    // Both numbers refer to the same open-file entry (shared offset).
    EXPECT_EQ(env.proc().fds.Get(fd).value(), env.proc().fds.Get(17).value());
  });
}

TEST(FdSharing, SingleChangePullsSingleSlot) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    // Fill 48 descriptors BEFORE the group forms; the child inherits a
    // fully synchronized view of all of them.
    for (int i = 0; i < 48; ++i) {
      ASSERT_GE(env.Open("/bulk" + std::to_string(i), kOpenWrite | kOpenCreat), 0);
    }
    std::atomic<bool> go{false};
    std::atomic<bool> pulled{false};
    env.Sproc(
        [&](Env& c, long) {
          while (!go.load()) {
          }
          (void)c.UlimitGet();  // kernel entry: the measured delta pull
          pulled = true;
        },
        PR_SFDS);
    // One new descriptor: the publish stamps exactly one slot.
    ASSERT_GE(env.Open("/one-more", kOpenWrite | kOpenCreat), 0);
    const u64 before = obs::Stats::Global().CounterValue("core.fds.delta_pulled_slots");
    go = true;
    while (!pulled.load()) {
    }
    const u64 after = obs::Stats::Global().CounterValue("core.fds.delta_pulled_slots");
    // O(changed), not O(table): 48 synced descriptors cost nothing, the one
    // change costs one slot.
    EXPECT_EQ(after - before, 1u);
    env.WaitChild();
  });
}

// References the fd bracket displaces are dropped after it unlocks. Here
// B's entry pull drops the last reference to a pipe's read end, so only that
// deferred release closes the reader: A's next write fails with EPIPE.
TEST(FdSharing, EntryPullDropsLastReferenceAfterUnlock) {
  Kernel k;
  const u64 files0 = k.vfs().files().Count();
  const u64 inodes0 = k.vfs().inodes().Count();
  std::atomic<int> step{0};
  std::atomic<int> rd{-1};
  RunAsProcess(k, [&](Env& a) {
    EXPECT_EQ(a.SignalIgnore(kSigPipe), 0);
    a.Sproc(
        [&](Env& b, long) {
          while (step.load() != 1) {
          }
          (void)b.UlimitGet();  // entry pull: B now holds both ends
          EXPECT_TRUE(b.proc().fds.Get(rd.load()).ok());
          step = 2;
          while (step.load() != 3) {
          }
          (void)b.UlimitGet();  // entry pull: drops the read end's last reference
          step = 4;
        },
        PR_SFDS);
    int r = -1;
    int w = -1;
    EXPECT_EQ(a.Pipe(&r, &w), 0);
    rd = r;
    step = 1;
    while (step.load() != 2) {
    }
    EXPECT_EQ(a.Close(r), 0);
    step = 3;
    while (step.load() != 4) {
    }
    EXPECT_LT(a.WriteStr(w, "x"), 0);
    EXPECT_EQ(a.LastError(), Errno::kEPIPE);
    a.WaitChild();
  });
  EXPECT_EQ(k.vfs().files().Count(), files0);
  EXPECT_EQ(k.vfs().inodes().Count(), inodes0);
}

TEST(DirSharing, ChdirPropagatesToGroup) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    ASSERT_EQ(env.Mkdir("/sub"), 0);
    ASSERT_GE(env.Open("/sub/marker", kOpenWrite | kOpenCreat), 0);
    env.Sproc([](Env& c, long) { EXPECT_EQ(c.Chdir("/sub"), 0); }, PR_SDIR | PR_SADDR);
    env.WaitChild();
    // "the ability to change the working directory ... of an entire set of
    // processes at once": a relative open now resolves inside /sub.
    EXPECT_GE(env.Open("marker", kOpenRead), 0);
  });
}

TEST(DirSharing, NonSharingChdirStaysLocal) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    ASSERT_EQ(env.Mkdir("/sub2"), 0);
    env.Sproc([](Env& c, long) { EXPECT_EQ(c.Chdir("/sub2"), 0); }, PR_SADDR);
    env.WaitChild();
    ASSERT_GE(env.Open("still-at-root", kOpenWrite | kOpenCreat), 0);
    EXPECT_GE(env.Open("/still-at-root", kOpenRead), 0);
  });
}

TEST(UmaskSharing, UmaskPropagates) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Umask(0);
    env.Sproc([](Env& c, long) { c.Umask(077); }, PR_SUMASK);
    env.WaitChild();
    int fd = env.Open("/masked", kOpenWrite | kOpenCreat, 0666);
    ASSERT_GE(fd, 0);
    auto st = env.kernel().Stat(env.proc(), "/masked");
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.value().mode, 0600);  // 0666 & ~077
  });
}

TEST(UlimitSharing, UlimitPropagatesAndIsEnforced) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Sproc([](Env& c, long) { EXPECT_EQ(c.UlimitSet(kPageSize), 0); }, PR_SULIMIT);
    env.WaitChild();
    EXPECT_EQ(static_cast<u64>(env.UlimitGet()), kPageSize);
    int fd = env.Open("/limited", kOpenWrite | kOpenCreat);
    ASSERT_GE(fd, 0);
    std::vector<std::byte> big(2 * kPageSize, std::byte{7});
    const i64 n = env.WriteBuf(fd, big);
    EXPECT_EQ(n, static_cast<i64>(kPageSize));  // truncated at the limit
    EXPECT_LT(env.WriteBuf(fd, big), 0);        // nothing more fits
    EXPECT_EQ(env.LastError(), Errno::kEFBIG);
  });
}

TEST(IdSharing, SetuidPropagatesAndChangesAccess) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    // Root creates a file only uid 42 can read, then drops privileges in a
    // CHILD; PR_SID propagates the uid to the parent.
    int fd = env.Open("/secret", kOpenWrite | kOpenCreat, 0400);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(env.kernel().Chmod(env.proc(), "/secret", 0400).ok(), true);
    env.Sproc([](Env& c, long) { EXPECT_EQ(c.Setuid(42), 0); }, PR_SID);
    env.WaitChild();
    EXPECT_EQ(env.Getuid(), 42);
    // uid 42 is not the owner (root is): read must now fail.
    EXPECT_LT(env.Open("/secret", kOpenRead), 0);
    EXPECT_EQ(env.LastError(), Errno::kEACCES);
  });
}

TEST(SyncBits, GenerationLagsOnOthersAndCatchesUpOnEntry) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<bool> gate{false};
    env.Sproc(
        [&](Env& c, long) {
          c.Umask(011);
          gate = true;
        },
        PR_SUMASK);
    // Wait in USER mode (no syscalls) so our stale window stays observable.
    while (!gate.load()) {
    }
    // The child's update was O(1): it bumped the umask generation and the
    // summary instead of walking the chain to mark us, so our cached
    // summary now lags the block's.
    EXPECT_NE(env.proc().p_sync.summary, env.proc().shaddr->summary());
    EXPECT_NE(env.proc().p_sync.gen[kResUmask], env.proc().shaddr->generation(kResUmask));
    // Any syscall is a kernel entry; the single summary compare catches the
    // lag, pulls the umask, and the cache catches up.
    (void)env.UlimitGet();
    EXPECT_EQ(env.proc().p_sync.summary, env.proc().shaddr->summary());
    EXPECT_EQ(env.Umask(011), 011);  // previous mask = the child's value
    env.WaitChild();
  });
}

TEST(SyncBits, BlockHoldsItsOwnReferences) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    int fd = env.Open("/held", kOpenWrite | kOpenCreat);
    ASSERT_GE(fd, 0);
    // Create the group: the block copies the fd table, bumping refs.
    std::atomic<bool> gate{false};
    env.Sproc(
        [&](Env& c, long) {
          while (!gate.load()) {
            c.Yield();
          }
        },
        PR_SFDS);
    OpenFile* f = env.proc().fds.Get(fd).value();
    // Our slot + the block's master copy + the live child's inherited slot.
    EXPECT_EQ(env.kernel().vfs().files().RefCount(f), 3u);
    gate = true;
    env.WaitChild();
    // The child's reference died with it; the block still holds its own, so
    // the entry survives any member's exit (§6.3 race avoidance).
    EXPECT_EQ(env.kernel().vfs().files().RefCount(f), 2u);
  });
}

TEST(Teardown, LastExitReleasesBlockResources) {
  Kernel k;
  std::atomic<u64> files_live{99};
  RunAsProcess(k, [&](Env& env) {
    ASSERT_GE(env.Open("/t", kOpenWrite | kOpenCreat), 0);
    env.Sproc([](Env&, long) {}, PR_SALL);
    env.WaitChild();
  });
  // Everything exited: block destroyed, its file refs released. Only no
  // files should remain open system-wide.
  files_live = k.vfs().files().Count();
  EXPECT_EQ(files_live.load(), 0u);
  EXPECT_EQ(k.LiveBlocks(), 0u);
}

}  // namespace
}  // namespace sg
