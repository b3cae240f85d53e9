// Kernel-level filesystem syscalls beyond the basics: dup2, close-on-exec
// via fcntl-style flags (with share-group propagation through s_pofile),
// getcwd (plain, group-shared cwd, and inside a chroot jail), stat/chmod
// and hard links through the syscall surface.
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

TEST(FsCalls, Dup2ReplacesAndSharesEntry) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    int a = env.Open("/a", kOpenRdwr | kOpenCreat);
    int b = env.Open("/b", kOpenRdwr | kOpenCreat);
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    // b's slot now aliases a's open-file entry (shared offset).
    EXPECT_EQ(env.Dup2(a, b), b);
    env.WriteStr(a, "xy");
    EXPECT_EQ(env.WriteStr(b, "z"), 1);  // continues at offset 2
    auto st = env.kernel().Stat(env.proc(), "/a");
    EXPECT_EQ(st.value().size, 3u);
    EXPECT_EQ(env.kernel().Stat(env.proc(), "/b").value().size, 0u);
    // dup2 onto itself is a no-op.
    EXPECT_EQ(env.Dup2(a, a), a);
    // Bad targets rejected.
    EXPECT_LT(env.Dup2(a, FdTable::kMaxFds + 5), 0);
    EXPECT_LT(env.Dup2(99, 5), 0);
  });
}

TEST(FsCalls, Dup2PropagatesAcrossGroup) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    int a = env.Open("/src", kOpenRdwr | kOpenCreat);
    env.WriteStr(a, "payload");
    std::atomic<int> alias{-1};
    env.Sproc(
        [&, a](Env& c, long) {
          int spare = c.Open("/spare", kOpenRead | kOpenCreat);
          ASSERT_GE(spare, 0);
          ASSERT_EQ(c.Dup2(a, spare), spare);  // publishes the new table
          alias = spare;
        },
        PR_SFDS);
    env.WaitChild();
    ASSERT_GE(alias.load(), 0);
    // Our table resynced: the alias works here and shares the offset.
    EXPECT_EQ(env.Lseek(alias.load(), 0), 0);
    char buf[8] = {};
    EXPECT_EQ(env.ReadBuf(alias.load(), std::as_writable_bytes(std::span<char>(buf, 7))), 7);
    EXPECT_EQ(std::string_view(buf, 7), "payload");
  });
}

TEST(FsCalls, CloexecFlagSurvivesGroupSyncAndExec) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    int keep = env.Open("/keep", kOpenWrite | kOpenCreat);
    int drop = env.Open("/drop", kOpenWrite | kOpenCreat);
    // A member sets the flag; it propagates through s_pofile.
    env.Sproc([drop](Env& c, long) { ASSERT_EQ(c.SetCloexec(drop, true), 0); }, PR_SFDS);
    env.WaitChild();
    env.Yield();  // resync
    EXPECT_TRUE(env.kernel().GetCloexec(env.proc(), drop).value());
    EXPECT_FALSE(env.kernel().GetCloexec(env.proc(), keep).value());
    // Exec in a fork child honors the propagated flag.
    env.Fork([keep, drop](Env& c, long) {
      Image img;
      img.main = [keep, drop](Env& e2, long) {
        EXPECT_EQ(e2.WriteStr(keep, "k"), 1);
        EXPECT_LT(e2.WriteStr(drop, "d"), 0);
        EXPECT_EQ(e2.LastError(), Errno::kEBADF);
      };
      c.Exec(img);
    });
    env.WaitChild();
    EXPECT_LT(env.SetCloexec(42, true), 0);
    EXPECT_EQ(env.LastError(), Errno::kEBADF);
  });
}

TEST(FsCalls, GetcwdWalksToRoot) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    EXPECT_EQ(env.Getcwd(), "/");
    env.Mkdir("/x");
    env.Mkdir("/x/y");
    env.Mkdir("/x/y/z");
    ASSERT_EQ(env.Chdir("/x/y/z"), 0);
    EXPECT_EQ(env.Getcwd(), "/x/y/z");
    ASSERT_EQ(env.Chdir(".."), 0);
    EXPECT_EQ(env.Getcwd(), "/x/y");
  });
}

TEST(FsCalls, GetcwdInsideChrootJail) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Mkdir("/jail");
    env.Mkdir("/jail/home");
    ASSERT_EQ(env.Chroot("/jail"), 0);
    ASSERT_EQ(env.Chdir("/"), 0);
    EXPECT_EQ(env.Getcwd(), "/");  // the jail's root, not the real one
    ASSERT_EQ(env.Chdir("/home"), 0);
    EXPECT_EQ(env.Getcwd(), "/home");
  });
}

TEST(FsCalls, GetcwdReflectsGroupChdir) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Mkdir("/team");
    env.Sproc([](Env& c, long) { ASSERT_EQ(c.Chdir("/team"), 0); }, PR_SDIR);
    env.WaitChild();
    EXPECT_EQ(env.Getcwd(), "/team");  // the member moved all of us
  });
}

TEST(FsCalls, StatChmodLinkRoundTrip) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    int fd = env.Open("/f", kOpenWrite | kOpenCreat, 0644);
    env.WriteStr(fd, "12345");
    auto st = env.kernel().Stat(env.proc(), "/f");
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.value().size, 5u);
    EXPECT_EQ(st.value().mode, 0644);
    EXPECT_EQ(st.value().nlink, 1u);
    EXPECT_EQ(st.value().type, InodeType::kRegular);

    ASSERT_TRUE(env.kernel().Chmod(env.proc(), "/f", 0600).ok());
    EXPECT_EQ(env.kernel().Stat(env.proc(), "/f").value().mode, 0600);

    ASSERT_TRUE(env.kernel().Link(env.proc(), "/f", "/f2").ok());
    auto st2 = env.kernel().Stat(env.proc(), "/f2");
    EXPECT_EQ(st2.value().ino, st.value().ino);  // same inode
    EXPECT_EQ(st2.value().nlink, 2u);

    auto fst = env.kernel().Fstat(env.proc(), fd);
    EXPECT_EQ(fst.value().ino, st.value().ino);

    // Only the owner (or root) may chmod: drop privileges and retry.
    ASSERT_EQ(env.Setuid(9), 0);
    EXPECT_EQ(env.kernel().Chmod(env.proc(), "/f", 0777).error(), Errno::kEPERM);
  });
}

TEST(FsCalls, ListDirEnumeratesSorted) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Mkdir("/d");
    env.Open("/d/charlie", kOpenWrite | kOpenCreat);
    env.Open("/d/alpha", kOpenWrite | kOpenCreat);
    env.Mkdir("/d/bravo");
    auto names = env.ListDir("/d");
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "bravo");
    EXPECT_EQ(names[2], "charlie");
    EXPECT_TRUE(env.ListDir("/d/alpha").empty());
    EXPECT_EQ(env.LastError(), Errno::kENOTDIR);
    // Read permission enforced.
    ASSERT_TRUE(env.kernel().Chmod(env.proc(), "/d", 0111).ok());
    ASSERT_EQ(env.Setuid(5), 0);
    EXPECT_TRUE(env.ListDir("/d").empty());
    EXPECT_EQ(env.LastError(), Errno::kEACCES);
  });
}

TEST(FsCalls, UnlinkedCwdReportsDisconnected) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Mkdir("/tmpdir");
    ASSERT_EQ(env.Chdir("/tmpdir"), 0);
    // Remove the directory out from under ourselves (allowed: the cwd ref
    // keeps the inode alive, the name is gone).
    ASSERT_EQ(env.kernel().Rmdir(env.proc(), "/tmpdir").ok(), true);
    EXPECT_EQ(env.Getcwd(), "");
    EXPECT_EQ(env.LastError(), Errno::kENOENT);
    // We can still escape upward.
    ASSERT_EQ(env.Chdir("/"), 0);
    EXPECT_EQ(env.Getcwd(), "/");

    // POSIX rmdir: removing the last link removes ".." too, so from inside
    // /a/b after both are removed, ".." and getcwd fail instead of
    // reaching the freed /a, and the removed directory takes no entry.
    ASSERT_EQ(env.Mkdir("/a"), 0);
    ASSERT_EQ(env.Mkdir("/a/b"), 0);
    ASSERT_EQ(env.Chdir("/a/b"), 0);
    ASSERT_TRUE(env.kernel().Rmdir(env.proc(), "/a/b").ok());
    ASSERT_TRUE(env.kernel().Rmdir(env.proc(), "/a").ok());
    EXPECT_EQ(env.Chdir(".."), -1);
    EXPECT_EQ(env.LastError(), Errno::kENOENT);
    EXPECT_EQ(env.Getcwd(), "");
    EXPECT_EQ(env.LastError(), Errno::kENOENT);
    EXPECT_EQ(env.Mkdir("c"), -1);
    EXPECT_EQ(env.LastError(), Errno::kENOENT);
    EXPECT_LT(env.Open("f", kOpenWrite | kOpenCreat), 0);
    EXPECT_EQ(env.LastError(), Errno::kENOENT);
    ASSERT_EQ(env.Chdir("/"), 0);
    EXPECT_EQ(env.Getcwd(), "/");
  });
}

// Regression: a sibling snapshotting the shared master table (the
// /proc/share/<gid> path goes through ShaddrBlock::OfileCount) while a
// PR_SFDS member grows it under s_fupdsema. PublishFds used to rebuild
// the master vector in place — a concurrent reader could observe the
// vector mid-realloc (use-after-free of the old backing store). Today the
// snapshot reads the incrementally maintained atomic count and never walks
// the vector at all; the race this pins down is the counter staying
// coherent (and the process not crashing) under concurrent publishes.
TEST(FsCalls, OfileSnapshotRacesGrowingMasterTable) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<bool> done{false};
    env.Sproc(
        [&](Env& c, long) {
          // Grow and shrink the master table hard enough to force the
          // backing vector through several reallocations.
          for (int round = 0; round < 40; ++round) {
            int fds[8];
            for (int i = 0; i < 8; ++i) {
              fds[i] = c.Open("/grow" + std::to_string(i), kOpenRdwr | kOpenCreat);
            }
            for (int i = 0; i < 8; ++i) {
              if (fds[i] >= 0) {
                c.Close(fds[i]);
              }
            }
          }
          done = true;
        },
        PR_SFDS);
    ShaddrBlock* b = env.kernel().BlockOf(env.proc());
    ASSERT_NE(b, nullptr);
    while (!done.load()) {
      // The old code read the master vector unsynchronized here.
      (void)b->OfileCount();
      env.Yield();
    }
    env.WaitChild();
  });
  EXPECT_EQ(k.LiveBlocks(), 0u);
  EXPECT_EQ(k.vfs().files().Count(), 0u);
}

// A path walk looks a child up and takes its reference in one hold of the
// directory's lock, which Unlink also holds to remove the entry and drop
// its link. The walk used to drop the directory's lock between the two, so
// an unlink could free the child there: the Iget then panicked on the
// missing table entry, or counted a reference on a new inode allocated at
// the same address.
TEST(FsCalls, OpenRacingUnlinkNeverLosesTheInode) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<bool> done{false};
    env.Fork([&](Env& c, long) {
      for (int i = 0; i < 20000; ++i) {
        const int fd = c.Open("/t", kOpenRdwr | kOpenCreat);
        if (fd < 0 || c.Close(fd) != 0 || c.Unlink("/t") != 0) {
          ADD_FAILURE() << "create/close/unlink round " << i;
          break;
        }
      }
      done = true;
    });
    while (!done.load()) {
      const int fd = env.Open("/t", kOpenRdwr);
      if (fd >= 0) {
        EXPECT_EQ(env.Close(fd), 0);
      }
    }
    env.WaitChild();
  });
  EXPECT_EQ(k.vfs().files().Count(), 0u);
}

// Two processes create, close and remove one name. Unlink and rmdir used
// to look the name up, remove the entry and drop the link in three lock
// holds, so both removers could pass the lookup and the second panicked
// the kernel (a link count going below zero). One hold of the directory's
// lock now does all three, and the loser gets kENOENT.
TEST(FsCalls, RacingRemovalsOfOneNameLoseWithEnoent) {
  Kernel k;
  const u64 inodes0 = k.vfs().inodes().Count();
  RunAsProcess(k, [&](Env& env) {
    auto churn = [](Env& c) {
      for (int i = 0; i < 20000; ++i) {
        const int fd = c.Open("/t", kOpenRdwr | kOpenCreat);
        if (fd < 0 || c.Close(fd) != 0) {
          ADD_FAILURE() << "create/close round " << i << ": " << ErrnoName(c.LastError());
          return;
        }
        if (c.Unlink("/t") != 0 && c.LastError() != Errno::kENOENT) {
          ADD_FAILURE() << "unlink round " << i << ": " << ErrnoName(c.LastError());
          return;
        }
        if (i % 8 != 0) {
          continue;
        }
        if (c.Mkdir("/d") != 0 && c.LastError() != Errno::kEEXIST) {
          ADD_FAILURE() << "mkdir round " << i << ": " << ErrnoName(c.LastError());
          return;
        }
        const Status rm = c.kernel().Rmdir(c.proc(), "/d");
        if (!rm.ok() && rm.error() != Errno::kENOENT) {
          ADD_FAILURE() << "rmdir round " << i << ": " << rm.name();
          return;
        }
      }
    };
    env.Fork([&](Env& c, long) { churn(c); });
    churn(env);
    env.WaitChild();
  });
  EXPECT_EQ(k.vfs().files().Count(), 0u);
  EXPECT_EQ(k.vfs().inodes().Count(), inodes0);
}

// Stat reads the link count while link and unlink change it. The count was
// a plain field written under the inode-table lock and read under none, a
// data race under tsan; it now lives in the inode's atomic count word.
TEST(FsCalls, StatRacingLinkSeesWholeLinkCounts) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    const int fd = env.Open("/f", kOpenWrite | kOpenCreat);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(env.Close(fd), 0);
    std::atomic<bool> done{false};
    env.Fork([&](Env& c, long) {
      for (int i = 0; i < 2000; ++i) {
        if (!c.kernel().Link(c.proc(), "/f", "/g").ok() || c.Unlink("/g") != 0) {
          ADD_FAILURE() << "link/unlink round " << i;
          break;
        }
      }
      done = true;
    });
    while (!done.load()) {
      auto st = env.kernel().Stat(env.proc(), "/f");
      if (!st.ok() || st.value().nlink < 1 || st.value().nlink > 2) {
        ADD_FAILURE() << "stat saw nlink " << (st.ok() ? st.value().nlink : 0);
        break;
      }
    }
    env.WaitChild();
    EXPECT_EQ(env.kernel().Stat(env.proc(), "/f").value().nlink, 1u);
  });
}

}  // namespace
}  // namespace sg
