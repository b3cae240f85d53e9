// Direct ShaddrBlock unit tests (no kernel): the member chain at the
// structure level, master-copy seeding, the TryAddMember drain guard that
// PR_JOINGROUP relies on, and the generation sync: per-resource masks at
// entry, long lags, and the updater's own cache and double-update check.
#include <gtest/gtest.h>

#include <thread>

#include "core/shaddr.h"
#include "core/share_mask.h"
#include "fs/vfs.h"
#include "hw/cpu_set.h"
#include "proc/proc.h"
#include "proc/scheduler.h"
#include "rm/rm.h"
#include "sync/lockdep.h"

namespace sg {
namespace {

struct Rig {
  PhysMem mem{64 * kPageSize};
  CpuSet cpus{2};
  Scheduler sched{2};
  Vfs vfs{64, 64};
  rm::ResourceManager rm;

  std::unique_ptr<Proc> MakeProc(pid_t pid) {
    auto p = std::make_unique<Proc>(pid, mem, sched, 64);
    p->cwd = Iget(vfs.root());
    p->rootdir = Iget(vfs.root());
    return p;
  }
  void DestroyProc(Proc& p) {
    Iput(p.cwd);
    Iput(p.rootdir);
    p.as.DetachAllPrivate();
  }
  // Raw attach mirroring the kernel's admission contract: the caller charges
  // the member cap before AddMember (RemoveMember owns the uncharge).
  void Attach(ShaddrBlock& blk, Proc& p, u32 mask) {
    blk.rm_node()->ChargeForced(rm::Resource::kMembers, 1);
    blk.AddMember(p, mask);
  }
  void ReleaseFds(Proc& p) {
    for (FdEntry& e : p.fds.slots()) {
      if (e.used()) {
        vfs.files().Release(e.file);
        e = FdEntry{};
      }
    }
  }
};

TEST(ShaddrUnit, CreatorSeedsMasterCopies) {
  Rig rig;
  auto a = rig.MakeProc(1);
  a->umask = 031;
  a->ulimit = 4242;
  a->uid = 7;
  a->gid = 8;
  ShaddrBlock block(*a, rig.cpus, rig.vfs, rig.rm);
  EXPECT_EQ(block.refcnt(), 1u);
  EXPECT_EQ(a->p_shmask, PR_SALL);  // "a mask indicating that all resources are shared"
  const ShaddrBlock::Scalars m = block.scalars();
  EXPECT_EQ(m.cmask, 031);
  EXPECT_EQ(m.limit, 4242u);
  EXPECT_EQ(m.uid, 7);
  EXPECT_EQ(m.gid, 8);
  EXPECT_EQ(m.cdir, a->cwd);
  EXPECT_EQ(m.rdir, a->rootdir);
  // The block holds its own inode references (+2 on the root: cdir+rdir).
  EXPECT_GE(rig.vfs.root()->refs(), 4u);
  EXPECT_TRUE(block.RemoveMember(*a));
  rig.DestroyProc(*a);
}

TEST(ShaddrUnit, MemberChainLinksAndUnlinksInAnyOrder) {
  Rig rig;
  auto a = rig.MakeProc(1);
  auto b = rig.MakeProc(2);
  auto c = rig.MakeProc(3);
  ShaddrBlock block(*a, rig.cpus, rig.vfs, rig.rm);
  rig.Attach(block, *b, PR_SFDS);
  rig.Attach(block, *c, PR_SUMASK);
  EXPECT_EQ(block.refcnt(), 3u);
  int seen = 0;
  block.ForEachMember([&](Proc&) { ++seen; });
  EXPECT_EQ(seen, 3);
  // Remove the MIDDLE of the chain first, then the rest.
  EXPECT_FALSE(block.RemoveMember(*b));
  EXPECT_EQ(block.refcnt(), 2u);
  EXPECT_FALSE(block.RemoveMember(*a));
  EXPECT_TRUE(block.RemoveMember(*c));
  rig.DestroyProc(*a);
  rig.DestroyProc(*b);
  rig.DestroyProc(*c);
}

TEST(ShaddrUnit, TryAddMemberRefusesDrainedBlock) {
  Rig rig;
  auto a = rig.MakeProc(1);
  auto b = rig.MakeProc(2);
  ShaddrBlock block(*a, rig.cpus, rig.vfs, rig.rm);
  EXPECT_TRUE(block.RemoveMember(*a));  // refcnt 0: the block is draining
  // A dynamic joiner racing the last exit must be turned away.
  EXPECT_FALSE(block.TryAddMember(*b, PR_SALL & ~PR_SADDR));
  EXPECT_EQ(b->shaddr, nullptr);
  rig.DestroyProc(*a);
  rig.DestroyProc(*b);
}

TEST(ShaddrUnit, EntrySyncRespectsPerResourceMasks) {
  Rig rig;
  auto a = rig.MakeProc(1);
  auto b = rig.MakeProc(2);  // shares umask only
  auto c = rig.MakeProc(3);  // shares ulimit only
  ShaddrBlock block(*a, rig.cpus, rig.vfs, rig.rm);
  rig.Attach(block, *b, PR_SUMASK);
  rig.Attach(block, *c, PR_SULIMIT);
  block.SyncOnKernelEntry(*b);  // start both fully caught up
  block.SyncOnKernelEntry(*c);
  const SyncCache b_before = b->p_sync;
  const SyncCache c_before = c->p_sync;
  block.UpdateScalar(*a, kResUmask, [](Proc& q) { q.umask = 011; });
  block.UpdateScalar(*a, kResUlimit, [](Proc& q) { q.ulimit = 999; });
  // O(1) updates: nobody else's cache is touched; staleness is carried by
  // the block's generations alone.
  EXPECT_EQ(b->p_sync.summary, b_before.summary);
  EXPECT_EQ(c->p_sync.summary, c_before.summary);
  EXPECT_NE(b->p_sync.summary, block.summary());
  // Each member's entry-sync pulls only the resources it shares and skips
  // the rest without touching the member's private copies.
  block.SyncOnKernelEntry(*b);
  EXPECT_EQ(b->umask, 011);
  EXPECT_NE(b->ulimit, 999u);
  EXPECT_EQ(b->p_sync.summary, block.summary());  // fully caught up either way
  EXPECT_EQ(b->p_sync.gen[kResUlimit], b_before.gen[kResUlimit]);
  block.SyncOnKernelEntry(*c);
  EXPECT_EQ(c->ulimit, 999u);
  EXPECT_NE(c->umask, 011);
  EXPECT_EQ(c->p_sync.summary, block.summary());
  EXPECT_EQ(c->p_sync.gen[kResUmask], c_before.gen[kResUmask]);
  EXPECT_FALSE(block.RemoveMember(*b));
  EXPECT_FALSE(block.RemoveMember(*c));
  EXPECT_TRUE(block.RemoveMember(*a));
  rig.DestroyProc(*a);
  rig.DestroyProc(*b);
  rig.DestroyProc(*c);
}

// An updater that has not entered the kernel since a peer's update must not
// skip that update when it caches its own bump: a's cached summary may
// follow the block's only when a's bump was the next one after a's last
// sync.
TEST(ShaddrUnit, UpdaterStillPullsPeerUpdateItMissed) {
  Rig rig;
  auto a = rig.MakeProc(1);
  auto b = rig.MakeProc(2);
  ShaddrBlock block(*a, rig.cpus, rig.vfs, rig.rm);
  rig.Attach(block, *b, PR_SALL & ~PR_SADDR);
  block.SyncOnKernelEntry(*a);  // both start current
  block.SyncOnKernelEntry(*b);

  block.UpdateScalar(*b, kResUmask, [](Proc& q) { q.umask = 007; });
  // a has not entered since b's update.
  block.UpdateScalar(*a, kResUlimit, [](Proc& q) { q.ulimit = 12345; });
  EXPECT_EQ(a->ulimit, 12345u);
  EXPECT_NE(a->umask, 007);

  block.SyncOnKernelEntry(*a);
  EXPECT_EQ(a->umask, 007);
  EXPECT_EQ(a->ulimit, 12345u);
  block.SyncOnKernelEntry(*b);
  EXPECT_EQ(b->umask, 007);
  EXPECT_EQ(b->ulimit, 12345u);
  EXPECT_FALSE(block.RemoveMember(*b));
  EXPECT_TRUE(block.RemoveMember(*a));
  rig.DestroyProc(*a);
  rig.DestroyProc(*b);
}

// The double-update check on a row with two fields: a's ids copy is stale
// when it sets its uid, so UpdateScalar must refresh a's gid from the
// master before copying a's ids back, or b's setgid is lost.
TEST(ShaddrUnit, StaleSetuidKeepsPeersSetgid) {
  Rig rig;
  auto a = rig.MakeProc(1);
  auto b = rig.MakeProc(2);
  ShaddrBlock block(*a, rig.cpus, rig.vfs, rig.rm);
  rig.Attach(block, *b, PR_SID);
  block.SyncOnKernelEntry(*a);  // both start current
  block.SyncOnKernelEntry(*b);

  block.UpdateScalar(*b, kResIds, [](Proc& q) { q.gid = 9; });
  block.UpdateScalar(*a, kResIds, [](Proc& q) { q.uid = 7; });  // a never pulled b's gid
  const ShaddrBlock::Scalars m = block.scalars();
  EXPECT_EQ(m.uid, 7);
  EXPECT_EQ(m.gid, 9);
  EXPECT_EQ(a->gid, 9);
  EXPECT_FALSE(block.RemoveMember(*b));
  EXPECT_TRUE(block.RemoveMember(*a));
  rig.DestroyProc(*a);
  rig.DestroyProc(*b);
}

TEST(ShaddrUnit, ScalarLongLagConverges) {
  Rig rig;
  auto a = rig.MakeProc(1);
  auto b = rig.MakeProc(2);
  ShaddrBlock block(*a, rig.cpus, rig.vfs, rig.rm);
  rig.Attach(block, *b, PR_SUMASK);
  block.SyncOnKernelEntry(*b);  // start b fully caught up
  // b sleeps through 2^12+1 umask updates (past where a 12-bit generation
  // would alias); its next entry must still pull the latest value.
  constexpr u64 kUpdates = (u64{1} << 12) + 1;
  for (u64 i = 1; i <= kUpdates; ++i) {
    block.UpdateScalar(*a, kResUmask, [i](Proc& q) { q.umask = static_cast<mode_t>(i & 0777); });
  }
  EXPECT_EQ(block.generation(kResUmask), kFirstGen + kUpdates);
  EXPECT_NE(b->umask, a->umask);
  block.SyncOnKernelEntry(*b);
  EXPECT_EQ(b->umask, a->umask);
  EXPECT_EQ(b->p_sync.summary, block.summary());
  EXPECT_FALSE(block.RemoveMember(*b));
  EXPECT_TRUE(block.RemoveMember(*a));
  rig.DestroyProc(*a);
  rig.DestroyProc(*b);
}

TEST(ShaddrUnit, FdLongLagConverges) {
  Rig rig;
  auto a = rig.MakeProc(1);
  auto b = rig.MakeProc(2);
  // a holds one open file in slot 0 before the group forms, so the block's
  // master copy seeds with it.
  OpenFile* f = rig.vfs.files().Alloc(Iget(rig.vfs.root()), kOpenRead).value();
  ASSERT_TRUE(a->fds.SetSlot(0, f, false).ok());
  {
    ShaddrBlock block(*a, rig.cpus, rig.vfs, rig.rm);
    rig.Attach(block, *b, PR_SFDS);
    // Raw attach (no sproc seeding): b's cache is zeroed, the same state
    // PR_JOINGROUP gives a dynamic joiner, so its first pull reconciles
    // every slot.
    block.SyncOnKernelEntry(*b);  // b catches up (and dups slot 0)
    EXPECT_EQ(b->fds.Slot(0).file, f);
    EXPECT_EQ(rig.vfs.files().RefCount(f), 3u);  // a + master + b

    // b sleeps through 2^16+1 publishes (past where a 16-bit generation
    // would alias), each toggling slot 0's flag byte: one changed slot per
    // publish, no refcount traffic.
    constexpr u64 kPublishes = (u64{1} << 16) + 1;
    for (u64 i = 0; i < kPublishes; ++i) {
      a->fds.Slot(0).close_on_exec = !a->fds.Slot(0).close_on_exec;
      block.LockFileUpdate();
      block.PullFds(*a);
      block.PublishFds(*a);
      block.UnlockFileUpdate();
    }
    EXPECT_EQ(block.generation(kResFds), kFirstGen + kPublishes);
    EXPECT_NE(b->fds.Slot(0).close_on_exec, a->fds.Slot(0).close_on_exec);
    block.SyncOnKernelEntry(*b);
    EXPECT_EQ(b->fds.Slot(0).close_on_exec, a->fds.Slot(0).close_on_exec);
    EXPECT_EQ(b->p_sync.summary, block.summary());
    EXPECT_EQ(rig.vfs.files().RefCount(f), 3u);

    rig.ReleaseFds(*a);
    rig.ReleaseFds(*b);
    EXPECT_FALSE(block.RemoveMember(*b));
    EXPECT_TRUE(block.RemoveMember(*a));
  }
  // Refcount balance: member slots and the block's master copy all dropped.
  EXPECT_EQ(rig.vfs.files().Count(), 0u);
  rig.DestroyProc(*a);
  rig.DestroyProc(*b);
}

// The dir row moves counted inode references inside rupdlock_, a
// spinlock, through the same UpdateScalar/PullScalar as the ids, umask and
// ulimit rows. That is sound only because an inode put never sleeps: it
// takes no table lock, and a last put frees without taking a lock. Under
// the lockdep preset a put that may sleep fails this test through
// lockdep's sleep-under-spin report, and tsan checks the concurrent
// refcount traffic below. (sgcheck cannot see these puts: they run through
// the row's copy-function pointers.)
TEST(ShaddrUnit, DirRowMovesCountedRefsUnderRupdlock) {
  const u64 lockdep_reports = lockdep::Reports();
  Rig rig;
  auto a = rig.MakeProc(1);
  auto b = rig.MakeProc(2);

  const Cred cred;
  ASSERT_TRUE(rig.vfs.Mkdir(a->cwd, a->rootdir, cred, "/sub", 0755, 0).ok());
  Inode* sub = rig.vfs.Namei(a->cwd, a->rootdir, cred, "/sub").value();  // counted
  // chdir's change: the counted reference moves into the cwd.
  auto chdir_to = [](Inode* ip) {
    return [ip](Proc& q) {
      Iput(q.cwd);
      q.cwd = ip;
    };
  };

  {
    ShaddrBlock block(*a, rig.cpus, rig.vfs, rig.rm);
    rig.Attach(block, *b, PR_SDIR);

    // a chdirs: the /sub ref becomes a's cwd, and the block's master copy
    // takes its own.
    block.UpdateScalar(*a, kResDir, chdir_to(sub));
    EXPECT_EQ(a->cwd, sub);
    EXPECT_EQ(block.scalars().cdir, sub);
    EXPECT_EQ(sub->refs(), 2u);  // a->cwd + master copy

    // b syncs on its next kernel entry: same directory, its own counted
    // ref; the root stays its root.
    block.SyncOnKernelEntry(*b);
    EXPECT_EQ(b->cwd, sub);
    EXPECT_EQ(b->rootdir, rig.vfs.root());
    EXPECT_EQ(sub->refs(), 3u);

    // Concurrent updater/puller: every iteration puts inodes inside
    // rupdlock_, so a put that sleeps trips lockdep (and tsan sees any
    // unlocked refcount traffic).
    std::thread updater([&] {
      for (int i = 0; i < 100; ++i) {
        block.UpdateScalar(*a, kResDir, chdir_to(Iget(i % 2 == 0 ? rig.vfs.root() : sub)));
      }
    });
    std::thread puller([&] {
      for (int i = 0; i < 100; ++i) {
        block.SyncOnKernelEntry(*b);
      }
    });
    updater.join();
    puller.join();
    block.SyncOnKernelEntry(*b);
    EXPECT_EQ(b->cwd, a->cwd);
    EXPECT_EQ(b->rootdir, a->rootdir);

    EXPECT_FALSE(block.RemoveMember(*b));
    EXPECT_TRUE(block.RemoveMember(*a));
  }
  rig.DestroyProc(*a);
  rig.DestroyProc(*b);
  // Everything released: only the namespace (its link) keeps /sub alive.
  EXPECT_EQ(sub->refs(), 0u);
  EXPECT_EQ(sub->nlink(), 1u);
  EXPECT_EQ(lockdep::Reports(), lockdep_reports) << lockdep::RenderReport();
}

}  // namespace
}  // namespace sg
