#include "core/shaddr.h"

#include <algorithm>

#include "base/check.h"
#include "core/share_mask.h"
#include "inject/inject.h"
#include "obs/trace.h"
#include "sync/seqcount.h"
#include "sync/update_lock.h"
#include "vm/vm_ops.h"

namespace sg {

namespace {

// Is this pregion type sharable when a group forms? The PRDA never is
// ("certain small parts of a process's VM space are not shared", §5.1).
bool Sharable(const Pregion& pr) { return pr.region->type() != RegionType::kPrda; }

// Group ids are process-wide and never reused, so /proc/share names stay
// unambiguous across the lifetime of the simulation.
std::atomic<u64> g_next_group_id{1};

// The dir row's copy: points the counted reference `ref` at `ip`, holding
// the new inode before putting the old. An inode put takes no lock, so
// rupdlock_ may be held.
void Reseat(Inode*& ref, Inode* ip) {
  Iget(ip);
  if (ref != nullptr) {  // null only while the constructor seeds the master
    Iput(ref);
  }
  ref = ip;
}

}  // namespace

ShaddrBlock::ShaddrBlock(Proc& creator, CpuSet& cpus, Vfs& vfs, rm::ResourceManager& rm)
    : vfs_(vfs),
      node_(rm),
      space_(cpus),
      id_(g_next_group_id.fetch_add(1, std::memory_order_relaxed)) {
  // Every region that joins the group image is pointed at the group's rm
  // node so resident pages count against the group's page cap.
  space_.set_page_charge(&node_);
  // Move the creator's sharable pregions onto the shared list (§6.2: "When
  // a process first creates a share group all of its sharable pregions are
  // moved to the list of pregions in the shared address block"). Nobody
  // else can see the block yet, so no locking.
  auto& priv = creator.as.private_pregions();
  {
    UpdateGuard g(space_.lock());
    for (auto it = priv.begin(); it != priv.end();) {
      if (Sharable(**it)) {
        if ((*it)->base >= kArenaBase) {
          SG_CHECK(space_.va().Reserve((*it)->base, (*it)->region->pages()).ok());
        }
        // AttachPregion points the region at node_ (the page_charge_ set
        // above) and publishes the growing layout.
        space_.AttachPregion(std::move(*it));
        it = priv.erase(it);
      } else {
        ++it;
      }
    }
    space_.AddMemberTlb(&creator.as.tlb());
  }
  creator.as.set_shared(&space_);

  // Seed the master resource copies, bumping the block's own references.
  // Slots start at kFirstGen, the fds generation the creator is seeded
  // with below: nothing is newer than what it already has.
  ofile_.reserve(creator.fds.slots().size());
  int used = 0;
  for (const FdEntry& e : creator.fds.slots()) {
    MasterFdSlot s;
    if (e.used()) {
      s.e = FdEntry{vfs_.files().Hold(e.file), e.close_on_exec};
      ++used;
    }
    ofile_.push_back(s);
  }
  // Forced charges: the founder's pre-existing usage can never bounce (no
  // cap is configurable before the group exists).
  node_.ChargeForced(rm::Resource::kFiles, static_cast<u64>(used));
  node_.ChargeForced(rm::Resource::kMembers, 1);
  for (const SyncRow& row : kSyncTable) {
    if (row.to_master != nullptr) {
      row.to_master(creator, scalars_);
    }
  }

  // The master copies ARE the creator's current values, so the creator is
  // born synchronized (it may carry stale caches from an earlier group).
  creator.p_sync.summary = kFirstGen;
  creator.p_sync.gen.fill(kFirstGen);

  plink_ = &creator;
  creator.s_plink = nullptr;
  refcnt_ = 1;
  creator.rm_node.store(&node_, std::memory_order_release);
  creator.shaddr = this;
  creator.p_shmask = PR_SALL;
}

ShaddrBlock::~ShaddrBlock() {
  // Cut every surviving image region loose from the rm node before the
  // node dies, and destroy any still-retired pregions while their charges
  // can still be returned. Text/SysV regions may outlive the block through
  // other owners (fork children, the IPC registry); after this their pages
  // are simply unaccounted.
  space_.TeardownRelease();
  space_.set_page_charge(nullptr);
  for (const MasterFdSlot& s : ofile_) {
    if (s.e.used()) {
      vfs_.files().Release(s.e.file);
    }
  }
  Iput(scalars_.cdir);
  Iput(scalars_.rdir);
}

void ShaddrBlock::AddMember(Proc& child, u32 shmask) {
  // Identity first, link second: once the child hangs off plink_, chain
  // walkers (ForEachMember, the /proc snapshots) read its mask. The rm node
  // travels with the identity: the member schedules on the group's account
  // from its first instruction. (The caller already charged kMembers.)
  child.rm_node.store(&node_, std::memory_order_release);
  child.shaddr = this;
  child.p_shmask = shmask;
  SG_INJECT_POINT("shaddr.attach.pre_link");
  if ((shmask & PR_SADDR) != 0) {
    UpdateGuard g(space_.lock());
    child.as.set_shared(&space_);
    space_.AddMemberTlb(&child.as.tlb());
  }
  SpinGuard g(listlock_);
  child.s_plink = plink_;
  plink_ = &child;
  ++refcnt_;
}

bool ShaddrBlock::TryAddMember(Proc& child, u32 shmask) {
  SG_CHECK((shmask & PR_SADDR) == 0);  // dynamic joins never share VM
  // Same identity-before-link order as AddMember. The caller (PR_JOINGROUP)
  // holds the kernel's block map lock, so the block cannot be destroyed
  // under us even when we lose the race below; undoing the identity on
  // failure touches only the caller's own fields.
  child.rm_node.store(&node_, std::memory_order_release);
  child.shaddr = this;
  child.p_shmask = shmask;
  child.p_sync = SyncCache{};
  SG_INJECT_POINT("shaddr.tryattach.pre_refcnt");
  {
    SpinGuard g(listlock_);
    if (refcnt_ == 0) {
      // The last member's detach already dropped the count to zero under
      // this same lock: teardown is committed, and reviving the chain here
      // would resurrect a block whose owner is about to destroy it.
      child.shaddr = nullptr;
      child.p_shmask = 0;
      child.rm_node.store(nullptr, std::memory_order_release);
      return false;
    }
    child.s_plink = plink_;
    plink_ = &child;
    ++refcnt_;
  }
  return true;
}

Status ShaddrBlock::UnshareVm(Proc& p) {
  SG_CHECK(p.as.shared() == &space_);
  UpdateGuard g(space_.lock());

  // The caller's private allocator is pristine-by-construction while it
  // shares VM (only the PRDA lives privately, below the arena); rebuild it
  // and claim every range we are about to own.
  p.as.ResetVa();

  // The caller's own stack MOVES out of the shared image: its writes keep
  // working, other members lose access (like a fork child's stack, it is
  // "not visible in the share group virtual address space"). ExtractStackOf
  // bumps the layout seqcount, so a lockless faulter mid-resolution on the
  // stack revalidates and retries.
  if (auto stack = space_.ExtractStackOf(p.pid); stack != nullptr) {
    SG_CHECK(p.as.va().Reserve(stack->base, stack->region->pages()).ok());
    // The stack leaves the group image for good: return its resident
    // pages to the group's account.
    stack->region->SetCharge(nullptr);
    space_.va().Free(p.stack_base);
    p.as.AttachPrivate(std::move(stack));
  }

  // Everything else is copied by the fork rule, ending in the group-wide
  // shootdown that also covers the stack's move out of the image.
  CopySharedImage(space_, p.as);
  space_.RemoveMemberTlb(&p.as.tlb());
  p.as.set_shared(nullptr);
  p.as.tlb().FlushAll();
  p.p_shmask &= ~PR_SADDR;
  return Status::Ok();
}

Status ShaddrBlock::ShadowDataPrivately(Proc& p) {
  SG_CHECK(p.as.shared() == &space_);
  UpdateGuard g(space_.lock());
  Pregion* data = space_.locked_layout().FindByType(RegionType::kData);
  if (data == nullptr) {
    return Errno::kEINVAL;
  }
  // The COW marking write-protects the shared data pages for everyone;
  // bracket it with the shootdown (see CopySharedImage).
  SeqWriter w(space_.layout_seq());
  auto copy = std::make_unique<Pregion>(data->region->DupCow(), data->base, data->prot);
  p.as.AttachPrivate(std::move(copy));
  space_.ShootdownAll();
  return Status::Ok();
}

bool ShaddrBlock::RemoveMember(Proc& p) {
  SG_INJECT_POINT("shaddr.detach.pre_refcnt");
  if ((p.p_shmask & PR_SADDR) != 0 && p.as.shared() == &space_) {
    UpdateGuard g(space_.lock());
    // Drop this member's stack from the shared image. Its frames are freed
    // only at the quiescence point below, so the shootdown still strictly
    // precedes the free; a lockless faulter that raced the extraction
    // fails its seqcount re-check and cannot keep a stale translation.
    if (auto stack = space_.ExtractStackOf(p.pid); stack != nullptr) {
      space_.ShootdownAll();
      space_.va().Free(stack->base);
      space_.RetirePregion(std::move(stack));
    }
    // RemoveMemberTlb republishes the narrower member set and waits out
    // every reader of the old snapshot — which also reclaims the retired
    // stack above before this member's translation context goes away.
    space_.RemoveMemberTlb(&p.as.tlb());
    p.as.set_shared(nullptr);
    p.as.tlb().FlushAll();
  }
  // Clear the membership identity BEFORE the unlink (the inverse of the
  // attach order): from here on chain walkers skip us and a PR_JOINGROUP
  // aimed at us reads null instead of a block whose count may be about to
  // hit zero. The unlink and the drop-to-zero stay atomic under listlock_,
  // which is what TryAddMember's refcnt_ == 0 test relies on. The rm node
  // reference is cleared here too — on the member's own thread, before the
  // refcount can reach zero — so no scheduler call of this process can
  // touch the node once teardown may destroy it.
  p.shaddr = nullptr;
  p.p_shmask = 0;
  p.rm_node.store(nullptr, std::memory_order_release);
  node_.Uncharge(rm::Resource::kMembers, 1);
  SG_INJECT_POINT("shaddr.detach.pre_unlink");
  bool last;
  {
    SpinGuard g(listlock_);
    Proc** link = &plink_;
    while (*link != nullptr && *link != &p) {
      link = &(*link)->s_plink;
    }
    SG_CHECK(*link == &p);
    *link = p.s_plink;
    p.s_plink = nullptr;
    SG_CHECK(refcnt_ > 0);
    last = (--refcnt_ == 0);
  }
  SG_INJECT_POINT("shaddr.detach.post_unlink");
  return last;
}

u32 ShaddrBlock::refcnt() const {
  SpinGuard g(listlock_);
  return refcnt_;
}

// ----- generations (DESIGN.md §4f) -----

const ShaddrBlock::SyncRow ShaddrBlock::kSyncTable[kNumSyncRes] = {
    {kResFds, PR_SFDS, &ShaddrBlock::SyncFds},
    {kResDir, PR_SDIR, &ShaddrBlock::PullScalar,
     [](const Scalars& m, Proc& p) {
       Reseat(p.cwd, m.cdir);
       Reseat(p.rootdir, m.rdir);
     },
     [](const Proc& p, Scalars& m) {
       Reseat(m.cdir, p.cwd);
       Reseat(m.rdir, p.rootdir);
     }},
    {kResIds, PR_SID, &ShaddrBlock::PullScalar,
     [](const Scalars& m, Proc& p) {
       p.uid = m.uid;
       p.gid = m.gid;
     },
     [](const Proc& p, Scalars& m) {
       m.uid = p.uid;
       m.gid = p.gid;
     }},
    {kResUmask, PR_SUMASK, &ShaddrBlock::PullScalar,
     [](const Scalars& m, Proc& p) { p.umask = m.cmask; },
     [](const Proc& p, Scalars& m) { m.cmask = p.umask; }},
    {kResUlimit, PR_SULIMIT, &ShaddrBlock::PullScalar,
     [](const Scalars& m, Proc& p) { p.ulimit = m.limit; },
     [](const Proc& p, Scalars& m) { m.limit = p.ulimit; }},
};

void ShaddrBlock::Bump(Proc& p, SyncRes r) {
  // Only r's lock holder writes gen_[r], so load + store cannot lose a
  // bump. The release store publishes the master copy written before it;
  // the summary RMW is ordered after it, so an entry that sees the new
  // summary (acquire) sees the new gen_[r] too.
  const u64 gen = gen_[r].load(std::memory_order_relaxed) + 1;
  gen_[r].store(gen, std::memory_order_release);
  const u64 before = summary_.fetch_add(1, std::memory_order_acq_rel);
  p.p_sync.gen[r] = gen;
  // Advancing past a peer's bump we never pulled would hide it from our
  // next entry, so the summary follows only when ours was the next bump.
  if (before == p.p_sync.summary) {
    p.p_sync.summary = before + 1;
  }
}

void ShaddrBlock::SyncOnKernelEntry(Proc& p) {
  // The fast path keeps §6.3's property ("the collection of bits in p_flag
  // is checked in a single test ... thus lowering the system call overhead
  // for most system calls"): one acquire load and compare of the summary.
  const u64 summary = summary_.load(std::memory_order_acquire);
  if (summary == p.p_sync.summary) {
    return;
  }
  SG_OBS_INC("core.sync_pulls");
  // Unshared resources are skipped: their master copies are irrelevant to
  // us, so PR_UNSHARE has nothing to clear.
  const u32 mask = p.p_shmask.load(std::memory_order_acquire);
  u32 pulled = 0;
  for (const SyncRow& row : kSyncTable) {
    if ((mask & row.share) != 0 &&
        gen_[row.res].load(std::memory_order_acquire) != p.p_sync.gen[row.res]) {
      (this->*row.pull)(p, row.res);
      pulled |= row.share;
    }
  }
  // Cache the summary loaded above, never a re-read: a bump that landed
  // after that load may not have been pulled.
  p.p_sync.summary = summary;
  obs::Trace(obs::TraceKind::kResourceSync, pulled);
}

// ----- file descriptors (under fupdsema_) -----

void ShaddrBlock::SyncFds(Proc& p, SyncRes) {
  LockFileUpdate();
  PullFds(p);
  UnlockFileUpdate();
}

void ShaddrBlock::UnlockFileUpdate() {
  // Copy the displaced references out while still holding the lock (the
  // next holder refills the list), then drop them unlocked: a last
  // reference closes its pipe end under the pipe's mutex, which may sleep.
  std::array<OpenFile*, kMaxDisplaced> dead{};
  const u32 n = ndisplaced_;
  std::copy_n(displaced_.begin(), n, dead.begin());
  ndisplaced_ = 0;
  fupdsema_.Unlock();
  for (u32 i = 0; i < n; ++i) {
    vfs_.files().Release(dead[i]);
  }
}

void ShaddrBlock::DeferRelease(OpenFile* f) {
  SG_CHECK(ndisplaced_ < kMaxDisplaced);
  displaced_[ndisplaced_++] = f;
}

void ShaddrBlock::PullFds(Proc& p) {
  const u64 gen = gen_[kResFds].load(std::memory_order_relaxed);
  u64& synced = p.p_sync.gen[kResFds];
  if (synced == gen) {
    return;  // current: nothing published since we last synchronized
  }
  SG_INJECT_POINT("shaddr.fds.delta_pull");
  u64 pulled = 0;
  const auto n = std::min(ofile_.size(), p.fds.slots().size());
  for (u32 i = 0; i < n; ++i) {
    const MasterFdSlot& s = ofile_[i];
    if (s.gen <= synced) {
      continue;  // slot untouched since our last sync
    }
    FdEntry& mine = p.fds.slots()[i];
    if (mine.file == s.e.file) {
      // Same open-file instance: adopt the flag byte, no refcount traffic.
      if (mine.close_on_exec != s.e.close_on_exec) {
        mine.close_on_exec = s.e.close_on_exec;
        ++pulled;
      }
      continue;
    }
    if (mine.used()) {
      DeferRelease(mine.file);
    }
    mine = s.e.used() ? FdEntry{vfs_.files().Hold(s.e.file), s.e.close_on_exec} : FdEntry{};
    ++pulled;
  }
  synced = gen;
  if (pulled > 0) {
    SG_OBS_ADD("core.fds.delta_pulled_slots", pulled);
  }
}

void ShaddrBlock::PublishFds(Proc& p) {
  SG_INJECT_POINT("shaddr.fds.delta_publish");
  // Diff the member's table against the master and retarget only changed
  // slots. fupdsema_ single-threads every reader and writer of ofile_; the
  // /proc snapshot reads node_'s kFiles count instead of walking us.
  const u64 stamp = gen_[kResFds].load(std::memory_order_relaxed) + 1;
  u64 changed = 0;
  int used_delta = 0;
  const auto n = std::min(ofile_.size(), p.fds.slots().size());
  for (u32 i = 0; i < n; ++i) {
    MasterFdSlot& s = ofile_[i];
    const FdEntry& mine = p.fds.slots()[i];
    if (s.e.file == mine.file && s.e.close_on_exec == mine.close_on_exec) {
      continue;
    }
    if (s.e.file != mine.file) {
      OpenFile* displaced = s.e.file;  // may be null
      s.e.file = mine.used() ? vfs_.files().Hold(mine.file) : nullptr;
      used_delta += (s.e.file != nullptr ? 1 : 0) - (displaced != nullptr ? 1 : 0);
      if (displaced != nullptr) {
        DeferRelease(displaced);
      }
    }
    s.e.close_on_exec = mine.close_on_exec;
    s.gen = stamp;
    ++changed;
  }
  if (changed == 0) {
    return;
  }
  // kFiles tracks the master table exactly, and only from inside this
  // single-threaded bracket. Forced: the cap was already enforced as a
  // headroom check at the syscall seam (kernel_fs.cc), so the publish
  // itself must never bounce.
  if (used_delta > 0) {
    node_.ChargeForced(rm::Resource::kFiles, static_cast<u64>(used_delta));
  } else if (used_delta < 0) {
    node_.Uncharge(rm::Resource::kFiles, static_cast<u64>(-used_delta));
  }
  Bump(p, kResFds);  // stores `stamp`
  SG_OBS_ADD("core.fds.delta_published_slots", changed);
}

// ----- scalar resources (under rupdlock_) -----

void ShaddrBlock::PullScalar(Proc& p, SyncRes r) {
  SpinGuard g(rupdlock_);
  kSyncTable[r].to_member(scalars_, p);
  p.p_sync.gen[r] = gen_[r].load(std::memory_order_relaxed);
  SG_OBS_INC("core.scalar_gen_pulls");
}

// ----- diagnostics -----

ShaddrBlock::Scalars ShaddrBlock::scalars() const {
  SpinGuard g(rupdlock_);
  return scalars_;
}

}  // namespace sg
