// ShaddrBlock — the paper's shaddr_t (§6.1): "For each share group, there
// is a single data structure (the shared address block) that is referenced
// by all members of the group."
//
// Field correspondence with the paper's structure:
//   s_region -> space_ (vm::SharedSpace: the shared pregion list)
//   s_acccnt / s_waitcnt / s_updwait -> space_.lock(), an UpdateLock: its
//       held_ flag, its BlockOn sleepers and its cv_ (no s_acclck: there
//       is no reader count to guard, DESIGN.md §4c)
//   s_plink / s_refcnt / s_listlock
//       -> the member chain (through Proc::s_plink), refcnt_, listlock_
//   s_fupdsema -> fupdsema_ (single-threads open-file-table updates; a
//       spinlock here, see LockFileUpdate)
//   s_ofile / s_pofile -> ofile_ (master copy of the descriptor table,
//       FdEntry carries the per-descriptor flag byte), generation-stamped
//       per slot for delta synchronization
//   s_rupdlock -> rupdlock_ (spinlock for the small shared values)
//   s_cdir / s_rdir / s_cmask / s_limit / s_uid / s_gid -> scalars_ (one
//       Scalars struct; cdir and rdir are counted inode refs)
//
// "Those resources which have reference counts (file descriptors and
// inodes) have the count bumped one for the shared address block. This
// avoids any races whereby the process that changed the resource exits
// before all other group members have had a chance to synchronize." The
// block therefore owns one reference to every file in ofile_ and to the
// two directories in scalars_, released only at group teardown or
// replacement.
//
// ---- Generation-based resource synchronization (DESIGN.md §4f) ----
//
// §6.3 marks a change by updating "each sharing group member's p_flag
// word", O(members) per update. This block keeps the "checked in a single
// test" property with generations instead:
//
//   * gen_[r] — one full-width generation per shared resource (SyncRes:
//     fds/dir/ids/umask/ulimit), bumped by every update of r, and
//     summary_, bumped after every per-resource bump. A member caches the
//     values it last synced against (Proc::p_sync), so kernel entry is one
//     summary compare and an update never walks the member chain.
//   * MasterFdSlot::gen — each master descriptor slot is stamped with the
//     fds generation of its last change. PublishFds diffs the member table
//     against the master and touches only changed slots; PullFds copies
//     only slots stamped newer than the member's cached fds generation.
//
// Every generation and slot stamp starts at 1, so a zeroed SyncCache is
// stale on every resource and every slot: that is how PR_JOINGROUP forces
// a joiner's full resync.
#ifndef SRC_CORE_SHADDR_H_
#define SRC_CORE_SHADDR_H_

#include <array>
#include <atomic>
#include <vector>

#include "base/thread_annotations.h"
#include "base/types.h"
#include "fs/file.h"
#include "fs/vfs.h"
#include "hw/cpu_set.h"
#include "inject/inject.h"
#include "obs/stats.h"
#include "proc/proc.h"
#include "rm/rm.h"
#include "sync/spinlock.h"
#include "vm/shared_space.h"

namespace sg {

// First value of every generation and slot stamp; a zeroed cache is older.
inline constexpr u64 kFirstGen = 1;

// One master descriptor-table slot: the entry plus the fds generation of
// its last change.
struct MasterFdSlot {
  FdEntry e;
  u64 gen = kFirstGen;
};

class ShaddrBlock {
 public:
  // Creates the block for `creator`'s new share group: moves the creator's
  // sharable pregions onto the shared list, registers its TLB, seeds the
  // master resource copies from the creator's u-area (bumping the block's
  // own references), links the creator as the first member, and gives it a
  // mask "indicating that all resources are shared".
  // Analysis suppressed on both: the constructor runs before the block is
  // published (nobody else can hold its locks) and the destructor after
  // the last member detached (sole owner), so neither takes the locks the
  // touched fields are guarded by.
  ShaddrBlock(Proc& creator, CpuSet& cpus, Vfs& vfs, rm::ResourceManager& rm)
      SG_NO_THREAD_SAFETY_ANALYSIS;
  ~ShaddrBlock() SG_NO_THREAD_SAFETY_ANALYSIS;
  ShaddrBlock(const ShaddrBlock&) = delete;
  ShaddrBlock& operator=(const ShaddrBlock&) = delete;

  // ----- the pregion half (s_region & friends) -----
  SharedSpace& space() { return space_; }

  // System-wide unique group id (the /proc/share/<id> name).
  u64 id() const { return id_; }

  // ----- fair-share resource manager (src/rm/) -----
  // The group's rm node: CPU shares + decayed usage + capacity caps. A
  // member of the block, declared before space_ so it outlives the image
  // regions it charges, and every reference a member can publish (members
  // clear their Proc::rm_node in RemoveMember, strictly before teardown).
  //
  // Accounting contract: the ADMISSION seams charge kMembers (sproc /
  // PR_JOINGROUP, before the member attaches) and RemoveMember uncharges;
  // kFiles moves only with the master fd table (constructor seed,
  // PublishFds deltas); kPages moves with page-table validity transitions
  // via the regions' PageCharge hookup.
  rm::GroupNode* rm_node() { return &node_; }

  // ----- member chain (s_plink/s_refcnt/s_listlock) -----
  // Links `child` with its (already strict-inheritance-masked) share mask.
  // If PR_SADDR is set the child's address space joins the shared image.
  // The caller seeds the child's p_sync from its own (the child's u-area
  // is a copy of the caller's, so it is exactly as stale as the caller).
  void AddMember(Proc& child, u32 shmask);

  // Like AddMember, but fails (returns false) if the group is already
  // draining (refcnt 0, block about to be destroyed). Used by the dynamic
  // PR_JOINGROUP extension, where the joiner races the last member's exit.
  // The joiner's private copies are unrelated to the group's, so its
  // p_sync is zeroed before the link: its next entry pulls everything.
  bool TryAddMember(Proc& child, u32 shmask);

  // Unlinks `p` (exit(2) or exec(2)). Removes the member's stack from the
  // shared image (with the §6.2 shootdown: its frames are freed) and drops
  // its TLB registration. Returns true when `p` was the last member — the
  // caller then destroys the block ("the structure is thrown away once the
  // last member exits").
  bool RemoveMember(Proc& p);

  // §8 PR_UNSHARE(PR_SADDR): copies the shared image into `p`'s private
  // space by fork's rule (CopySharedImage: copy-on-write, except regions
  // fork keeps shared), moves `p`'s own stack out of the shared image and
  // detaches `p` from shared VM. `p` stays a group member for whatever
  // else it shares.
  Status UnshareVm(Proc& p);

  // §8 PR_PRIVDATA: shadows the shared DATA region with a private
  // copy-on-write duplicate in `p`'s address space — the private-first scan
  // order (§6.2) makes `p` use the copy while everyone else keeps sharing.
  Status ShadowDataPrivately(Proc& p);

  // Calls fn(member) for each member under the list lock.
  template <typename Fn>
  void ForEachMember(Fn&& fn) {
    SpinGuard g(listlock_);
    for (Proc* m = plink_; m != nullptr; m = m->s_plink) {
      fn(*m);
    }
  }

  u32 refcnt() const;

  // ----- §6.3 resource synchronization -----
  // Update protocol ("the share block is locked for update, the resource is
  // modified, a copy is made in the shared address block, each sharing
  // group member's p_flag word is updated, and the lock is released" —
  // except that "each member's p_flag is updated" is now "the resource's
  // generation and the summary are bumped": O(1) in group size. The
  // double-update check survives unchanged: after acquiring the lock the
  // updater first synchronizes its own stale copy, then applies its change):
  //
  //   lock -> pull-if-stale -> apply caller's change -> copy to master ->
  //   store gen_[r] (release) -> bump summary_ -> unlock.
  //
  // File-descriptor updates are single-threaded by fupdsema_ (s_fupdsema)
  // around the descriptor-table edit of an open/close/dup in the syscall
  // layer; the scalar resources complete inside rupdlock_ (s_rupdlock).
  // The scalar rows (dir, ids, umask, ulimit) share one update and one
  // pull, driven by their kSyncTable copy functions; the dir row's copies
  // move counted inode references, which never sleep. The fds row keeps
  // its own, because a last open-file release may sleep on a pipe's mutex,
  // so the references it displaces are dropped after fupdsema_.

  // Descriptor-table update bracket. Sequence in the syscall layer:
  //   LockFileUpdate(); PullFds(p); <modify p.fds>; PublishFds(p);
  //   UnlockFileUpdate();
  // V.3 needed a sleeping semaphore because its open could sleep inside
  // the update. Here the syscall layer walks paths, creates files and drops
  // its own references outside the bracket, and the references the pull
  // and the publish displace are dropped by UnlockFileUpdate after the
  // unlock, so nothing inside can sleep and fupdsema_ is a spinlock.
  void LockFileUpdate() SG_ACQUIRE(fupdsema_) {
    SG_INJECT_POINT("shaddr.fds.lock");
    if (!fupdsema_.TryLock()) {
      SG_OBS_INC("core.fupdsema_waits");  // another member is mid-update
      fupdsema_.Lock();
    }
  }
  void UnlockFileUpdate() SG_RELEASE(fupdsema_);
  // Delta pull: copies only master slots stamped newer than the member's
  // cached fds generation (every slot, for a zeroed cache).
  void PullFds(Proc& p) SG_REQUIRES(fupdsema_);
  // Delta publish: diffs `p`'s table against the master and touches only
  // changed slots (refcount traffic proportional to the change, not the
  // table), stamping them with a fresh fds generation. Publishing an
  // unchanged table stamps nothing.
  void PublishFds(Proc& p) SG_REQUIRES(fupdsema_);

  // The master copies of the scalar resources, guarded by rupdlock_.
  struct Scalars {
    mode_t cmask = 022;     // s_cmask
    u64 limit = 0;          // s_limit
    uid_t uid = 0;          // s_uid
    gid_t gid = 0;          // s_gid
    Inode* cdir = nullptr;  // s_cdir
    Inode* rdir = nullptr;  // s_rdir
  };

  // Update of the scalar resource `r` (kResDir, kResIds, kResUmask or
  // kResUlimit):
  // under rupdlock_, refresh p's copy from the master if gen_[r] moved since
  // p last synced (the double-update check: a peer's setgid survives our
  // setuid), apply change(p), copy p's values to the master and Bump.
  template <typename Fn>
  void UpdateScalar(Proc& p, SyncRes r, Fn&& change) {
    const SyncRow& row = kSyncTable[r];
    SpinGuard g(rupdlock_);
    if (gen_[r].load(std::memory_order_relaxed) != p.p_sync.gen[r]) {
      row.to_member(scalars_, p);
    }
    change(p);
    row.to_master(p, scalars_);
    Bump(p, r);
  }

  // Kernel-entry hook. "When a shared process enters the system via a
  // system call, the collection of bits in p_flag is checked in a single
  // test" — the single test is now the summary compare; on a mismatch one
  // loop over kSyncTable pulls each shared resource whose generation moved.
  void SyncOnKernelEntry(Proc& p);

  // One row of the resource table: which share-mask bit covers the
  // resource and how a member pulls it from the master copy. A scalar row
  // pulls through PullScalar and carries its two copy functions, which
  // also seed the master copy and serve UpdateScalar.
  struct SyncRow {
    SyncRes res;
    u32 share;  // PR_S* bit
    void (ShaddrBlock::*pull)(Proc&, SyncRes);
    void (*to_member)(const Scalars&, Proc&) = nullptr;  // scalar rows only
    void (*to_master)(const Proc&, Scalars&) = nullptr;  // scalar rows only
  };
  static const SyncRow kSyncTable[kNumSyncRes];

  // Current generations (tests, /proc).
  u64 summary() const { return summary_.load(std::memory_order_acquire); }
  u64 generation(SyncRes r) const { return gen_[r].load(std::memory_order_acquire); }

  // Test/diagnostic accessors for the master copies.
  Scalars scalars() const;
  // Used descriptors in the master table: the rm node's kFiles count, which
  // moves with every publish, so the /proc/share snapshot is one atomic
  // load, not a kMaxFds walk under a lock.
  int OfileCount() const { return static_cast<int>(node_.used(rm::Resource::kFiles)); }

 private:
  // Publishes an update of `r` whose master copy the caller just wrote
  // under r's lock: stores the next gen_[r] (release), then bumps summary_.
  // The updater's own copy is current, so its cached gen[r] follows; its
  // cached summary follows only if no peer's bump came in between.
  void Bump(Proc& p, SyncRes r);

  // Kernel-entry pulls: refresh the member's private copy from the master
  // and cache the resource's generation read under the same lock.
  void SyncFds(Proc& p, SyncRes);  // PullFds inside the fupdsema_ bracket
  void PullScalar(Proc& p, SyncRes r);

  // Queues a reference the bracket displaced for UnlockFileUpdate.
  void DeferRelease(OpenFile* f) SG_REQUIRES(fupdsema_);

  Vfs& vfs_;
  rm::GroupNode node_;  // this group's fair-share account
  SharedSpace space_;
  const u64 id_;  // assigned at creation, never reused

  mutable Spinlock listlock_{"shaddr.listlock"};    // s_listlock
  Proc* plink_ SG_GUARDED_BY(listlock_) = nullptr;  // s_plink
  u32 refcnt_ SG_GUARDED_BY(listlock_) = 0;         // s_refcnt

  Spinlock fupdsema_{"shaddr.fupdsema"};  // s_fupdsema
  // s_ofile + s_pofile: the master descriptor table, generation-stamped
  // per slot. Touched only inside the fupdsema_ bracket; the /proc
  // snapshot reads node_'s kFiles count instead of walking it.
  std::vector<MasterFdSlot> ofile_ SG_GUARDED_BY(fupdsema_);
  // References displaced inside the bracket, awaiting UnlockFileUpdate. A
  // bracket holds one pull and one publish, each displacing at most one
  // reference per slot, so the list never allocates.
  static constexpr u32 kMaxDisplaced = 2 * FdTable::kMaxFds;
  std::array<OpenFile*, kMaxDisplaced> displaced_ SG_GUARDED_BY(fupdsema_){};
  u32 ndisplaced_ SG_GUARDED_BY(fupdsema_) = 0;

  // Per-resource generations, indexed by SyncRes: each is written only
  // under its resource's lock (fupdsema_ for fds, rupdlock_ for the rest)
  // and read lock-free at kernel entry. summary_ is bumped after every
  // per-resource store; it is the single test's only load.
  std::atomic<u64> gen_[kNumSyncRes] = {kFirstGen, kFirstGen, kFirstGen, kFirstGen, kFirstGen};
  std::atomic<u64> summary_{kFirstGen};

  mutable Spinlock rupdlock_{"shaddr.rupdlock"};  // s_rupdlock
  Scalars scalars_ SG_GUARDED_BY(rupdlock_);
};

}  // namespace sg

#endif  // SRC_CORE_SHADDR_H_
