// UpdateLock — the one sleeping lock around a share group's pregion list:
// the paper's §6.2 shared read lock, without a read side.
//
// The paper's argument is asymmetric: "Since operations that require the
// update lock are relatively rare (fork, exec, mmap, sbrk, etc.) compared
// to the operations that scan (page fault, pager) the shared lock is
// almost always available and multiple processes do not collide." Since
// the fault path went lockless (DESIGN.md §4h), faults scan through the
// layout seqcount and an epoch pin instead, so they still never collide.
// The scans left on the list (the fault fallback, the pager's shared
// sweep, msync's lookup) are rare and need no parallelism among
// themselves, so they take this lock exactly as the updaters do. The
// paper's behaviour stays: updates exclude, and a member that trapped
// during an update waits here until the update completes.
//
// The lock is the V.3 Semaphore at count 1: the count is the paper's
// s_acccnt (1 free, 0 held), and its sleepers and condition variable are
// s_waitcnt and s_updwait. A waiter sleeps and gives its simulated CPU
// back, and every release wakes every sleeper.
#ifndef SRC_SYNC_UPDATE_LOCK_H_
#define SRC_SYNC_UPDATE_LOCK_H_

#include <atomic>
#include <string>
#include <string_view>

#include "base/thread_annotations.h"
#include "base/types.h"
#include "obs/stats.h"
#include "sync/semaphore.h"

namespace sg {

class SG_CAPABILITY("update_lock") UpdateLock {
 public:
  UpdateLock() = default;
  UpdateLock(const UpdateLock&) = delete;
  UpdateLock& operator=(const UpdateLock&) = delete;

  // Exclusive and uninterruptible (a faulting process must complete its
  // scan once the current holder finishes).
  void AcquireUpdate() SG_ACQUIRE();
  void ReleaseUpdate() SG_RELEASE();

  // Names the lock so its counters additionally surface as
  // `sharedlock.<name>.*` in the global registry (and through that in
  // /proc/stat), giving per-group numbers instead of only the process-wide
  // sharedlock.* aggregate. Call before the lock is shared; not
  // thread-safe against concurrent acquisition.
  void SetName(std::string_view name);
  const std::string& name() const { return name_; }

  // Stats for the E8 benchmark and /proc/share/<gid>: acquisitions, and
  // those that found the lock held.
  u64 updates() const { return updates_.load(std::memory_order_relaxed); }
  u64 update_waits() const { return update_waits_.load(std::memory_order_relaxed); }
  // Per-lock entry-to-grant latency (the §7 shrink/detach cost).
  const obs::LatencyHisto& update_wait_histo() const { return wait_histo_; }

 private:
  Semaphore sema_{1};

  std::atomic<u64> updates_{0};
  std::atomic<u64> update_waits_{0};

  obs::LatencyHisto wait_histo_;  // per-lock entry-to-grant

  // sgcheck:allow(guarded-fields): written by SetName before the lock is
  // shared (documented contract), read-only afterwards
  std::string name_;
  obs::Counter* named_updates_ = nullptr;
  obs::Counter* named_update_waits_ = nullptr;
  obs::LatencyHisto* named_wait_histo_ = nullptr;
};

// RAII guard. A scoped capability with an early-release escape: clang
// models Release() (annotated SG_RELEASE) on a scoped object, so the
// destructor's implicit release does not double-count.
class SG_SCOPED_CAPABILITY UpdateGuard {
 public:
  explicit UpdateGuard(UpdateLock& l) SG_ACQUIRE(l) : l_(&l) { l_->AcquireUpdate(); }
  ~UpdateGuard() SG_RELEASE() { Unwind(); }
  void Release() SG_RELEASE() { Unwind(); }
  UpdateGuard(const UpdateGuard&) = delete;
  UpdateGuard& operator=(const UpdateGuard&) = delete;

 private:
  // Unannotated so both the destructor and Release() may call it.
  void Unwind() SG_NO_THREAD_SAFETY_ANALYSIS {
    if (l_ != nullptr) {
      l_->ReleaseUpdate();
      l_ = nullptr;
    }
  }

  UpdateLock* l_;
};

}  // namespace sg

#endif  // SRC_SYNC_UPDATE_LOCK_H_
