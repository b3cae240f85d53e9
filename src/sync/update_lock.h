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
// held_ is the paper's s_acccnt (held or free), the BlockOn sleepers are
// s_waitcnt, and cv_ is s_updwait. A waiter sleeps uninterruptibly through
// BlockOn and gives its simulated CPU back, and every release wakes every
// sleeper.
#ifndef SRC_SYNC_UPDATE_LOCK_H_
#define SRC_SYNC_UPDATE_LOCK_H_

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "base/thread_annotations.h"
#include "base/types.h"
#include "obs/stats.h"

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

  // Stats for the E8 benchmark and /proc/share/<gid>: acquisitions, and
  // those that found the lock held.
  u64 updates() const { return updates_.load(std::memory_order_relaxed); }
  u64 update_waits() const { return update_waits_.load(std::memory_order_relaxed); }
  // Per-lock entry-to-grant latency (the §7 shrink/detach cost).
  const obs::LatencyHisto& update_wait_histo() const { return wait_histo_; }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool held_ = false;  // guarded by m_ (a std::mutex, for cv_)

  std::atomic<u64> updates_{0};
  std::atomic<u64> update_waits_{0};

  obs::LatencyHisto wait_histo_;  // per-lock entry-to-grant
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
