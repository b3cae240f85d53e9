// SharedReadLock — the multi-reader/single-updater lock the paper places
// around every scan of a share group's pregion list (§6.2).
//
// The paper's argument is asymmetric: "Since operations that require the
// update lock are relatively rare (fork, exec, mmap, sbrk, etc.) compared
// to the operations that scan (page fault, pager) the shared lock is
// almost always available and multiple processes do not collide." This is
// the paper's construction: one spinlock (s_acclck) guarding the access
// count (s_acccnt: readers inside, or -1 while an updater holds the lock)
// and the sleeper count (s_waitcnt), with sleepers parked on one wake
// channel (s_updwait). Since the fault path went lockless (DESIGN.md §4h)
// only the fault fallback and the pager's shared scan take the read side,
// so the lock needs no read-side scaling of its own.
//
// Two additions to the paper's lock. A waiting updater holds new readers
// back (writer preference), so a continuous reader stream cannot starve
// sbrk/mmap. And every release wakes EVERY sleeper (a broadcast, not one
// wakeup per counted sleeper): a reader woken ahead of a still-waiting
// updater goes back to sleep, and with counted wakeups it would consume
// the updater's only wakeup while the lock sat free.
#ifndef SRC_SYNC_SHARED_READ_LOCK_H_
#define SRC_SYNC_SHARED_READ_LOCK_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <string_view>

#include "base/thread_annotations.h"
#include "base/types.h"
#include "obs/stats.h"
#include "sync/spinlock.h"

namespace sg {

class SG_CAPABILITY("shared_read_lock") SharedReadLock {
 public:
  SharedReadLock() = default;
  SharedReadLock(const SharedReadLock&) = delete;
  SharedReadLock& operator=(const SharedReadLock&) = delete;

  // Reader side: any number of concurrent holders. Uninterruptible (a
  // faulting process must complete its scan once the updater finishes).
  void AcquireRead() SG_ACQUIRE_SHARED();
  void ReleaseRead() SG_RELEASE_SHARED();

  // Updater side: exclusive. Waits for all readers to drain.
  void AcquireUpdate() SG_ACQUIRE();
  void ReleaseUpdate() SG_RELEASE();

  // Names the lock so its update-side counters additionally surface as
  // `sharedlock.<name>.*` in the global registry (and through that in
  // /proc/stat), giving per-group numbers instead of only the process-wide
  // sharedlock.* aggregate. Call before the lock is shared; not
  // thread-safe against concurrent acquisition.
  void SetName(std::string_view name);
  const std::string& name() const { return name_; }

  // Stats for the E8 benchmark and /proc/share/<gid>.
  u64 reads() const { return reads_.load(std::memory_order_relaxed); }
  u64 updates() const { return updates_.load(std::memory_order_relaxed); }
  u64 read_waits() const { return read_waits_.load(std::memory_order_relaxed); }
  u64 update_waits() const { return update_waits_.load(std::memory_order_relaxed); }
  // Per-lock writer entry-to-grant latency (the §7 shrink/detach cost).
  const obs::LatencyHisto& update_wait_histo() const { return wait_histo_; }

 private:
  // Sleeps until the next release, dropping both the spinlock (already
  // held by the caller, who has counted itself in waitcnt_) and the
  // simulated CPU. On return the spinlock is re-held.
  void SleepUntilReleased() SG_REQUIRES(acclck_);
  // Wakes every sleeper. Any thread, acclck_ not held.
  void WakeReleased();

  Spinlock acclck_{"sharedlock.acclck"};
  // Readers inside, or -1 while an updater holds the lock.
  int acccnt_ SG_GUARDED_BY(acclck_) = 0;
  // Sleepers (readers and updaters) on the wake channel.
  unsigned waitcnt_ SG_GUARDED_BY(acclck_) = 0;
  // Updaters waiting for the lock; while nonzero, new readers sleep.
  unsigned updwant_ SG_GUARDED_BY(acclck_) = 0;

  // The wake channel: a generation bumped under chan_m_ by every waking
  // release, so a sleeper that read the generation before dropping
  // acclck_ cannot miss the bump.
  std::mutex chan_m_;
  std::condition_variable chan_cv_;
  // sgcheck:allow(guarded-fields): guarded by chan_m_ (std::mutex is not an
  // SG capability type, so SG_GUARDED_BY cannot name it)
  u64 chan_gen_ = 0;

  std::atomic<u64> reads_{0};
  std::atomic<u64> updates_{0};
  std::atomic<u64> read_waits_{0};
  std::atomic<u64> update_waits_{0};

  obs::LatencyHisto wait_histo_;  // per-lock update entry-to-grant

  // sgcheck:allow(guarded-fields): written by SetName before the lock is
  // shared (documented contract), read-only afterwards
  std::string name_;
  obs::Counter* named_updates_ = nullptr;
  obs::Counter* named_update_waits_ = nullptr;
  obs::LatencyHisto* named_wait_histo_ = nullptr;
};

// RAII guards. Scoped capabilities with an early-release escape: clang
// models Release() (annotated SG_RELEASE) on a scoped object, so the
// destructor's implicit release does not double-count.
class SG_SCOPED_CAPABILITY ReadGuard {
 public:
  explicit ReadGuard(SharedReadLock& l) SG_ACQUIRE_SHARED(l) : l_(&l) { l_->AcquireRead(); }
  ~ReadGuard() SG_RELEASE() { Unwind(); }
  void Release() SG_RELEASE() { Unwind(); }
  ReadGuard(const ReadGuard&) = delete;
  ReadGuard& operator=(const ReadGuard&) = delete;

 private:
  // Unannotated so both the destructor and Release() may call it.
  void Unwind() SG_NO_THREAD_SAFETY_ANALYSIS {
    if (l_ != nullptr) {
      l_->ReleaseRead();
      l_ = nullptr;
    }
  }

  SharedReadLock* l_;
};

class SG_SCOPED_CAPABILITY UpdateGuard {
 public:
  explicit UpdateGuard(SharedReadLock& l) SG_ACQUIRE(l) : l_(&l) { l_->AcquireUpdate(); }
  ~UpdateGuard() SG_RELEASE() { Unwind(); }
  void Release() SG_RELEASE() { Unwind(); }
  UpdateGuard(const UpdateGuard&) = delete;
  UpdateGuard& operator=(const UpdateGuard&) = delete;

 private:
  void Unwind() SG_NO_THREAD_SAFETY_ANALYSIS {
    if (l_ != nullptr) {
      l_->ReleaseUpdate();
      l_ = nullptr;
    }
  }

  SharedReadLock* l_;
};

}  // namespace sg

#endif  // SRC_SYNC_SHARED_READ_LOCK_H_
