// Kernel counting semaphore (the paper's `sema_t`: s_updwait).
//
// P() sleeps when the count is zero, releasing the simulated CPU through the
// current ExecutionContext; V() wakes sleepers. An interruptible P returns
// EINTR when a signal is posted to the sleeping process, matching classic
// interruptible kernel sleeps (pipes, wait, pause).
#ifndef SRC_SYNC_SEMAPHORE_H_
#define SRC_SYNC_SEMAPHORE_H_

#include <condition_variable>
#include <mutex>

#include "base/result.h"
#include "base/thread_annotations.h"
#include "base/types.h"

namespace sg {

enum class SleepMode {
  kUninterruptible,  // sleep until the resource is available
  kInterruptible,    // additionally wake with EINTR on a pending signal
};

// Capability annotations model the binary (mutex-style) use: initial count
// 1, P/V strictly bracketed. The kernel's instances are the groups' update
// locks (sync/update_lock.h); the paper's s_fupdsema is a spinlock here
// (core/shaddr.h).
// The annotations describe the uninterruptible path; an EINTR return from
// an interruptible P does NOT hold the capability, so such call sites must
// hand the result to clang explicitly (none exist in the kernel today).
class SG_CAPABILITY("semaphore") Semaphore {
 public:
  explicit Semaphore(i64 initial = 0) : count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  // Decrements the count, sleeping while it is zero.
  // Returns kOk, or EINTR for an interrupted interruptible sleep (the count
  // is not consumed in that case).
  Status P(SleepMode mode = SleepMode::kUninterruptible) SG_ACQUIRE();

  // Non-blocking P; returns true if the count was consumed.
  bool TryP() SG_TRY_ACQUIRE(true);

  // Increments the count and wakes sleepers.
  void V() SG_RELEASE();

  i64 count() const;

  // Number of P() calls that had to sleep (contention metric).
  u64 sleeps() const;

 private:
  mutable std::mutex m_;
  std::condition_variable cv_;
  i64 count_;
  u64 sleeps_ = 0;
};

}  // namespace sg

#endif  // SRC_SYNC_SEMAPHORE_H_
