// BlockOn — the one sleep of every kernel object that waits on a condition
// variable (pipes, SysV semaphores and message queues, wait(2), pause(2),
// PR_BLOCKGROUP, and the share group's update lock): releases the
// simulated CPU, and for an interruptible sleep registers the wakeup
// channel so signal posters can kick the sleeper, avoiding the lost-wakeup
// race by registering before the final pending-signal check.
//
// Usage:
//   bool slept = false;
//   Status st;
//   {
//     std::unique_lock<std::mutex> l(m_);
//     st = BlockOn(cv_, l, mode, &slept, [&] { return ready_; });
//     ... consume under l ...
//   }
//   FinishSleep(slept);   // AFTER the mutex is released (may block for a CPU)
#ifndef SRC_SYNC_WAIT_H_
#define SRC_SYNC_WAIT_H_

#include <condition_variable>
#include <mutex>

#include "base/result.h"
#include "sync/execution_context.h"
#include "sync/lockdep.h"

namespace sg {

enum class SleepMode {
  kUninterruptible,  // sleep until the condition holds
  kInterruptible,    // additionally wake with EINTR on a pending signal
};

template <typename Pred>
Status BlockOn(std::condition_variable& cv, std::unique_lock<std::mutex>& l, SleepMode mode,
               bool* slept, Pred&& pred) {
  // Checked even when pred() is already true: whether a BlockOn call
  // actually sleeps is schedule-dependent, the no-spinlock rule is not.
  lockdep::MaySleep("wait.BlockOn");
  ExecutionContext* ctx = CurrentExecutionContext();
  // Only an interruptible sleep registers its wakeup. An uninterruptible
  // sleeper ignores signals anyway, and registering nothing means no signal
  // poster can reach a wait channel freed with its owner (a share group's
  // update lock) after this sleeper left.
  const bool interruptible = mode == SleepMode::kInterruptible && ctx != nullptr;
  for (;;) {
    if (pred()) {
      return Status::Ok();
    }
    if (ctx != nullptr) {
      ctx->WillBlock();
    }
    // Before the signal check: an EINTR return has given the CPU back too.
    *slept = true;
    if (interruptible) {
      ctx->SetWakeup(&cv, l.mutex());
      if (ctx->InterruptPending()) {
        ctx->ClearWakeup();
        return Errno::kEINTR;
      }
    }
    cv.wait(l);
    if (interruptible) {
      ctx->ClearWakeup();
    }
  }
}

// Completes a BlockOn sleep: reacquires the simulated CPU. Call with no
// primitive-internal mutex held.
inline void FinishSleep(bool slept) {
  ExecutionContext* ctx = CurrentExecutionContext();
  if (slept && ctx != nullptr) {
    ctx->DidWake();
  }
}

}  // namespace sg

#endif  // SRC_SYNC_WAIT_H_
