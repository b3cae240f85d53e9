#include "sync/semaphore.h"

#include "inject/inject.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "sync/execution_context.h"
#include "sync/lockdep.h"

namespace sg {

Status Semaphore::P(SleepMode mode) {
  lockdep::MaySleep("semaphore.P");
  SG_INJECT_POINT("sema.p");
  ExecutionContext* ctx = CurrentExecutionContext();
  bool slept = false;
  Status st = Status::Ok();
  {
    std::unique_lock<std::mutex> l(m_);
    for (;;) {
      if (count_ > 0) {
        --count_;
        break;
      }
      // Going to sleep. An interruptible sleep registers the wakeup channel
      // *before* the final pending-signal check, so a racing signal poster
      // either sees the registration (and notifies cv_) or posted before
      // the check below. An uninterruptible sleep registers nothing, so no
      // poster can reach a semaphore freed with its owner (a share group's
      // update lock) after this sleeper left.
      const bool interruptible = mode == SleepMode::kInterruptible && ctx != nullptr;
      if (ctx != nullptr) {
        ctx->WillBlock();
      }
      if (interruptible) {
        ctx->SetWakeup(&cv_, &m_);
        if (ctx->InterruptPending()) {
          ctx->ClearWakeup();
          st = Errno::kEINTR;
          break;
        }
      }
      slept = true;
      ++sleeps_;
      SG_OBS_INC("sync.sema_sleeps");
      obs::Trace(obs::TraceKind::kSemSleep);
      cv_.wait(l);
      if (interruptible) {
        ctx->ClearWakeup();
      }
    }
  }
  if (slept && ctx != nullptr) {
    ctx->DidWake();  // may block; no internal mutex held here
  }
  return st;
}

bool Semaphore::TryP() {
  SG_INJECT_POINT("sema.tryp");
  std::lock_guard<std::mutex> l(m_);
  if (count_ > 0) {
    --count_;
    return true;
  }
  return false;
}

void Semaphore::V() {
  {
    std::lock_guard<std::mutex> l(m_);
    ++count_;
  }
  // notify_all: sleepers re-check the count; interrupted sleepers must also
  // get a chance to observe their pending signal.
  cv_.notify_all();
}

i64 Semaphore::count() const {
  std::lock_guard<std::mutex> l(m_);
  return count_;
}

u64 Semaphore::sleeps() const {
  std::lock_guard<std::mutex> l(m_);
  return sleeps_;
}

}  // namespace sg
