// ExecutionContext: the bridge between blocking kernel primitives and the
// simulated-processor scheduler.
//
// Every simulated process runs its user code (and the kernel code of its own
// syscalls) on a host thread that holds a simulated-CPU slot while RUNNING.
// When a kernel primitive must sleep (the update lock, pipe full/empty,
// wait(2)... — all through BlockOn, sync/wait.h), it releases the slot via
// WillBlock() so another runnable process can execute, and reacquires it
// via DidWake() after the host-level wait completes.
//
// The context also carries the signal plumbing: interruptible sleeps poll
// InterruptPending(), and posters of signals use the registered wakeup
// channel to kick a sleeping process out of its wait.
//
// Locking contract (important — violating it can deadlock a 1-CPU config):
//   * WillBlock() may be called while holding primitive-internal mutexes;
//     it only releases resources and never blocks.
//   * DidWake() may block (it reacquires a CPU slot) and therefore MUST be
//     called with no primitive-internal mutexes held.
//   * SetWakeup()/ClearWakeup() may be called with the wait mutex held; a
//     poster must copy the registration under the registration lock, drop
//     it, and only then lock the wait mutex to publish its notification.
#ifndef SRC_SYNC_EXECUTION_CONTEXT_H_
#define SRC_SYNC_EXECUTION_CONTEXT_H_

#include <condition_variable>
#include <mutex>

namespace sg {

class ExecutionContext {
 public:
  virtual ~ExecutionContext() = default;

  // Releases the simulated CPU if this context holds one. Idempotent.
  virtual void WillBlock() = 0;

  // Reacquires a simulated CPU if WillBlock() released one. Idempotent.
  // May block; see the locking contract above.
  virtual void DidWake() = 0;

  // True if an unblocked signal is pending for the process; interruptible
  // sleeps return EINTR when this turns true.
  virtual bool InterruptPending() { return false; }

  // Registers / clears the condition variable the thread is about to wait
  // on, so that a signal poster can wake it. Base implementation: no-op.
  virtual void SetWakeup(std::condition_variable* cv, std::mutex* m) {
    (void)cv;
    (void)m;
  }
  virtual void ClearWakeup() {}
};

// Per-host-thread current context; nullptr outside simulated processes
// (e.g. in unit tests driving primitives directly).
ExecutionContext* CurrentExecutionContext();
void SetCurrentExecutionContext(ExecutionContext* ctx);

// RAII installer for the calling thread.
class ScopedExecutionContext {
 public:
  explicit ScopedExecutionContext(ExecutionContext* ctx) : prev_(CurrentExecutionContext()) {
    SetCurrentExecutionContext(ctx);
  }
  ~ScopedExecutionContext() { SetCurrentExecutionContext(prev_); }

  ScopedExecutionContext(const ScopedExecutionContext&) = delete;
  ScopedExecutionContext& operator=(const ScopedExecutionContext&) = delete;

 private:
  ExecutionContext* prev_;
};

}  // namespace sg

#endif  // SRC_SYNC_EXECUTION_CONTEXT_H_
