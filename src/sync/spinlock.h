// Busy-wait spinlock, the kernel's short-critical-section lock (the paper's
// `lock_t`: s_listlock, s_rupdlock, s_fupdsema).
//
// On the target machine spinlocks are hardware test-and-set loops; here we
// use an atomic flag with a test-test-and-set loop and a pause hint. Holders
// must not sleep: critical sections protected by a Spinlock are short and
// never call a blocking primitive. That rule is enforced twice over: the
// clang thread-safety annotations below make guarded state machine-checked
// under `cmake --preset tsa`, and in SG_LOCKDEP=ON builds every Lock/Unlock
// feeds the sync/lockdep.h validator (acquisition-order graph +
// sleep-under-spinlock detection). Name a lock at construction
// (`Spinlock lk{"shaddr.listlock"}`) to give it its own lockdep class;
// unnamed locks share the generic "spinlock" class.
#ifndef SRC_SYNC_SPINLOCK_H_
#define SRC_SYNC_SPINLOCK_H_

#include <atomic>
#include <thread>

#include "base/check.h"
#include "base/thread_annotations.h"
#include "base/types.h"
#include "inject/inject.h"
#include "obs/stats.h"
#include "sync/lockdep.h"

namespace sg {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

class SG_CAPABILITY("spinlock") Spinlock {
 public:
  Spinlock() : Spinlock("spinlock") {}
  explicit Spinlock(const char* lockdep_class)
#if defined(SG_LOCKDEP_ENABLED)
      : class_(lockdep::RegisterClass(lockdep_class, lockdep::Kind::kSpin))
#endif
  {
    (void)lockdep_class;
  }
  Spinlock(const Spinlock&) = delete;
  Spinlock& operator=(const Spinlock&) = delete;

  void Lock() SG_ACQUIRE() {
    for (;;) {
      if (!flag_.exchange(true, std::memory_order_acquire)) {
        DidAcquire();
        return;
      }
      // Contended: spin on a plain load until the lock looks free. After a
      // while, yield the HOST thread — on a host narrower than the
      // simulated machine the holder may be preempted, and burning the
      // quantum would stall everyone (a real multiprocessor never sees
      // this: the holder runs concurrently).
      SG_OBS_INC("sync.spin_contended");
      SG_INJECT_POINT("spinlock.contended");
      u32 spins = 0;
      while (flag_.load(std::memory_order_relaxed)) {
        CpuRelax();
        if (++spins == 1024) {
          spins = 0;
          std::this_thread::yield();
        }
      }
    }
  }

  bool TryLock() SG_TRY_ACQUIRE(true) {
    if (flag_.exchange(true, std::memory_order_acquire)) {
      return false;
    }
    DidAcquire();
    return true;
  }

  void Unlock() SG_RELEASE() {
#if defined(SG_LOCKDEP_ENABLED)
    // The double-unlock / unlock-from-the-wrong-thread failure mode is
    // silent with a bare store (the flag just goes false again); with the
    // holder tracked, it panics with the culprit on the stack.
    SG_CHECK(holder_.load(std::memory_order_relaxed) == std::this_thread::get_id());
    holder_.store(std::thread::id{}, std::memory_order_relaxed);
    lockdep::OnRelease(class_, this);
#else
    // Weak form of the same check for ordinary debug builds: the flag must
    // at least be set (catches plain double-unlock, not wrong-thread).
    SG_DCHECK(flag_.load(std::memory_order_relaxed));
#endif
    flag_.store(false, std::memory_order_release);
  }

 private:
  void DidAcquire() {
#if defined(SG_LOCKDEP_ENABLED)
    holder_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    lockdep::OnAcquire(class_, this);
#endif
  }

  std::atomic<bool> flag_{false};
#if defined(SG_LOCKDEP_ENABLED)
  lockdep::ClassId class_ = 0;
  std::atomic<std::thread::id> holder_{};
#endif
};

// RAII guard.
class SG_SCOPED_CAPABILITY SpinGuard {
 public:
  explicit SpinGuard(Spinlock& lock) SG_ACQUIRE(lock) : lock_(lock) { lock_.Lock(); }
  ~SpinGuard() SG_RELEASE() { lock_.Unlock(); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  Spinlock& lock_;
};

}  // namespace sg

#endif  // SRC_SYNC_SPINLOCK_H_
