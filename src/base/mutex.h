// sg::Mutex — a thin wrapper over std::mutex that carries thread-safety
// capability annotations (base/thread_annotations.h).
//
// libstdc++'s std::mutex has no capability attributes, so state guarded by
// a raw std::mutex is invisible to clang's analysis. Kernel structures
// whose critical sections are plain lock/unlock (no condition-variable
// wait) use this wrapper instead, making their GUARDED_BY fields
// machine-checked: the obs stats registry, procfs node maps, per-process
// signal actions. Structures that sleep on a condition variable
// (the update lock, wait channels) keep std::mutex —
// std::condition_variable demands it — and document their guards in
// comments instead.
//
// This is a HOST-level mutex: it never releases the simulated CPU and is
// deliberately not tracked by sync/lockdep.h (its critical sections are a
// few instructions, the moral equivalent of the paper's spl-protected
// regions). The simulated blocking primitives live in sync/.
#ifndef SRC_BASE_MUTEX_H_
#define SRC_BASE_MUTEX_H_

#include <mutex>

#include "base/thread_annotations.h"

namespace sg {

class SG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SG_ACQUIRE() { m_.lock(); }
  void Unlock() SG_RELEASE() { m_.unlock(); }
  bool TryLock() SG_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  std::mutex m_;
};

// RAII guard (std::lock_guard equivalent the analysis can see).
class SG_SCOPED_CAPABILITY MutexGuard {
 public:
  explicit MutexGuard(Mutex& mu) SG_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexGuard() SG_RELEASE() { mu_.Unlock(); }
  MutexGuard(const MutexGuard&) = delete;
  MutexGuard& operator=(const MutexGuard&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace sg

#endif  // SRC_BASE_MUTEX_H_
