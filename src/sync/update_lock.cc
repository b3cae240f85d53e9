#include "sync/update_lock.h"

#include <chrono>

#include "inject/inject.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "sync/lockdep.h"
#include "sync/wait.h"

namespace sg {

namespace {
u64 NowNsSince(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
}

// All UpdateLock instances share one lockdep class: every instance guards
// the same kind of object (a share group's pregion list) and no path nests
// two of them.
lockdep::ClassId UpdateLockClass() {
  static const lockdep::ClassId id =
      lockdep::RegisterClass("sharedlock", lockdep::Kind::kSleep);
  return id;
}
}  // namespace

// Suppressed: the capability is held from here until ReleaseUpdate, which
// clang cannot follow across the two calls.
void UpdateLock::AcquireUpdate() SG_NO_THREAD_SAFETY_ANALYSIS {
  // A violation under a spinlock even when this call would not sleep:
  // whether it sleeps depends on a racing holder, and the discipline must
  // hold on every schedule.
  lockdep::MaySleep("sharedlock.AcquireUpdate");
  // Entry-to-grant latency is the paper's §7 cost of shrink/detach: every
  // acquisition records it, so /proc/stat exposes how long updaters stall.
  const auto t0 = std::chrono::steady_clock::now();
  SG_INJECT_POINT("sema.tryp");
  bool slept = false;
  {
    std::unique_lock<std::mutex> l(m_);
    if (held_) {
      update_waits_.fetch_add(1, std::memory_order_relaxed);
      SG_OBS_INC("sharedlock.update_waits");
      obs::Trace(obs::TraceKind::kLockUpdateWait);
      SG_INJECT_POINT("sema.p");
      // Uninterruptible: always kOk. sync.sema_sleeps counts every wait,
      // a spurious or lost-race wakeup that sleeps again included.
      (void)BlockOn(cv_, l, SleepMode::kUninterruptible, &slept, [this] {
        if (!held_) {
          return true;
        }
        SG_OBS_INC("sync.sema_sleeps");
        return false;
      });
    }
    held_ = true;
  }
  FinishSleep(slept);  // reacquires the simulated CPU; m_ is released

  lockdep::OnAcquire(UpdateLockClass(), this);
  updates_.fetch_add(1, std::memory_order_relaxed);
  SG_OBS_INC("sharedlock.updates");
  static obs::LatencyHisto& global_wait_histo =
      obs::Stats::Global().histo("sharedlock.update_wait_ns");
  const u64 wait_ns = NowNsSince(t0);
  global_wait_histo.Record(wait_ns);
  wait_histo_.Record(wait_ns);
}

// Suppressed: releases what AcquireUpdate took (see there).
void UpdateLock::ReleaseUpdate() SG_NO_THREAD_SAFETY_ANALYSIS {
  lockdep::OnRelease(UpdateLockClass(), this);
  SG_INJECT_POINT("sharedlock.update.release");
  {
    std::lock_guard<std::mutex> l(m_);
    held_ = false;
  }
  // notify_all: every sleeper re-checks held_ (the one that wins takes the
  // lock; the others sleep again).
  cv_.notify_all();
}

}  // namespace sg
