#include "sync/update_lock.h"

#include <chrono>

#include "inject/inject.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "sync/lockdep.h"

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

void UpdateLock::SetName(std::string_view name) {
  name_ = name;
  const std::string prefix = "sharedlock." + name_ + ".";
  obs::Stats& stats = obs::Stats::Global();
  named_updates_ = &stats.counter(prefix + "updates");
  named_update_waits_ = &stats.counter(prefix + "update_waits");
  named_wait_histo_ = &stats.histo(prefix + "update_wait_ns");
}

// Suppressed: the semaphore's capability is held from here until
// ReleaseUpdate, which clang cannot follow across the two calls.
void UpdateLock::AcquireUpdate() SG_NO_THREAD_SAFETY_ANALYSIS {
  // A violation under a spinlock even when this call would not sleep:
  // whether it sleeps depends on a racing holder, and the discipline must
  // hold on every schedule.
  lockdep::MaySleep("sharedlock.AcquireUpdate");
  // Entry-to-grant latency is the paper's §7 cost of shrink/detach: every
  // acquisition records it, so /proc/stat exposes how long updaters stall.
  const auto t0 = std::chrono::steady_clock::now();
  if (!sema_.TryP()) {
    update_waits_.fetch_add(1, std::memory_order_relaxed);
    SG_OBS_INC("sharedlock.update_waits");
    if (named_update_waits_ != nullptr) {
      named_update_waits_->Inc();
    }
    obs::Trace(obs::TraceKind::kLockUpdateWait);
    (void)sema_.P();  // uninterruptible: always kOk
  }

  lockdep::OnAcquire(UpdateLockClass(), this);
  updates_.fetch_add(1, std::memory_order_relaxed);
  SG_OBS_INC("sharedlock.updates");
  if (named_updates_ != nullptr) {
    named_updates_->Inc();
  }
  static obs::LatencyHisto& global_wait_histo =
      obs::Stats::Global().histo("sharedlock.update_wait_ns");
  const u64 wait_ns = NowNsSince(t0);
  global_wait_histo.Record(wait_ns);
  wait_histo_.Record(wait_ns);
  if (named_wait_histo_ != nullptr) {
    named_wait_histo_->Record(wait_ns);
  }
}

// Suppressed: releases the semaphore AcquireUpdate took (see there).
void UpdateLock::ReleaseUpdate() SG_NO_THREAD_SAFETY_ANALYSIS {
  lockdep::OnRelease(UpdateLockClass(), this);
  SG_INJECT_POINT("sharedlock.update.release");
  sema_.V();
}

}  // namespace sg
