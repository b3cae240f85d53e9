#include "sync/shared_read_lock.h"

#include <chrono>

#include "base/check.h"
#include "inject/inject.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "sync/execution_context.h"
#include "sync/lockdep.h"

namespace sg {

namespace {
u64 NowNsSince(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
}

// All SharedReadLock instances share one lockdep class: every instance
// guards the same kind of object (a share group's pregion list) and no
// path nests two of them.
lockdep::ClassId SharedLockClass() {
  static const lockdep::ClassId id =
      lockdep::RegisterClass("sharedlock", lockdep::Kind::kSleep);
  return id;
}
}  // namespace

void SharedReadLock::SetName(std::string_view name) {
  name_ = name;
  const std::string prefix = "sharedlock." + name_ + ".";
  obs::Stats& stats = obs::Stats::Global();
  named_updates_ = &stats.counter(prefix + "updates");
  named_update_waits_ = &stats.counter(prefix + "update_waits");
  named_wait_histo_ = &stats.histo(prefix + "update_wait_ns");
}

void SharedReadLock::SleepUntilReleased() {
  ExecutionContext* ctx = CurrentExecutionContext();
  {
    // sgcheck:allow(sleep-in-atomic): wait-channel handoff — chan_m_ must be
    // held before acclck_ drops or a concurrent release's generation bump
    // is lost; chan_m_ sections are O(1) and take no other lock.
    std::unique_lock<std::mutex> cl(chan_m_);
    const u64 gen = chan_gen_;
    // Release the spinlock only after chan_m_ is held: a releaser changes
    // acccnt_ under acclck_ (which we still hold) and must then take
    // chan_m_ to bump the generation, so the wakeup cannot be lost.
    acclck_.Unlock();
    if (ctx != nullptr) {
      ctx->WillBlock();
    }
    chan_cv_.wait(cl, [&] { return chan_gen_ != gen; });
  }
  if (ctx != nullptr) {
    ctx->DidWake();  // may block for a CPU; no internal mutex held
  }
  acclck_.Lock();
}

void SharedReadLock::WakeReleased() {
  {
    std::lock_guard<std::mutex> cl(chan_m_);
    ++chan_gen_;
  }
  chan_cv_.notify_all();
}

void SharedReadLock::AcquireRead() {
  // A violation under a spinlock even when this call would not sleep:
  // whether it sleeps depends on a racing updater, and the discipline must
  // hold on every schedule.
  lockdep::MaySleep("sharedlock.AcquireRead");
  acclck_.Lock();
  while (acccnt_ < 0 || updwant_ != 0) {
    ++waitcnt_;
    read_waits_.fetch_add(1, std::memory_order_relaxed);
    SG_OBS_INC("sharedlock.read_waits");
    obs::Trace(obs::TraceKind::kLockReadWait);
    // sgcheck:allow(sleep-in-atomic): handoff — SleepUntilReleased drops
    // acclck_ before sleeping and re-holds it before returning.
    SleepUntilReleased();
    --waitcnt_;
  }
  ++acccnt_;
  acclck_.Unlock();
  reads_.fetch_add(1, std::memory_order_relaxed);
  // Recorded after acclck_ drops, so lockdep never sees an acclck ->
  // sharedlock edge (the implementation lock is strictly inside).
  lockdep::OnAcquire(SharedLockClass(), this);
}

void SharedReadLock::ReleaseRead() {
  lockdep::OnRelease(SharedLockClass(), this);
  acclck_.Lock();
  const bool wake = --acccnt_ == 0 && waitcnt_ != 0;
  acclck_.Unlock();
  if (wake) {
    WakeReleased();
  }
}

void SharedReadLock::AcquireUpdate() {
  lockdep::MaySleep("sharedlock.AcquireUpdate");
  // Writer-wait latency is the paper's §7 cost of shrink/detach: every
  // update acquisition records entry-to-grant time, so /proc/stat exposes
  // how long updaters stall behind the reader population.
  const auto t0 = std::chrono::steady_clock::now();

  acclck_.Lock();
  if (acccnt_ != 0) {
    ++updwant_;  // from here on, arriving readers queue behind us
    do {
      ++waitcnt_;
      update_waits_.fetch_add(1, std::memory_order_relaxed);
      SG_OBS_INC("sharedlock.update_waits");
      if (named_update_waits_ != nullptr) {
        named_update_waits_->Inc();
      }
      obs::Trace(obs::TraceKind::kLockUpdateWait);
      // sgcheck:allow(sleep-in-atomic): handoff — SleepUntilReleased drops
      // acclck_ before sleeping and re-holds it before returning.
      SleepUntilReleased();
      --waitcnt_;
    } while (acccnt_ != 0);
    --updwant_;
  }
  acccnt_ = -1;
  acclck_.Unlock();

  lockdep::OnAcquire(SharedLockClass(), this);
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

void SharedReadLock::ReleaseUpdate() {
  lockdep::OnRelease(SharedLockClass(), this);
  SG_INJECT_POINT("sharedlock.update.release");
  acclck_.Lock();
  SG_DCHECK(acccnt_ == -1);
  acccnt_ = 0;
  const bool wake = waitcnt_ != 0;
  acclck_.Unlock();
  if (wake) {
    WakeReleased();
  }
}

}  // namespace sg
