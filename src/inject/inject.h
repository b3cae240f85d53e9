// Deterministic schedule-perturbation and fault-injection layer.
//
// The §6 lifecycle protocol (member list under s_listlock, s_refcnt
// teardown, s_fupdsema-serialized fd updates, detach-on-exec) is guarded
// by locks whose *windows* are a handful of instructions wide; plain
// stress tests cross them only by luck. This layer plants named points
// inside those windows. When a plan is installed, each point consults a
// decision stream derived purely from (plan seed, simulated pid,
// per-thread hit index) and either passes through, yields the host
// thread, spins a short delay, or — at SG_INJECT_FAULT points — reports
// an injected resource failure (ENOMEM/ENFILE-class errors the caller
// must unwind from).
//
// Determinism contract (stated precisely, because true cross-thread
// interleaving replay is impossible with host threads): the decision at
// the i-th point hit by simulated process P under seed S is a pure
// function of (S, P, i, point name). A process whose own syscall sequence
// is fixed therefore sees the identical perturbation sequence on every
// run with the same seed — re-running a failing seed re-applies the same
// per-process schedule pressure, which is what makes storm failures
// reproducible in practice. The order-insensitive digest() (XOR over all
// decisions) is bit-equal across runs whenever every process hits the
// same points, and is used by the storm harness to verify the decision
// streams themselves never drift.
//
// Cost when no plan is installed: one relaxed load per point (the macros
// short-circuit on Enabled()). Compile the points out entirely with
// -DSG_INJECT=OFF (the benches insist on it; see bench/run_benches.sh).
//
// Layering: depends only on base/ and obs/ so every layer from sync/ up
// (spinlock, update lock, shaddr, the kernel) may plant
// points.
#ifndef SRC_INJECT_INJECT_H_
#define SRC_INJECT_INJECT_H_

#include <atomic>

#include "base/types.h"
#include "obs/stats.h"

namespace sg {
namespace inject {

// Perturbation mix, in parts-per-million of point hits. The default plan
// does nothing; storms typically run with a few hundred thousand ppm of
// yields so every lock-order window gets crossed both ways.
struct PlanConfig {
  u32 yield_ppm = 0;        // give up the host thread's timeslice
  u32 delay_ppm = 0;        // spin 0..max_delay_spins compiler barriers
  u32 fault_ppm = 0;        // SG_INJECT_FAULT points report failure
  u32 max_delay_spins = 256;
};

class InjectionPlan {
 public:
  InjectionPlan(u64 seed, const PlanConfig& cfg);
  InjectionPlan(const InjectionPlan&) = delete;
  InjectionPlan& operator=(const InjectionPlan&) = delete;

  u64 seed() const { return seed_; }
  const PlanConfig& config() const { return cfg_; }

  // Order-insensitive XOR fold of every decision drawn, and the total
  // draw count. Equal digests across two runs of the same scenario mean
  // the decision streams were identical (see the header comment).
  u64 digest() const { return digest_.load(std::memory_order_relaxed); }
  u64 decisions() const { return decisions_.load(std::memory_order_relaxed); }

  // Called by the macros through PointHit/FaultHit.
  void Perturb(const char* point);
  bool ShouldFail(const char* point);

 private:
  // One decision draw: deterministic in (seed_, pid, per-thread index,
  // point); folds into the digest.
  u64 Draw(const char* point);

  const u64 seed_;
  const u64 epoch_;  // distinguishes this plan's thread-local streams
  const PlanConfig cfg_;
  std::atomic<u64> digest_{0};
  std::atomic<u64> decisions_{0};
};

namespace internal {
// The single active plan. Installed/removed by ScopedInjection; points do
// one relaxed load when no plan is active.
extern std::atomic<InjectionPlan*> g_active;
}  // namespace internal

inline bool Enabled() {
  return internal::g_active.load(std::memory_order_relaxed) != nullptr;
}
inline InjectionPlan* ActivePlan() {
  return internal::g_active.load(std::memory_order_acquire);
}

// Installs `plan` as the process-wide active plan for the scope. At most
// one plan may be active; nesting is a programming error (checked).
// The destructor must run only after every thread that might hit a point
// has quiesced (the storm harness calls Kernel::WaitAll first) — points
// hold no reference of their own.
class ScopedInjection {
 public:
  explicit ScopedInjection(InjectionPlan& plan);
  ~ScopedInjection();
  ScopedInjection(const ScopedInjection&) = delete;
  ScopedInjection& operator=(const ScopedInjection&) = delete;

 private:
  InjectionPlan* plan_;
};

// Out-of-line bodies of the macros (active-plan indirection).
void PointHit(const char* point);
bool FaultHit(const char* point);

}  // namespace inject
}  // namespace sg

// SG_INJECT_POINT(name): a schedule-perturbation point. `name` must be a
// string literal ("shaddr.detach.pre_refcnt"). Counts hits in the obs
// registry as inject.point.<name> (rendered by /proc/stat) and lets the
// active plan yield or delay here. Statement form.
//
// SG_INJECT_FAULT(name): a fault point. Expression of type bool — true
// means "fail now"; the caller returns its natural resource error
// (ENOMEM, ENFILE, ...). Counts hits as inject.fault.<name>.
#if defined(SG_INJECT_ENABLED)
#define SG_INJECT_POINT(name)               \
  do {                                      \
    if (::sg::inject::Enabled()) {          \
      SG_OBS_INC("inject.point." name);     \
      ::sg::inject::PointHit(name);         \
    }                                       \
  } while (0)
#define SG_INJECT_FAULT(name)               \
  (::sg::inject::Enabled() && [] {          \
    SG_OBS_INC("inject.fault." name);       \
    return ::sg::inject::FaultHit(name);    \
  }())
#else
#define SG_INJECT_POINT(name) \
  do {                        \
  } while (0)
#define SG_INJECT_FAULT(name) false
#endif

#endif  // SRC_INJECT_INJECT_H_
