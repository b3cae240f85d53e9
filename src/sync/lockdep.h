// lockdep — runtime validator for the share-group locking protocol,
// following the Linux lockdep lineage (Molnar's lock dependency engine):
// instead of waiting for a 1-in-1280-seeds storm schedule to actually
// deadlock, record the ORDER in which lock CLASSES are taken and diagnose
// a protocol violation the first time both sides of an inversion have ever
// been seen — on any schedule, even one that did not deadlock.
//
// What it checks (in SG_LOCKDEP=ON builds; compiled to nothing otherwise):
//
//   * Acquisition-order cycles. Every tracked lock belongs to a class
//     ("shaddr.listlock", "shaddr.rupdlock", "tlb", "sharedlock", ...).
//     When a thread acquires class B while holding class A, the edge A->B
//     enters a global dependency graph; if B can already reach A through
//     recorded edges, the new edge closes a cycle and a report is filed
//     with both acquisition contexts (the held-lock stack that recorded
//     each conflicting edge).
//   * Sleep under spinlock. The paper's hard rule — "critical sections
//     protected by a Spinlock are short and never call a blocking
//     primitive" — is checked at the entry of every simulated-CPU-
//     releasing primitive (UpdateLock acquisition, BlockOn) via
//     MaySleep(): calling one with any
//     spinlock-class lock held is a violation even on runs where the fast
//     path happened not to sleep.
//
// Violations are counted in the obs registry (lockdep.cycles,
// lockdep.sleep_under_spin) and the full text — class names, edges, both
// stacks per report — is served as /proc/lockdep. Reports are filed once
// per offending edge/site, so a hot path cannot flood the log; detection
// never panics (the storm suites assert Reports() == 0 at the end).
//
// Layering: depends on base/ and obs/ only, so spinlock.h itself can call
// the hooks. Lockdep's own bookkeeping uses host std::mutex + thread_local
// state and never takes a tracked lock, so it cannot deadlock against the
// code it watches.
#ifndef SRC_SYNC_LOCKDEP_H_
#define SRC_SYNC_LOCKDEP_H_

#include <string>

#include "base/types.h"

namespace sg {
namespace lockdep {

// Lock classes: all instances created under one name share ordering state
// (every ShaddrBlock's listlock_ is one class, like Linux lockdep keying
// by initialization site).
using ClassId = u16;  // 1-based; 0 = invalid/untracked

enum class Kind : u8 {
  kSpin,   // busy-wait lock; holders must never sleep
  kSleep,  // blocking primitive (the update lock)
};

#if defined(SG_LOCKDEP_ENABLED)

inline constexpr bool kEnabled = true;

// Registers (or looks up) the class named `name`. Cheap enough for lock
// constructors; idempotent per name. `name` must outlive the process
// (string literals).
ClassId RegisterClass(const char* name, Kind kind);

// The calling thread acquired / released an instance of `cls`. Acquire is
// reported AFTER the lock is actually held; release before or after the
// drop, on the acquiring thread. Balanced nesting is not required —
// release unwinds the matching (cls, instance) entry wherever it sits in
// the held stack.
void OnAcquire(ClassId cls, const void* instance);
void OnRelease(ClassId cls, const void* instance);

// Entry hook of every primitive that may release the simulated CPU.
// Reports if the calling thread holds any kSpin-class lock.
void MaySleep(const char* what);

// Number of tracked locks the calling thread currently holds.
u32 HeldCount();

// Total violation reports filed so far (cycles + sleeps-under-spinlock).
u64 Reports();

// Full diagnostic text: classes, recorded edges, and every report with
// both acquisition stacks. The body of /proc/lockdep.
std::string RenderReport();

// Clears the dependency graph, the reports, and the once-only dedup sets
// (NOT the class registry: ClassIds cached in lock instances stay valid).
// Tests only; do not call while other threads hold tracked locks.
void ResetForTest();

#else  // !SG_LOCKDEP_ENABLED — every hook compiles to nothing

inline constexpr bool kEnabled = false;

inline ClassId RegisterClass(const char*, Kind) { return 0; }
inline void OnAcquire(ClassId, const void*) {}
inline void OnRelease(ClassId, const void*) {}
inline void MaySleep(const char*) {}
inline u32 HeldCount() { return 0; }
inline u64 Reports() { return 0; }
inline std::string RenderReport() { return "lockdep: off (build with -DSG_LOCKDEP=ON)\n"; }
inline void ResetForTest() {}

#endif  // SG_LOCKDEP_ENABLED

}  // namespace lockdep
}  // namespace sg

#endif  // SRC_SYNC_LOCKDEP_H_
