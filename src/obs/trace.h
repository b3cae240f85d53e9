// Per-CPU trace rings — a fixed-size, lock-free event log of the kernel
// actions the paper's claims are about: page faults, COW breaks, TLB
// shootdowns, lock waits, sleeps, and sync-bit pulls.
//
// Layout: one ring per simulated CPU plus one "off-CPU" ring (index
// kOffCpu) for threads not currently holding a CPU slot (raw host threads
// in unit tests, processes mid-block). A process's current CPU and pid
// live in a thread-local TraceContext maintained by the proc layer, so
// emitting an event never takes a lock: claim a slot with fetch_add, store
// the fields relaxed; the claim numbers the event within its ring (no order
// across rings, so CPUs tracing at once share no line). When a ring wraps,
// the oldest events are overwritten (dropped() reports how many).
//
// Events off the syscall fast path only: the entry-count fast path uses
// plain counters (obs/stats.h); rings record the *rare* expensive events,
// so tracing stays compiled-in at negligible cost (E4 bench_no_penalty).
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "base/types.h"

namespace sg {
namespace obs {

enum class TraceKind : u16 {
  kNone = 0,        // empty slot
  kPageFault,       // arg0 = faulting va, arg1 = want_write
  kCowBreak,        // arg0 = faulting va
  kTlbShootdown,    // arg0 = #TLBs flushed, arg1 = IPIs delivered
  kLockUpdateWait,  // UpdateLock: acquisition found the lock held
  kResourceSync,    // §6.3 kernel-entry pull; arg0 = PR_S* mask of resources pulled
  kPagerSteal,      // arg0 = frames stolen
  kProcExit,        // arg0 = exit status, arg1 = terminating signal
};

struct TraceEvent {
  u64 tick = 0;  // number within its ring, from 1 (set by TraceRing::Emit)
  u64 arg0 = 0;
  u64 arg1 = 0;
  i32 pid = 0;   // 0 = not a simulated process
  i16 cpu = -1;  // -1 = off-CPU
  u16 kind = 0;  // TraceKind
};

// Where am I running? The proc layer keeps this current; Emit reads it.
struct TraceContext {
  i32 cpu = -1;
  i32 pid = 0;
};
TraceContext& CurrentTraceContext();

// One lock-free ring. Multiple writers may emit concurrently; a slot's
// fields are individually-relaxed atomics, so a torn event under a
// concurrent snapshot mixes fields of two events rather than invoking UB —
// acceptable for a diagnostic ring, and what real kernel tracers do.
class TraceRing {
 public:
  explicit TraceRing(u32 capacity);
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Emit(const TraceEvent& e);

  u32 capacity() const { return cap_; }
  // Total events ever emitted; dropped() = written() - capacity() once the
  // ring has wrapped (the overwritten oldest events).
  u64 written() const { return head_.load(std::memory_order_relaxed); }
  u64 dropped() const {
    const u64 w = written();
    return w > cap_ ? w - cap_ : 0;
  }

  // Copies the live events oldest-first.
  std::vector<TraceEvent> Snapshot() const;
  void Reset();

 private:
  struct Slot {
    std::atomic<u64> tick{0};
    std::atomic<u64> arg0{0};
    std::atomic<u64> arg1{0};
    std::atomic<i32> pid{0};
    std::atomic<i16> cpu{-1};
    std::atomic<u16> kind{0};
  };

  const u32 cap_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<u64> head_{0};
};

// The global per-CPU buffer: rings for CPUs 0..kMaxCpus-1 plus the off-CPU
// ring. Leaked singleton, same reasoning as Stats::Global().
class TraceBuffer {
 public:
  static constexpr u32 kMaxCpus = 64;
  static constexpr u32 kOffCpu = kMaxCpus;  // ring index for cpu = -1
  static constexpr u32 kRingCapacity = 1024;

  static TraceBuffer& Global();

  // Appends to the calling thread's current ring.
  void Emit(TraceKind kind, u64 arg0 = 0, u64 arg1 = 0);

  TraceRing& ring(i32 cpu);
  u64 TotalWritten() const;
  void Reset();

 private:
  TraceBuffer();

  std::vector<std::unique_ptr<TraceRing>> rings_;  // kMaxCpus + 1, fixed at ctor
};

// The emit helper instrumented code calls.
inline void Trace(TraceKind kind, u64 arg0 = 0, u64 arg1 = 0) {
  TraceBuffer::Global().Emit(kind, arg0, arg1);
}

}  // namespace obs
}  // namespace sg

#endif  // SRC_OBS_TRACE_H_
