// Scheduler — the simulated-processor gate. The machine has N CPUs; a
// process executes (user code or its own kernel code) only while holding a
// CPU slot. Blocking primitives release the slot through ExecutionContext
// and reacquire it on wake, so an M-process workload on an N-CPU
// configuration really does run at most N-wide — the property the paper's
// self-scheduling and gang-scheduling discussions (§3, §8) depend on.
//
// Slots are granted to the highest-priority waiter (ties FIFO). Execution
// between scheduling points is cooperative, as in a non-preemptive V.3
// kernel path.
//
// Fair share (src/rm/): callers that belong to a share group pass their
// group's rm node. Held CPU time is charged to the node on every release,
// and the node bends the caller's base priority into an *effective* one at
// every acquire, in O(1): an over-consuming group sinks below its entitled
// peers and self-throttles. The scheduler stores no node pointers (only
// per-CPU grant timestamps), so group teardown never races a dangling
// reference here: a member clears its node before leaving the share block
// the node lives in, and a null node degrades to the plain priority path.
#ifndef SRC_PROC_SCHEDULER_H_
#define SRC_PROC_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <vector>

#include "base/types.h"

namespace sg {

namespace rm {
class GroupNode;
}  // namespace rm

class Scheduler {
 public:
  explicit Scheduler(u32 ncpus);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Blocks until a CPU slot is free and the caller is the best waiter.
  // Higher `priority` wins; equal priorities are FIFO. `node` (may be null)
  // is the caller's fair-share account: it bends the base priority by the
  // group's entitled-minus-consumed balance. Returns the id of the granted
  // CPU (0..ncpus-1) — holders identify themselves with it (per-CPU trace
  // rings key on it) and return it to ReleaseCpu.
  u32 AcquireCpu(int priority, rm::GroupNode* node = nullptr);

  // Returns the slot; the time it was held is charged to `node`.
  void ReleaseCpu(u32 cpu, rm::GroupNode* node = nullptr);

  // Gives other runnable processes a chance to run: if anyone is waiting
  // for a slot, release and reacquire (round-robin among equals). Returns
  // the CPU the caller runs on afterwards (possibly the same one).
  u32 Yield(int priority, u32 cpu, rm::GroupNode* node = nullptr);

  u32 ncpus() const { return ncpus_; }
  u32 FreeCpus() const;
  u64 ContextSwitches() const;

 private:
  u32 TakeFreeCpu();  // caller holds m_
  void ChargeHeld(u32 cpu, rm::GroupNode* node);  // charge since last grant

  using Ticket = std::pair<i64, u64>;  // (-priority, seq): smallest = best

  u32 ncpus_;
  mutable std::mutex m_;
  std::condition_variable cv_;
  std::vector<u32> free_;  // free CPU ids, granted from the back
  u64 next_seq_ = 0;
  std::set<Ticket> waiters_;
  u64 switches_ = 0;

  // When each CPU slot was last granted (ns). Written by the grantee right
  // after it wins the slot, read by the same holder at release — atomics
  // only so FreeCpus-style observers stay race-free.
  std::vector<std::atomic<u64>> grant_ns_;
};

}  // namespace sg

#endif  // SRC_PROC_SCHEDULER_H_
