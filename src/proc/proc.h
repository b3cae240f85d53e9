// Proc — the process table entry plus u-area of one simulated process.
//
// The share-group fields (§6.3):
//   * p_shmask — the kernel copy of the share mask chosen at sproc();
//   * p_sync — the generations of the group's shared resources this
//     member's private copies reflect. Kernel entry compares its summary
//     with the block's "in a single test", and updaters compare the
//     resource's generation again after acquiring the update lock (the
//     double-update race);
//   * shaddr — pointer to the group's shared-address block (core/shaddr.h),
//     linked through s_plink; opaque at this layer.
//
// A Proc is also the ExecutionContext of its host thread: blocking kernel
// primitives release its simulated CPU and signal posters can kick it out
// of interruptible sleeps.
#ifndef SRC_PROC_PROC_H_
#define SRC_PROC_PROC_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "base/types.h"
#include "fs/file.h"
#include "fs/inode.h"
#include "obs/trace.h"
#include "proc/scheduler.h"
#include "proc/signal.h"
#include "sync/execution_context.h"
#include "vm/address_space.h"
#include "vm/layout.h"

namespace sg {

class ShaddrBlock;  // core/shaddr.h — the share-group layer owns it

namespace rm {
class GroupNode;  // rm/rm.h — the fair-share account of a share group
}  // namespace rm

// Atomic pointer to a process's share block. Written only by the owner
// process's own thread (sproc/prctl/exec/exit) or by its parent before the
// host thread starts, but read cross-thread by PR_JOINGROUP, kill(2) and
// the /proc snapshots — so every access goes through an atomic. The
// pointer-ish interface keeps owner-thread call sites natural; each
// operator-> performs its own acquire load, which is fine for the owner
// (its value is stable under its feet) and gives cross-thread readers one
// consistent snapshot per dereference.
class ShaddrPtr {
 public:
  ShaddrPtr& operator=(ShaddrBlock* b) {
    p_.store(b, std::memory_order_release);
    return *this;
  }
  operator ShaddrBlock*() const { return p_.load(std::memory_order_acquire); }
  ShaddrBlock* operator->() const { return p_.load(std::memory_order_acquire); }

 private:
  std::atomic<ShaddrBlock*> p_{nullptr};
};

// The resources a share group synchronizes through its block (§6.3), in
// the order of ShaddrBlock::kSyncTable and SyncCache::gen.
enum SyncRes : u32 { kResFds, kResDir, kResIds, kResUmask, kResUlimit, kNumSyncRes };

// A member's view of the block's generations (core/shaddr.h, DESIGN.md
// §4f): the summary it last synchronized against and, per resource, the
// generation its private copy reflects. A zeroed cache is stale on every
// resource, because the block's generations start at 1.
struct SyncCache {
  u64 summary = 0;
  std::array<u64, kNumSyncRes> gen{};
};

enum class ProcState {
  kEmbryo,   // allocated, not yet started
  kActive,   // host thread running (possibly sleeping in a primitive)
  kZombie,   // exited; waiting to be reaped by the parent
};

class Proc final : public ExecutionContext {
 public:
  Proc(pid_t pid, PhysMem& mem, Scheduler& sched, u32 tlb_entries)
      : pid(pid), as(mem, tlb_entries), sched_(sched) {}
  ~Proc() override = default;
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  // ----- identity / tree -----
  const pid_t pid;
  // Parent pid rather than a pointer: a pid is safe to hold across the
  // parent's own exit/reap (orphans are reparented to 0 = the kernel).
  std::atomic<pid_t> ppid{0};
  std::atomic<ProcState> state{ProcState::kEmbryo};
  int exit_status = 0;
  int term_signal = 0;  // nonzero if terminated by a signal

  // ----- share group (core layer manages these) -----
  // Membership identity (shaddr + p_shmask) is published atomically:
  // attach sets it before the member is linked into the chain, detach
  // clears it before the unlink drops the refcount, so concurrent chain
  // walkers (ForEachMember, the /proc snapshots) and PR_JOINGROUP's
  // cross-thread peek never see a half-formed member.
  ShaddrPtr shaddr;               // null when not in a share group
  std::atomic<u32> p_shmask{0};   // resources this member shares
  Proc* s_plink = nullptr;        // next member in the share group chain
  // Owner-thread only: written by this process's own kernel entries and
  // updates. Other members communicate through the block's generations,
  // never by touching it.
  SyncCache p_sync;
  // Fair-share account of this member's group (src/rm/). Set by attach
  // before the member is linked, cleared by detach before the node can die;
  // read on every scheduler call below, so lifetime follows membership
  // identity exactly (a cleared member schedules at its plain priority).
  std::atomic<rm::GroupNode*> rm_node{nullptr};

  // ----- virtual memory -----
  AddressSpace as;
  vaddr_t stack_base = 0;      // lowest address of this process's stack
  u64 stack_max_pages = kDefaultStackMaxPages;  // PR_SETSTACKSIZE; inherited

  // ----- u-area: filesystem state (share-group shareable resources) -----
  FdTable fds;
  Inode* cwd = nullptr;      // counted ref
  Inode* rootdir = nullptr;  // counted ref
  // Identity is owner-written (under the share block's rupdlock_ when
  // shared) but read cross-thread by kill(2)'s permission check and the
  // /proc snapshots; atomics keep those reads defined. umask/ulimit have
  // no cross-thread readers and stay plain.
  std::atomic<uid_t> uid{0};
  std::atomic<gid_t> gid{0};
  mode_t umask = 022;
  u64 ulimit = u64{1} << 30;  // max file size a write may produce (bytes)

  // ----- signals -----
  std::atomic<u32> sig_pending{0};
  std::atomic<u32> sig_blocked{0};
  std::atomic<u64> sig_delivered{0};  // handlers run (sigpause uses this)
  Mutex sig_mu;  // guards actions
  std::array<SigAction, kNsig> sig_actions SG_GUARDED_BY(sig_mu){};

  // ----- scheduling / execution -----
  std::atomic<int> priority{0};  // scheduling priority (group-settable, see PR_SETGROUPPRI)
  std::atomic<bool> suspended{false};  // PR_BLOCKGROUP: parked at next kernel entry
  std::function<void()> entry;  // bound user program (set by the api layer)
  std::thread thread;

  // Per-process syscall counter (E4/E9 benchmarks).
  std::atomic<u64> syscalls{0};

  // Channel for pause(2)-style self-sleeps; signal posters wake it through
  // the wakeup registration.
  std::mutex wait_mu;
  std::condition_variable wait_cv;

  // ----- ExecutionContext -----
  void WillBlock() override {
    if (has_cpu_) {
      has_cpu_ = false;
      obs::CurrentTraceContext().cpu = -1;
      sched_.ReleaseCpu(cpu_, rm_node.load(std::memory_order_acquire));
    }
  }
  void DidWake() override {
    if (!has_cpu_) {
      cpu_ = sched_.AcquireCpu(priority.load(std::memory_order_relaxed),
                               rm_node.load(std::memory_order_acquire));
      has_cpu_ = true;
      obs::CurrentTraceContext().cpu = static_cast<i32>(cpu_);
    }
  }
  bool InterruptPending() override {
    const u32 pending = sig_pending.load(std::memory_order_acquire) &
                        ~sig_blocked.load(std::memory_order_relaxed);
    if (pending == 0) {
      return false;
    }
    // Ignored signals never interrupt a sleep.
    MutexGuard l(sig_mu);
    for (int sig = 1; sig < kNsig; ++sig) {
      if ((pending & SigBit(sig)) == 0) {
        continue;
      }
      if (sig == kSigKill || sig_actions[static_cast<u32>(sig)].disp != SigDisp::kIgnore) {
        if (sig == kSigChld && sig_actions[static_cast<u32>(sig)].disp == SigDisp::kDefault) {
          continue;  // default SIGCHLD is ignore
        }
        return true;
      }
    }
    return false;
  }
  void SetWakeup(std::condition_variable* cv, std::mutex* m) override {
    std::lock_guard<std::mutex> l(wake_reg_mu_);
    wake_cv_ = cv;
    wake_m_ = m;
  }
  void ClearWakeup() override {
    std::lock_guard<std::mutex> l(wake_reg_mu_);
    wake_cv_ = nullptr;
    wake_m_ = nullptr;
  }

  // Posts `sig` and kicks the process out of any interruptible sleep.
  // Callable from any thread. If the caller already holds the mutex the
  // sleeper registered (e.g. the kernel's reap lock during exit), pass it
  // as `held` — the required serialization is then already in place and
  // locking it again would self-deadlock.
  void PostSignal(int sig, std::mutex* held = nullptr) {
    sig_pending.fetch_or(SigBit(sig), std::memory_order_acq_rel);
    std::condition_variable* cv = nullptr;
    std::mutex* m = nullptr;
    {
      std::lock_guard<std::mutex> l(wake_reg_mu_);
      cv = wake_cv_;
      m = wake_m_;
    }
    if (cv != nullptr) {
      // Serialize with the sleeper: once we hold m, the sleeper is either
      // inside wait() (gets the notify) or past ClearWakeup (re-checks
      // InterruptPending itself).
      if (m != held) {
        std::lock_guard<std::mutex> l(*m);
      }
      cv->notify_all();
    }
  }

  // CPU-slot management for the thread body (api layer).
  void AcquireCpuInitial() {
    cpu_ = sched_.AcquireCpu(priority.load(std::memory_order_relaxed),
                             rm_node.load(std::memory_order_acquire));
    has_cpu_ = true;
    obs::CurrentTraceContext().cpu = static_cast<i32>(cpu_);
  }
  void ReleaseCpuFinal() {
    if (has_cpu_) {
      has_cpu_ = false;
      obs::CurrentTraceContext().cpu = -1;
      sched_.ReleaseCpu(cpu_, rm_node.load(std::memory_order_acquire));
    }
  }
  void YieldCpu() {
    cpu_ = sched_.Yield(priority.load(std::memory_order_relaxed), cpu_,
                        rm_node.load(std::memory_order_acquire));
    obs::CurrentTraceContext().cpu = static_cast<i32>(cpu_);
  }
  // The simulated processor currently (or last) granted to this process.
  u32 cpu() const { return cpu_; }

 private:
  Scheduler& sched_;
  bool has_cpu_ = false;  // owned by this proc's host thread
  u32 cpu_ = 0;           // valid while has_cpu_

  std::mutex wake_reg_mu_;
  std::condition_variable* wake_cv_ = nullptr;
  std::mutex* wake_m_ = nullptr;
};

// Thrown on the process's own thread to unwind out of user code when the
// process terminates (exit(2), fatal signal, unhandled SIGSEGV).
struct ProcTerminated {
  int status;
  int signal;  // 0 for a plain exit
};

}  // namespace sg

#endif  // SRC_PROC_PROC_H_
