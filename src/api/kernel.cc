// Kernel lifecycle: boot, process threads, exit/wait/reap, signals.
#include "api/kernel.h"

#include "api/user_env.h"
#include "base/check.h"
#include "inject/inject.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "proc/deliver.h"
#include "sync/lockdep.h"
#include "sync/wait.h"
#include "vm/access.h"

namespace sg {

Kernel::Kernel(const BootParams& params)
    : params_(params),
      mem_(params.phys_mem_bytes),
      cpus_(params.ncpus),
      sched_(params.ncpus),
      vfs_(params.max_inodes, params.max_files),
      procs_(mem_, sched_, params.max_procs, params.tlb_entries),
      ipc_(mem_) {
  if (params.swap_pages > 0) {
    swap_ = std::make_unique<SwapSpace>(params.swap_pages);
    mem_.AttachSwap(swap_.get());
  }
  if (params.mount_procfs) {
    procfs_ = std::make_unique<obs::Procfs>(
        vfs_, [this] { return SnapshotProcs(); }, [this] { return SnapshotGroups(); });
    // The lockdep validator's report surface. obs/ sits below sync/ in the
    // dependency order, so the wiring happens here at the top of the stack.
    procfs_->AddRootFile("lockdep", [] { return lockdep::RenderReport(); });
  }
}

std::vector<obs::ProcStatus> Kernel::SnapshotProcs() {
  // Pid -> group id, from the blocks' member chains (blocks_mu_ then each
  // block's list lock, matching the PR_JOINGROUP lock order).
  std::map<pid_t, u64> groups;
  {
    std::lock_guard<std::mutex> l(blocks_mu_);
    for (const auto& [raw, owned] : blocks_) {
      owned->ForEachMember([&](Proc& m) { groups[m.pid] = owned->id(); });
    }
  }
  std::vector<obs::ProcStatus> out;
  procs_.ForEach([&](Proc& q) {
    obs::ProcStatus s;
    s.pid = q.pid;
    s.ppid = q.ppid.load(std::memory_order_relaxed);
    switch (q.state.load(std::memory_order_acquire)) {
      case ProcState::kEmbryo: s.state = 'E'; break;
      case ProcState::kActive: s.state = 'A'; break;
      case ProcState::kZombie: s.state = 'Z'; break;
    }
    s.uid = q.uid;
    s.gid = q.gid;
    s.shmask = q.p_shmask;
    auto it = groups.find(q.pid);
    s.group = it == groups.end() ? -1 : static_cast<i64>(it->second);
    s.syscalls = q.syscalls.load(std::memory_order_relaxed);
    out.push_back(s);
  });
  obs::Stats::Global().gauge("procs.live").Set(static_cast<i64>(out.size()));
  return out;
}

std::vector<obs::GroupStatus> Kernel::SnapshotGroups() {
  std::vector<obs::GroupStatus> out;
  {
    std::lock_guard<std::mutex> l(blocks_mu_);
    for (const auto& [raw, owned] : blocks_) {
      obs::GroupStatus g;
      g.id = owned->id();
      g.refcnt = owned->refcnt();
      owned->ForEachMember([&](Proc& m) { g.members.push_back(m.pid); });
      const UpdateLock& lk = owned->space().lock();
      g.lock_updates = lk.updates();
      g.lock_update_waits = lk.update_waits();
      g.lock_update_wait_count = lk.update_wait_histo().count();
      g.lock_update_wait_sum_ns = lk.update_wait_histo().sum_ns();
      g.ofiles = owned->OfileCount();
      rm::GroupNode* node = owned->rm_node();
      g.rm_shares = node->shares();
      g.rm_usage_ns = static_cast<u64>(node->DecayedUsage());
      for (u32 i = 0; i < rm::kNumResources; ++i) {
        g.rm_cap[i] = node->cap(static_cast<rm::Resource>(i));
        g.rm_used[i] = node->used(static_cast<rm::Resource>(i));
      }
      out.push_back(std::move(g));
    }
  }
  obs::Stats::Global().gauge("blocks.live").Set(static_cast<i64>(out.size()));
  return out;
}

Kernel::~Kernel() { WaitAll(); }

void Kernel::SyscallEnter(Proc& p) {
  p.syscalls.fetch_add(1, std::memory_order_relaxed);
  SG_OBS_INC("sys.entries");
  // §6.3: one compare of the block's summary generation with our cached
  // one; the slow path runs only when some member changed a shared
  // resource since our last entry.
  if (ShaddrBlock* b = p.shaddr; b != nullptr) {
    b->SyncOnKernelEntry(p);
  }
  // §8 PR_BLOCKGROUP: a suspended member parks here until resumed (or a
  // signal arrives — it is delivered right below, like for any entry).
  if (p.suspended.load(std::memory_order_acquire)) {
    bool slept = false;
    {
      std::unique_lock<std::mutex> l(p.wait_mu);
      Status st = BlockOn(p.wait_cv, l, SleepMode::kInterruptible, &slept,
                          [&] { return !p.suspended.load(std::memory_order_acquire); });
      (void)st;
    }
    FinishSleep(slept);
  }
  DeliverPendingSignals(p);
}

void Kernel::SyscallExit(Proc& p) { DeliverPendingSignals(p); }

// ----- process threads -----

void Kernel::StartProcThread(Proc* c, UserFn fn, long arg) {
  c->entry = [this, c, fn = std::move(fn), arg] {
    Env env(*this, *c);
    fn(env, arg);
  };
  c->thread = std::thread([this, c] { ProcMain(c); });
}

void Kernel::ProcMain(Proc* p) {
  SetCurrentExecutionContext(p);
  obs::CurrentTraceContext().pid = p->pid;
  p->AcquireCpuInitial();
  p->state.store(ProcState::kActive, std::memory_order_release);
  int status = 0;
  int signal = 0;
  try {
    p->entry();  // returning normally is exit(0)
  } catch (const ProcTerminated& t) {
    status = t.status;
    signal = t.signal;
  }
  TerminateProcess(*p, status, signal);
  SetCurrentExecutionContext(nullptr);
  obs::CurrentTraceContext().pid = 0;
}

void Kernel::TerminateProcess(Proc& p, int status, int signal) {
  p.exit_status = status;
  p.term_signal = signal;
  obs::Trace(obs::TraceKind::kProcExit, static_cast<u64>(status), static_cast<u64>(signal));

  ReleaseUArea(p);

  if (p.shaddr != nullptr) {
    SG_INJECT_POINT("kernel.exit.pre_detach");
    LeaveGroup(p);
    SG_INJECT_POINT("kernel.exit.post_detach");
  }
  p.as.DetachAllPrivate();

  // Tree surgery under the reap lock (lock order: reap_mu_ -> table). The
  // invariant this buys: while any terminating child holds reap_mu_ and
  // sees a nonzero ppid, that parent has not finished ITS terminate (which
  // reparents under the same lock), so the parent cannot have been reaped
  // and freed — the SIGCHLD kick below cannot dangle.
  {
    std::lock_guard<std::mutex> l(reap_mu_);
    procs_.ForEach([&](Proc& q) {
      if (&q != &p && q.ppid.load(std::memory_order_relaxed) == p.pid) {
        q.ppid.store(0, std::memory_order_relaxed);  // orphans go to the kernel
      }
    });
    p.state.store(ProcState::kZombie, std::memory_order_release);
    const pid_t ppid = p.ppid.load(std::memory_order_relaxed);
    if (ppid != 0) {
      procs_.WithProc(ppid,
                      [this](Proc& parent) { parent.PostSignal(kSigChld, &reap_mu_); });
    }
  }
  reap_cv_.notify_all();
  p.ReleaseCpuFinal();
}

void Kernel::LeaveGroup(Proc& p) {
  ShaddrBlock* b = p.shaddr;
  if (b->RemoveMember(p)) {
    std::lock_guard<std::mutex> l(blocks_mu_);
    blocks_.erase(b);
  }
}

void Kernel::ReleaseUArea(Proc& p) {
  for (int fd = 0; fd < FdTable::kMaxFds; ++fd) {
    if (auto f = p.fds.ClearSlot(fd); f.ok()) {
      vfs_.files().Release(f.value());
    }
  }
  if (p.cwd != nullptr) {
    Iput(p.cwd);
    p.cwd = nullptr;
  }
  if (p.rootdir != nullptr) {
    Iput(p.rootdir);
    p.rootdir = nullptr;
  }
}

WaitResult Kernel::Reap(Proc* z) {
  SG_CHECK(z->state.load(std::memory_order_acquire) == ProcState::kZombie);
  if (z->thread.joinable()) {
    z->thread.join();
  }
  WaitResult r{z->pid, z->exit_status, z->term_signal};
  procs_.Free(z);
  return r;
}

Result<pid_t> Kernel::Launch(UserFn main, long arg) {
  auto alloc = procs_.Alloc();
  if (!alloc.ok()) {
    return alloc.error();
  }
  Proc* p = alloc.value();
  p->ppid.store(0, std::memory_order_relaxed);
  p->cwd = Iget(vfs_.root());
  p->rootdir = Iget(vfs_.root());
  Image img;
  img.main = nullptr;  // entry supplied separately below
  Status st = BuildImage(*p, img);
  if (!st.ok()) {
    AbortEmbryo(p);  // drops the cwd and root references too
    return st.error();
  }
  StartProcThread(p, std::move(main), arg);
  return p->pid;
}

void Kernel::WaitAll() {
  std::unique_lock<std::mutex> l(reap_mu_);
  for (;;) {
    std::vector<Proc*> zombies;
    bool any_left = false;
    procs_.ForEach([&](Proc& q) {
      any_left = true;
      if (q.ppid.load(std::memory_order_relaxed) == 0 &&
          q.state.load(std::memory_order_acquire) == ProcState::kZombie) {
        zombies.push_back(&q);
      }
    });
    if (!zombies.empty()) {
      l.unlock();
      for (Proc* z : zombies) {
        Reap(z);
      }
      l.lock();
      continue;
    }
    if (!any_left) {
      return;
    }
    reap_cv_.wait(l);
  }
}

u64 Kernel::LiveBlocks() const {
  std::lock_guard<std::mutex> l(blocks_mu_);
  return blocks_.size();
}

// ----- wait(2) / exit(2) / signals -----

void Kernel::Exit(Proc& p, int status) {
  (void)p;
  throw ProcTerminated{status, 0};
}

Result<WaitResult> Kernel::Wait(Proc& p) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("wait");
  Proc* zombie = nullptr;
  bool have_children = false;
  // The scan runs while holding reap_mu_ (the BlockOn mutex); ForEach adds
  // the table lock inside it, so scanned procs cannot be freed mid-scan.
  auto scan = [&] {
    zombie = nullptr;
    have_children = false;
    procs_.ForEach([&](Proc& q) {
      if (q.ppid.load(std::memory_order_relaxed) == p.pid) {
        have_children = true;
        if (zombie == nullptr &&
            q.state.load(std::memory_order_acquire) == ProcState::kZombie) {
          zombie = &q;
        }
      }
    });
    return zombie != nullptr || !have_children;
  };
  bool slept = false;
  Status st = Status::Ok();
  {
    std::unique_lock<std::mutex> l(reap_mu_);
    st = BlockOn(reap_cv_, l, SleepMode::kInterruptible, &slept, scan);
  }
  FinishSleep(slept);
  if (!st.ok()) {
    SyscallExit(p);  // typically delivers the interrupting signal
    return st.error();
  }
  if (zombie == nullptr) {
    SyscallExit(p);
    return Errno::kECHILD;
  }
  WaitResult r = Reap(zombie);
  SyscallExit(p);
  return r;
}

Status Kernel::Kill(Proc& p, pid_t target, int sig) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("kill");
  if (!ValidSignal(sig)) {
    SyscallExit(p);
    return Errno::kEINVAL;
  }
  Status st = Errno::kESRCH;
  {
    // reap_mu_ first (lock order reap_mu_ -> table): the target may be
    // sleeping in wait(2) with reap_mu_ registered as its wakeup mutex.
    std::lock_guard<std::mutex> rl(reap_mu_);
    procs_.WithProc(target, [&](Proc& t) {
      // t.uid is owner-written (under the share block's update lock when
      // shared); this cross-thread read can at worst observe a just-changed
      // identity — the same TOCTOU window a real kernel's kill(2) has.
      if (p.uid != 0 && p.uid != t.uid) {
        st = Errno::kEPERM;
        return;
      }
      t.PostSignal(sig, &reap_mu_);
      st = Status::Ok();
    });
  }
  SyscallExit(p);
  return st;
}

Status Kernel::Sigaction(Proc& p, int sig, SigDisp disp, std::function<void(int)> handler) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("sigaction");
  Status st = Status::Ok();
  if (!ValidSignal(sig) || sig == kSigKill) {
    st = Errno::kEINVAL;  // SIGKILL cannot be caught or ignored
  } else {
    MutexGuard l(p.sig_mu);
    p.sig_actions[static_cast<u32>(sig)] = SigAction{disp, std::move(handler)};
  }
  SyscallExit(p);
  return st;
}

Result<u32> Kernel::Sigsetmask(Proc& p, u32 mask) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("sigsetmask");
  const u32 old = p.sig_blocked.exchange(mask & ~SigBit(kSigKill), std::memory_order_acq_rel);
  SyscallExit(p);
  return old;
}

Status Kernel::Pause(Proc& p) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("pause");
  bool slept = false;
  {
    std::unique_lock<std::mutex> l(p.wait_mu);
    // Sleeps until a signal makes BlockOn return kEINTR.
    Status st = BlockOn(p.wait_cv, l, SleepMode::kInterruptible, &slept, [] { return false; });
    (void)st;
  }
  FinishSleep(slept);
  SyscallExit(p);  // deliver what woke us
  return Errno::kEINTR;
}

Status Kernel::Sigpause(Proc& p) {
  const u64 before = p.sig_delivered.load(std::memory_order_acquire);
  SyscallEnter(p);  // delivers anything already pending
  if (p.sig_delivered.load(std::memory_order_acquire) != before) {
    SyscallExit(p);
    return Errno::kEINTR;  // the signal beat us to the sleep: no race
  }
  bool slept = false;
  {
    std::unique_lock<std::mutex> l(p.wait_mu);
    Status st = BlockOn(p.wait_cv, l, SleepMode::kInterruptible, &slept, [] { return false; });
    (void)st;
  }
  FinishSleep(slept);
  SyscallExit(p);
  return Errno::kEINTR;
}

void Kernel::Yield(Proc& p) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("yield");
  p.YieldCpu();
  SyscallExit(p);
}

}  // namespace sg
