// Process creation and the paper's sproc(2)/prctl(2) interface (§5), plus
// the identity/limit syscalls whose values share groups can propagate.
#include <limits>

#include "api/kernel.h"
#include "obs/stats.h"
#include "api/user_env.h"
#include "base/check.h"
#include "inject/inject.h"
#include "vm/access.h"

namespace sg {

void Kernel::CreatePrda(AddressSpace& as, PhysMem& mem) {
  // §5.1: "a small amount of memory (typically less than a page in size)
  // which records data which must remain private to the process, and is
  // always at the same fixed virtual location in every process, allowing
  // shared code to access private data."
  auto region = Region::Alloc(mem, RegionType::kPrda, 1);
  as.AttachPrivate(std::make_unique<Pregion>(std::move(region), kPrdaBase, kProtRw));
}

Status Kernel::AllocStack(Proc& p, bool shared_stack) {
  if (SG_INJECT_FAULT("alloc.stack")) {
    return Errno::kENOMEM;  // injected: out of stack VA/frames
  }
  const u64 pages = p.stack_max_pages;
  if (shared_stack) {
    ShaddrBlock* b = p.shaddr;
    SG_CHECK(b != nullptr);
    SharedSpace& ss = b->space();
    // §6.2: sproc "allocates a new stack segment in a non-overlapping
    // region of the parent's virtual address space"; the list change is a
    // VM-image update.
    UpdateGuard g(ss.lock());
    auto base = ss.va().AllocDown(pages);
    if (!base.ok()) {
      return base.error();
    }
    auto pr = std::make_unique<Pregion>(Region::Alloc(mem_, RegionType::kStack, pages),
                                        base.value(), kProtRw);
    pr->stack_owner = p.pid;
    // AttachPregion charges the stack's resident pages to the group's page
    // cap from the first fault on, and publishes the layout change to the
    // lockless fault path.
    ss.AttachPregion(std::move(pr));
    p.stack_base = base.value();
    return Status::Ok();
  }
  auto base = p.as.va().AllocDown(pages);
  if (!base.ok()) {
    return base.error();
  }
  auto pr = std::make_unique<Pregion>(Region::Alloc(mem_, RegionType::kStack, pages),
                                      base.value(), kProtRw);
  pr->stack_owner = p.pid;
  p.as.AttachPrivate(std::move(pr));
  p.stack_base = base.value();
  return Status::Ok();
}

Status Kernel::BuildImage(Proc& p, const Image& img) {
  const u64 text_pages = std::max<u64>(std::max<u64>(img.text_pages, 1),
                                       PagesFor(img.text.size()));
  auto text = Region::Alloc(mem_, RegionType::kText, text_pages);
  if (!img.text.empty()) {
    SG_RETURN_IF_ERROR(text->FillFrom(0, img.text));
  }
  p.as.AttachPrivate(std::make_unique<Pregion>(std::move(text), kTextBase, kProtRx));

  const u64 data_pages =
      std::max<u64>(PagesFor(img.data.size()) + img.extra_data_pages, params_.initial_data_pages);
  auto data = Region::Alloc(mem_, RegionType::kData, data_pages);
  if (!img.data.empty()) {
    SG_RETURN_IF_ERROR(data->FillFrom(0, img.data));
  }
  p.as.AttachPrivate(std::make_unique<Pregion>(std::move(data), kDataBase, kProtRw));

  CreatePrda(p.as, mem_);
  return AllocStack(p, /*shared_stack=*/false);
}

void Kernel::InheritUArea(Proc& parent, Proc& child) {
  child.uid = parent.uid.load(std::memory_order_relaxed);
  child.gid = parent.gid.load(std::memory_order_relaxed);
  child.umask = parent.umask;
  child.ulimit = parent.ulimit;
  child.stack_max_pages = parent.stack_max_pages;  // PR_SETSTACKSIZE inherits (§5.2)
  child.priority.store(parent.priority.load(std::memory_order_relaxed), std::memory_order_relaxed);
  child.cwd = Iget(parent.cwd);
  child.rootdir = Iget(parent.rootdir);
  for (int fd = 0; fd < FdTable::kMaxFds; ++fd) {
    const FdEntry& e = parent.fds.Slot(fd);
    if (e.used()) {
      SG_CHECK(child.fds.SetSlot(fd, vfs_.files().Hold(e.file), e.close_on_exec).ok());
    }
  }
  MutexGuard l(parent.sig_mu);
  // The child is an embryo (host thread not started), so its mutex is free;
  // holding it anyway keeps the write analyzable.
  MutexGuard lc(child.sig_mu);
  child.sig_actions = parent.sig_actions;
  child.sig_blocked.store(parent.sig_blocked.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
}

void Kernel::AbortEmbryo(Proc* c) {
  ReleaseUArea(*c);
  c->as.DetachAllPrivate();
  procs_.Free(c);
}

Result<pid_t> Kernel::Fork(Proc& p, UserFn entry, long arg) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("fork");
  auto alloc = procs_.Alloc();
  if (!alloc.ok()) {
    SyscallExit(p);
    return alloc.error();
  }
  Proc* c = alloc.value();
  c->ppid.store(p.pid, std::memory_order_relaxed);
  InheritUArea(p, *c);
  // §5.1: "A new process may be created outside the share group through the
  // fork(2) system call" — the child gets a copy-on-write image (including
  // any group-visible stacks) and is NOT a member.
  Status st = DuplicateForFork(p.as, c->as);
  if (!st.ok()) {
    AbortEmbryo(c);
    SyscallExit(p);
    return st.error();
  }
  c->stack_base = p.stack_base;  // the child runs on its COW copy of our stack
  StartProcThread(c, std::move(entry), arg);
  SyscallExit(p);
  return c->pid;
}

Result<pid_t> Kernel::Sproc(Proc& p, UserFn entry, u32 shmask, long arg) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("sproc");
  const bool priv_data = (shmask & PR_PRIVDATA) != 0;  // §8 extension
  shmask &= PR_SALL;
  // §5.1 strict inheritance: "a process can only cause a child to share
  // those resources that the parent can share as well".
  if (p.shaddr != nullptr) {
    shmask &= p.p_shmask;
  }
  // "The first use of the sproc() call creates a share group."
  if (p.shaddr == nullptr) {
    auto block = std::make_unique<ShaddrBlock>(p, cpus_, vfs_, rm_);
    std::lock_guard<std::mutex> l(blocks_mu_);
    blocks_.emplace(block.get(), std::move(block));
  }
  ShaddrBlock* block = p.shaddr;
  SG_INJECT_POINT("kernel.sproc.pre_attach");

  if (SG_INJECT_FAULT("sproc.alloc")) {
    SyscallExit(p);
    return Errno::kEAGAIN;  // injected: process table pressure
  }
  // Admission control (src/rm/): the member cap is charged before the child
  // exists; every path below on which the child never attaches uncharges.
  // (RemoveMember owns the uncharge once the child IS attached.)
  if (SG_INJECT_FAULT("rm.cap.members") ||
      !block->rm_node()->TryCharge(rm::Resource::kMembers, 1)) {
    SyscallExit(p);
    return Errno::kEAGAIN;  // group at its member cap
  }
  auto alloc = procs_.Alloc();
  if (!alloc.ok()) {
    block->rm_node()->Uncharge(rm::Resource::kMembers, 1);
    SyscallExit(p);
    return alloc.error();
  }
  Proc* c = alloc.value();
  c->ppid.store(p.pid, std::memory_order_relaxed);
  InheritUArea(p, *c);

  Status st = Status::Ok();
  if ((shmask & PR_SADDR) != 0) {
    // Shared image: the child sees the group's pregion list; only its PRDA
    // is private, and it gets a fresh group-visible stack.
    block->AddMember(*c, shmask);
    CreatePrda(c->as, mem_);
    st = AllocStack(*c, /*shared_stack=*/true);
    if (st.ok() && priv_data) {
      // §8: "share part of the VM image and have copy-on-write access to
      // other parts" — the data region becomes a private COW shadow.
      st = block->ShadowDataPrivately(*c);
    }
  } else {
    // "If the virtual address space is not shared, the new process gets a
    // copy-on-write image of the share group virtual address space. In this
    // case, the new stack is not visible in the share group."
    st = DuplicateForFork(p.as, c->as);
    if (st.ok()) {
      st = AllocStack(*c, /*shared_stack=*/false);
    }
    if (st.ok()) {
      block->AddMember(*c, shmask);
    }
  }
  if (!st.ok()) {
    if (c->shaddr != nullptr) {
      LeaveGroup(*c);  // RemoveMember returns the charged member slot
    } else {
      // The child never attached; return its admission charge ourselves.
      block->rm_node()->Uncharge(rm::Resource::kMembers, 1);
    }
    AbortEmbryo(c);
    SyscallExit(p);
    return st.error();
  }

  // The child's u-area was copied from the parent outside the update locks,
  // so the child is exactly as stale as the parent: seed its generation
  // cache from the parent's and the ordinary delta sync pulls, on the
  // child's first kernel entry, exactly what the parent itself would have
  // pulled (strict inheritance means the child shares nothing the parent
  // doesn't).
  c->p_sync = p.p_sync;
  SG_INJECT_POINT("kernel.sproc.post_attach");

  StartProcThread(c, std::move(entry), arg);
  SyscallExit(p);
  return c->pid;
}

Result<i64> Kernel::Prctl(Proc& p, u32 option, i64 value) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("prctl");
  Result<i64> r = Errno::kEINVAL;
  switch (option) {
    case PR_MAXPROCS:
      r = static_cast<i64>(procs_.max_procs());
      break;
    case PR_MAXPPROCS:
      // "the number of processes that the system can run in parallel".
      r = static_cast<i64>(cpus_.ncpus());
      break;
    case PR_SETSTACKSIZE: {
      if (value <= 0) {
        break;
      }
      u64 pages = PagesFor(static_cast<u64>(value));
      if (pages > kMaxStackMaxPages) {
        pages = kMaxStackMaxPages;
      }
      p.stack_max_pages = pages;  // layout of future sproc stacks (§5.2)
      r = static_cast<i64>(pages * kPageSize);
      break;
    }
    case PR_GETSTACKSIZE:
      r = static_cast<i64>(p.stack_max_pages * kPageSize);
      break;
    case PR_SETGROUPPRI: {
      // §8 extension: group-wide scheduling control through the share block.
      if (p.shaddr == nullptr) {
        break;
      }
      i64 members = 0;
      p.shaddr->ForEachMember([&](Proc& m) {
        m.priority.store(static_cast<int>(value), std::memory_order_relaxed);
        ++members;
      });
      r = members;
      break;
    }
    case PR_UNSHARE: {
      // §8 extension: stop sharing the resources in `value`.
      if (p.shaddr == nullptr) {
        break;
      }
      const u32 drop = static_cast<u32>(value) & PR_SALL & p.p_shmask;
      Status st = Status::Ok();
      if ((drop & PR_SADDR) != 0) {
        st = p.shaddr->UnshareVm(p);  // clears PR_SADDR itself
      }
      if (st.ok()) {
        p.p_shmask &= ~(drop & ~PR_SADDR);
        r = static_cast<i64>(p.p_shmask);
      } else {
        r = st.error();
      }
      break;
    }
    case PR_BLOCKGROUP: {
      // §8 extension: suspend every OTHER member at its next kernel entry.
      if (p.shaddr == nullptr) {
        break;
      }
      i64 affected = 0;
      p.shaddr->ForEachMember([&](Proc& m) {
        if (&m != &p) {
          m.suspended.store(true, std::memory_order_release);
          ++affected;
        }
      });
      r = affected;
      break;
    }
    case PR_UNBLKGROUP: {
      if (p.shaddr == nullptr) {
        break;
      }
      i64 affected = 0;
      p.shaddr->ForEachMember([&](Proc& m) {
        if (&m != &p && m.suspended.exchange(false, std::memory_order_acq_rel)) {
          ++affected;
          // Serialize with a parker mid-wait, then wake it.
          {
            std::lock_guard<std::mutex> l(m.wait_mu);
          }
          m.wait_cv.notify_all();
        }
      });
      r = affected;
      break;
    }
    case PR_JOINGROUP: {
      // §8 extension: join `value`'s group for the non-VM resources.
      if (p.shaddr != nullptr) {
        break;  // already in a group
      }
      Result<i64> join_result = Errno::kESRCH;
      {
        std::lock_guard<std::mutex> bl(blocks_mu_);
        procs_.WithProc(static_cast<pid_t>(value), [&](Proc& t) {
          if (p.uid != 0 && p.uid != t.uid) {
            join_result = Errno::kEPERM;
            return;
          }
          ShaddrBlock* b = t.shaddr;
          if (b == nullptr || blocks_.find(b) == blocks_.end()) {
            return;  // target not in a (live) group
          }
          constexpr u32 kJoinMask = PR_SALL & ~PR_SADDR;
          // Same admission seam as sproc: the joiner is charged against the
          // member cap before it can attach.
          if (SG_INJECT_FAULT("rm.cap.members") ||
              !b->rm_node()->TryCharge(rm::Resource::kMembers, 1)) {
            join_result = Errno::kEAGAIN;
            return;
          }
          if (!b->TryAddMember(p, kJoinMask)) {
            b->rm_node()->Uncharge(rm::Resource::kMembers, 1);
            return;  // the group drained under us
          }
          join_result = static_cast<i64>(kJoinMask);
        });
      }
      if (join_result.ok()) {
        // TryAddMember zeroed our generation cache: pull every master copy
        // at this very entry's tail.
        p.shaddr->SyncOnKernelEntry(p);
      }
      r = join_result;
      break;
    }
    case PR_SETSHARES: {
      // Fair-share weight of the caller's group (src/rm/). Returns the
      // shares now in effect (the manager clamps 0 to 1).
      if (p.shaddr == nullptr || value < 0 ||
          value > static_cast<i64>(std::numeric_limits<u32>::max())) {
        break;
      }
      r = static_cast<i64>(p.shaddr->rm_node()->SetShares(static_cast<u32>(value)));
      break;
    }
    case PR_SETRCAP: {
      // Per-group capacity cap; value packs (resource, cap) — see
      // share_mask.h. Returns the cap now in effect (0 = unlimited).
      if (p.shaddr == nullptr || value < 0) {
        break;
      }
      // The selectors are the rm::Resource values plus PR_RCAP_MEMBERS.
      static_assert(static_cast<u32>(rm::Resource::kMembers) == 0);
      static_assert(PR_RCAP_FILES - PR_RCAP_MEMBERS == static_cast<u32>(rm::Resource::kFiles));
      static_assert(PR_RCAP_PAGES - PR_RCAP_MEMBERS == static_cast<u32>(rm::Resource::kPages));
      static_assert(PR_RCAP_PAGES - PR_RCAP_MEMBERS + 1 == rm::kNumResources);
      const u32 res = PrRcapResource(value) - PR_RCAP_MEMBERS;  // selector 0 wraps
      if (res >= rm::kNumResources) {
        break;  // unknown resource selector
      }
      const u64 cap = PrRcapCap(value);
      p.shaddr->rm_node()->SetCap(static_cast<rm::Resource>(res), cap);
      r = static_cast<i64>(cap);
      break;
    }
    default:
      break;
  }
  SyscallExit(p);
  return r;
}

Status Kernel::Exec(Proc& p, const Image& img, long arg) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("exec");
  if (!img.main) {
    SyscallExit(p);
    return Errno::kEINVAL;
  }
  // §5.1: "use of the exec(2) system call removes the process from the
  // share group before overlaying the new process image, thus insuring a
  // secure environment for the new program image."
  if (p.shaddr != nullptr) {
    SG_INJECT_POINT("kernel.exec.pre_detach");
    LeaveGroup(p);
    SG_INJECT_POINT("kernel.exec.post_detach");
  }
  // Close close-on-exec descriptors (ours only; we are no longer sharing).
  for (int fd = 0; fd < FdTable::kMaxFds; ++fd) {
    if (p.fds.Slot(fd).used() && p.fds.Slot(fd).close_on_exec) {
      vfs_.files().Release(p.fds.ClearSlot(fd).value());
    }
  }
  // Overlay the image.
  p.as.DetachAllPrivate();
  p.as.ResetVa();
  Status st = BuildImage(p, img);
  if (!st.ok()) {
    // The old image is gone; a real kernel kills the process here.
    throw ProcTerminated{0, kSigKill};
  }
  // Caught signals revert to default across exec.
  {
    MutexGuard l(p.sig_mu);
    for (SigAction& a : p.sig_actions) {
      if (a.disp == SigDisp::kHandler) {
        a = SigAction{};
      }
    }
  }
  Env env(*this, p);
  img.main(env, arg);
  throw ProcTerminated{0, 0};  // the new image's main returned
}

// ----- identity / limits -----

Status Kernel::Setuid(Proc& p, uid_t uid) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("setuid");
  Status st = Status::Ok();
  if (p.uid != 0 && uid != p.uid) {
    st = Errno::kEPERM;
  } else {
    ChangeScalar(p, kResIds, [uid](Proc& q) { q.uid = uid; });
  }
  SyscallExit(p);
  return st;
}

Status Kernel::Setgid(Proc& p, gid_t gid) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("setgid");
  Status st = Status::Ok();
  if (p.uid != 0 && gid != p.gid) {
    st = Errno::kEPERM;
  } else {
    ChangeScalar(p, kResIds, [gid](Proc& q) { q.gid = gid; });
  }
  SyscallExit(p);
  return st;
}

Result<mode_t> Kernel::Umask(Proc& p, mode_t mask) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("umask");
  const mode_t old = p.umask;
  ChangeScalar(p, kResUmask, [mask](Proc& q) { q.umask = static_cast<mode_t>(mask & kModeAll); });
  SyscallExit(p);
  return old;
}

Result<u64> Kernel::UlimitGet(Proc& p) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("ulimitget");
  const u64 v = p.ulimit;
  SyscallExit(p);
  return v;
}

Status Kernel::UlimitSet(Proc& p, u64 bytes) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("ulimitset");
  Status st = Status::Ok();
  if (bytes > p.ulimit && p.uid != 0) {
    st = Errno::kEPERM;  // only the superuser may raise the limit
  } else {
    ChangeScalar(p, kResUlimit, [bytes](Proc& q) { q.ulimit = bytes; });
  }
  SyscallExit(p);
  return st;
}

}  // namespace sg
