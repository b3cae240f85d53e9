// VM syscalls and System V IPC wrappers.
#include <optional>

#include "api/kernel.h"
#include "obs/stats.h"
#include "vm/access.h"
#include "vm/page_source.h"

namespace sg {

namespace {

// Adapts an inode to the vm layer's backing-store interface, holding a
// counted reference for the mapping's lifetime.
class InodePageSource final : public PageSource {
 public:
  explicit InodePageSource(Inode* ip) : ip_(Iget(ip)) {}
  ~InodePageSource() override { Iput(ip_); }

  void ReadPage(u64 off, std::byte* dst) override { ip_->ReadAt(off, dst, kPageSize); }
  void WritePage(u64 off, const std::byte* src, u64 len) override {
    // Kernel writeback bypasses the caller's ulimit (the data already
    // passed the limit check when the mapping length was established).
    ip_->WriteAt(off, src, len, ~u64{0});
  }

 private:
  Inode* ip_;
};

}  // namespace

Result<vaddr_t> Kernel::Sbrk(Proc& p, i64 delta) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("sbrk");
  auto r = sg::Sbrk(p.as, delta);
  SyscallExit(p);
  return r;
}

Result<vaddr_t> Kernel::Mmap(Proc& p, u64 bytes, u32 prot) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("mmap");
  auto r = MapAnon(p.as, bytes, prot);
  SyscallExit(p);
  return r;
}

Status Kernel::Munmap(Proc& p, vaddr_t base) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("munmap");
  Status st = Unmap(p.as, base);
  SyscallExit(p);
  return st;
}

Result<vaddr_t> Kernel::MapFile(Proc& p, int fd, u64 offset, u64 len, bool shared_mapping) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("mapfile");
  Result<vaddr_t> r = Errno::kEBADF;
  auto fr = p.fds.Get(fd);
  if (!fr.ok()) {
    r = fr.error();
  } else if (len == 0 || (offset & kPageMask) != 0) {
    r = Errno::kEINVAL;
  } else {
    OpenFile* f = fr.value();
    if (f->inode()->type() != InodeType::kRegular) {
      r = Errno::kEINVAL;
    } else if (!f->readable() || (shared_mapping && !f->writable())) {
      // A shared mapping writes back, so the descriptor must allow it.
      r = Errno::kEACCES;
    } else {
      auto source = std::make_shared<InodePageSource>(f->inode());
      auto region = Region::AllocBacked(mem_, PagesFor(len), std::move(source), offset, len,
                                        shared_mapping);
      r = AttachRegion(p.as, std::move(region), kProtRw);
    }
  }
  SyscallExit(p);
  return r;
}

Status Kernel::Msync(Proc& p, vaddr_t base) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("msync");
  Status st = Errno::kEINVAL;
  // Pin the region under the lock, write it back OUTSIDE: WriteBack is
  // blocking I/O, and holding the lock across it would stall every VM
  // updater (sbrk, mmap, sproc stack attach) behind one msync.
  // The shared_ptr keeps the region alive if the mapping is unmapped
  // concurrently; the worst case is a redundant writeback of data munmap
  // already flushed, never a lost or dangling one.
  std::shared_ptr<Region> target;
  {
    SharedSpace* ss = p.as.shared();
    std::optional<UpdateGuard> guard;
    if (ss != nullptr) {
      guard.emplace(ss->lock());
    }
    Pregion* pr = p.as.FindPregion(base);
    if (pr != nullptr && pr->base == base && pr->region->NeedsWriteBack()) {
      target = pr->region;
    }
  }
  if (target != nullptr) {
    st = target->WriteBack();
  }
  SyscallExit(p);
  return st;
}

// ----- System V IPC -----

Result<int> Kernel::Shmget(Proc& p, i32 key, u64 bytes) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("shmget");
  auto r = ipc_.ShmGet(key, bytes);
  SyscallExit(p);
  return r;
}

Result<vaddr_t> Kernel::Shmat(Proc& p, int shmid) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("shmat");
  Result<vaddr_t> r = Errno::kEIDRM;
  auto region = ipc_.ShmRegion(shmid);
  if (!region.ok()) {
    r = region.error();
  } else {
    r = AttachRegion(p.as, std::move(region).value(), kProtRw);
  }
  SyscallExit(p);
  return r;
}

Status Kernel::Shmdt(Proc& p, vaddr_t base) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("shmdt");
  Status st = Unmap(p.as, base);
  SyscallExit(p);
  return st;
}

Status Kernel::ShmRemove(Proc& p, int shmid) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("shmremove");
  Status st = ipc_.ShmRemove(shmid);
  SyscallExit(p);
  return st;
}

Result<int> Kernel::Semget(Proc& p, i32 key, i64 initial) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("semget");
  auto r = ipc_.SemGet(key, initial);
  SyscallExit(p);
  return r;
}

Status Kernel::SemOp(Proc& p, int semid, i64 delta) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("semop");
  Status st = Status::Ok();
  auto sem = ipc_.Sem(semid);
  if (!sem.ok()) {
    st = sem.status();
  } else {
    st = sem.value()->Op(delta);
  }
  SyscallExit(p);
  return st;
}

Status Kernel::SemRemove(Proc& p, int semid) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("semremove");
  Status st = ipc_.SemRemove(semid);
  SyscallExit(p);
  return st;
}

Result<int> Kernel::Msgget(Proc& p, i32 key) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("msgget");
  auto r = ipc_.MsgGet(key);
  SyscallExit(p);
  return r;
}

Status Kernel::Msgsnd(Proc& p, int msqid, std::span<const std::byte> msg) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("msgsnd");
  Status st = Status::Ok();
  auto q = ipc_.Msg(msqid);
  if (!q.ok()) {
    st = q.status();
  } else {
    st = q.value()->Send(msg);
  }
  SyscallExit(p);
  return st;
}

Result<u64> Kernel::Msgrcv(Proc& p, int msqid, std::span<std::byte> out) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("msgrcv");
  Result<u64> r = Errno::kEIDRM;
  auto q = ipc_.Msg(msqid);
  if (!q.ok()) {
    r = q.error();
  } else {
    r = q.value()->Receive(out);
  }
  SyscallExit(p);
  return r;
}

Status Kernel::MsgsndU(Proc& p, int msqid, vaddr_t msg, u64 len) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("msgsndu");
  Status st = Status::Ok();
  auto q = ipc_.Msg(msqid);
  if (!q.ok()) {
    st = q.status();
  } else {
    std::vector<std::byte> bounce(len);
    st = CopyIn(p.as, bounce.data(), msg, len);  // user -> kernel copy
    if (st.ok()) {
      st = q.value()->Send(bounce);
    }
  }
  SyscallExit(p);
  return st;
}

Result<u64> Kernel::MsgrcvU(Proc& p, int msqid, vaddr_t out, u64 cap) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("msgrcvu");
  Result<u64> r = Errno::kEIDRM;
  auto q = ipc_.Msg(msqid);
  if (!q.ok()) {
    r = q.error();
  } else {
    std::vector<std::byte> bounce(cap);
    r = q.value()->Receive(bounce);
    if (r.ok()) {
      Status st = CopyOut(p.as, out, bounce.data(), r.value());  // kernel -> user copy
      if (!st.ok()) {
        r = st.error();
      }
    }
  }
  SyscallExit(p);
  return r;
}

Status Kernel::MsgRemove(Proc& p, int msqid) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("msgremove");
  Status st = ipc_.MsgRemove(msqid);
  SyscallExit(p);
  return st;
}

}  // namespace sg
