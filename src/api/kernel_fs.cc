// Filesystem syscalls. Descriptor-table mutations follow the §6.3 protocol
// when the caller shares PR_SFDS: single-thread through s_fupdsema, pull
// what changed (the double-update check), modify, publish, release — so
// "when one of the processes in a group opens a file, the others will see
// the file as immediately available to them".
#include <algorithm>
#include <array>
#include <vector>

#include "api/kernel.h"
#include "base/check.h"
#include "base/thread_annotations.h"
#include "inject/inject.h"
#include "obs/stats.h"
#include "vm/access.h"

namespace sg {

namespace {

// Headroom check against the group's fd cap (src/rm/). Valid only inside the
// s_fupdsema bracket after the pull: there the rm node's kFiles `used` equals
// the master table's population, so `used + delta <= cap` is an exact
// admission test. The charge itself moves with PublishFds — this never
// charges, so no unwind is needed on later failure.
bool FdCapAllows(ShaddrBlock* b, u64 delta) {
  if (b == nullptr) {
    return true;  // private fd table: no group, no cap
  }
  if (SG_INJECT_FAULT("rm.cap.files")) {
    SG_OBS_INC("rm.cap.denied.files");
    return false;
  }
  rm::GroupNode* n = b->rm_node();
  const u64 cap = n->cap(rm::Resource::kFiles);
  if (cap == 0 || n->used(rm::Resource::kFiles) + delta <= cap) {
    return true;
  }
  SG_OBS_INC("rm.cap.denied.files");
  return false;
}

// The descriptor-update bracket, scoped: the constructor takes s_fupdsema
// and pulls, the destructor publishes and unlocks; a null block (the
// caller does not share PR_SFDS) makes both no-ops. Publishing is
// unconditional because PublishFds diffs the tables, so a failed call
// stamps nothing. Close the scope before SyscallExit: a signal handler run
// there may take the bracket itself.
//
// s_fupdsema is a spinlock, so the scope holds only the table edit: the
// file-system work comes before it, and a reference the call drops goes
// through Release(), which drops it after the unlock because a last
// reference's release may sleep.
//
// The bracket is conditional, which clang's thread-safety analysis cannot
// express, so the guard carries SG_NO_THREAD_SAFETY_ANALYSIS and the
// runtime lockdep validator covers the bracket ordering instead.
class FdUpdate {
 public:
  FdUpdate(FileTable& files, Proc& p, ShaddrBlock* b) SG_NO_THREAD_SAFETY_ANALYSIS
      : files_(files), p_(p), b_(b) {
    if (b_ != nullptr) {
      b_->LockFileUpdate();
      b_->PullFds(p_);
    }
  }
  ~FdUpdate() SG_NO_THREAD_SAFETY_ANALYSIS {
    if (b_ != nullptr) {
      b_->PublishFds(p_);
      b_->UnlockFileUpdate();
    }
    for (u32 i = 0; i < ndropped_; ++i) {
      files_.Release(dropped_[i]);
    }
  }
  FdUpdate(const FdUpdate&) = delete;
  FdUpdate& operator=(const FdUpdate&) = delete;

  ShaddrBlock* block() const { return b_; }

  // Drops one of the caller's references once the bracket is closed.
  void Release(OpenFile* f) {
    SG_CHECK(ndropped_ < dropped_.size());
    dropped_[ndropped_++] = f;
  }

 private:
  FileTable& files_;
  Proc& p_;
  ShaddrBlock* const b_;
  std::array<OpenFile*, 2> dropped_{};  // a refused pipe drops both ends
  u32 ndropped_ = 0;
};

}  // namespace

Result<int> Kernel::Open(Proc& p, std::string_view path, u32 flags, mode_t mode) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("open");
  // Linux's order: open the file, then take the table lock to install it.
  // A refused install (EAGAIN, EMFILE) leaves an O_CREAT file behind,
  // empty, and O_TRUNC waits until the descriptor exists.
  auto f = SG_INJECT_FAULT("open")
               ? Result<OpenFile*>(Errno::kENFILE)  // injected: file table full
               : vfs_.Open(p.cwd, p.rootdir, CredOf(p), path, flags, mode, p.umask);
  Result<int> result = Errno::kEAGAIN;
  if (!f.ok()) {
    result = f.error();
  } else {
    FdUpdate u(vfs_.files(), p, SharedBlock(p, PR_SFDS));
    if (FdCapAllows(u.block(), 1)) {
      result = p.fds.AllocSlot(f.value());
    }
    if (!result.ok()) {  // EAGAIN or EMFILE
      u.Release(f.value());
    }
  }
  if (result.ok()) {
    vfs_.TruncateOnOpen(*f.value());
  }
  SyscallExit(p);
  return result;
}

Status Kernel::Close(Proc& p, int fd) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("close");
  Status st = Status::Ok();
  {
    FdUpdate u(vfs_.files(), p, SharedBlock(p, PR_SFDS));
    auto f = p.fds.ClearSlot(fd);
    if (!f.ok()) {
      st = f.error();
    } else {
      u.Release(f.value());
    }
  }
  SyscallExit(p);
  return st;
}

Result<int> Kernel::Dup(Proc& p, int fd) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("dup");
  Result<int> result = Errno::kEBADF;
  {
    FdUpdate u(vfs_.files(), p, SharedBlock(p, PR_SFDS));
    auto f = p.fds.Get(fd);
    if (f.ok() && !FdCapAllows(u.block(), 1)) {
      result = Errno::kEAGAIN;
    } else if (f.ok()) {
      result = p.fds.AllocSlot(vfs_.files().Hold(f.value()));
      if (!result.ok()) {
        u.Release(f.value());
      }
    }
  }
  SyscallExit(p);
  return result;
}

Result<int> Kernel::Dup2(Proc& p, int fd, int newfd) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("dup2");
  Result<int> result = Errno::kEBADF;
  {
    FdUpdate u(vfs_.files(), p, SharedBlock(p, PR_SFDS));
    auto f = p.fds.Get(fd);
    if (f.ok() && p.fds.ValidFd(newfd)) {
      if (fd == newfd) {
        result = newfd;
      } else if (!p.fds.Slot(newfd).used() && !FdCapAllows(u.block(), 1)) {
        // Only a dup onto an EMPTY slot grows the table; replacing counts 0.
        result = Errno::kEAGAIN;
      } else {
        auto old = p.fds.ClearSlot(newfd);
        if (old.ok()) {
          u.Release(old.value());
        }
        // newfd was validated above, so the slot store cannot fail.
        SG_CHECK(p.fds.SetSlot(newfd, vfs_.files().Hold(f.value()), false).ok());
        result = newfd;
      }
    }
  }
  SyscallExit(p);
  return result;
}

Status Kernel::SetCloexec(Proc& p, int fd, bool on) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("setcloexec");
  Status st = Status::Ok();
  {
    FdUpdate u(vfs_.files(), p, SharedBlock(p, PR_SFDS));  // s_pofile mirrors the flag bytes too
    if (!p.fds.ValidFd(fd) || !p.fds.Slot(fd).used()) {
      st = Errno::kEBADF;
    } else {
      p.fds.Slot(fd).close_on_exec = on;
    }
  }
  SyscallExit(p);
  return st;
}

Result<bool> Kernel::GetCloexec(Proc& p, int fd) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("getcloexec");
  Result<bool> r = Errno::kEBADF;
  if (p.fds.ValidFd(fd) && p.fds.Slot(fd).used()) {
    r = p.fds.Slot(fd).close_on_exec;
  }
  SyscallExit(p);
  return r;
}

Result<std::pair<int, int>> Kernel::MakePipe(Proc& p) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("makepipe");
  auto made = vfs_.MakePipe();  // both ends exist before the bracket, as in Open
  Result<std::pair<int, int>> result = Errno::kEAGAIN;
  if (!made.ok()) {
    result = made.error();
  } else {
    auto [rd, wr] = made.value();
    FdUpdate u(vfs_.files(), p, SharedBlock(p, PR_SFDS));
    if (FdCapAllows(u.block(), 2)) {  // a pipe admits both ends or neither
      auto rfd = p.fds.AllocSlot(rd);
      auto wfd = rfd.ok() ? p.fds.AllocSlot(wr) : Result<int>(Errno::kEMFILE);
      if (wfd.ok()) {
        result = std::make_pair(rfd.value(), wfd.value());
      } else {
        if (rfd.ok()) {
          p.fds.ClearSlot(rfd.value()).value();
        }
        result = Errno::kEMFILE;
      }
    }
    if (!result.ok()) {
      u.Release(rd);
      u.Release(wr);
    }
  }
  SyscallExit(p);
  return result;
}

// ----- I/O -----

Result<u64> Kernel::Read(Proc& p, int fd, vaddr_t ubuf, u64 len) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("read");
  auto fr = p.fds.Get(fd);
  if (!fr.ok()) {
    SyscallExit(p);
    return fr.error();
  }
  OpenFile* f = fr.value();
  std::vector<std::byte> bounce(std::min<u64>(len, u64{64} << 10));
  u64 total = 0;
  Status err = Status::Ok();
  while (total < len) {
    const u64 chunk = std::min<u64>(len - total, bounce.size());
    auto r = vfs_.ReadFile(*f, bounce.data(), chunk);
    if (!r.ok()) {
      err = r.status();
      break;
    }
    if (r.value() == 0) {
      break;  // EOF
    }
    Status cs = CopyOut(p.as, ubuf + total, bounce.data(), r.value());
    if (!cs.ok()) {
      err = cs;
      break;
    }
    total += r.value();
    if (r.value() < chunk || f->inode()->type() == InodeType::kPipe) {
      break;  // short read; pipes return what is available
    }
  }
  SyscallExit(p);
  if (total == 0 && !err.ok()) {
    return err.error();
  }
  return total;
}

Result<u64> Kernel::Write(Proc& p, int fd, vaddr_t ubuf, u64 len) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("write");
  auto fr = p.fds.Get(fd);
  if (!fr.ok()) {
    SyscallExit(p);
    return fr.error();
  }
  OpenFile* f = fr.value();
  std::vector<std::byte> bounce(std::min<u64>(len, u64{64} << 10));
  u64 total = 0;
  Status err = Status::Ok();
  while (total < len) {
    const u64 chunk = std::min<u64>(len - total, bounce.size());
    Status cs = CopyIn(p.as, bounce.data(), ubuf + total, chunk);
    if (!cs.ok()) {
      err = cs;
      break;
    }
    auto w = vfs_.WriteFile(*f, bounce.data(), chunk, p.ulimit);
    if (!w.ok()) {
      err = w.status();
      break;
    }
    total += w.value();
    if (w.value() < chunk) {
      break;
    }
  }
  if (err.error() == Errno::kEPIPE) {
    p.PostSignal(kSigPipe);  // classic: EPIPE comes with SIGPIPE
  }
  SyscallExit(p);
  if (total == 0 && !err.ok()) {
    return err.error();
  }
  return total;
}

Result<u64> Kernel::ReadK(Proc& p, int fd, std::span<std::byte> out) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("readk");
  auto fr = p.fds.Get(fd);
  Result<u64> r = fr.ok() ? vfs_.ReadFile(*fr.value(), out.data(), out.size())
                          : Result<u64>(fr.error());
  SyscallExit(p);
  return r;
}

Result<u64> Kernel::WriteK(Proc& p, int fd, std::span<const std::byte> in) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("writek");
  auto fr = p.fds.Get(fd);
  Result<u64> r = fr.ok() ? vfs_.WriteFile(*fr.value(), in.data(), in.size(), p.ulimit)
                          : Result<u64>(fr.error());
  if (!r.ok() && r.error() == Errno::kEPIPE) {
    p.PostSignal(kSigPipe);
  }
  SyscallExit(p);
  return r;
}

Result<u64> Kernel::Lseek(Proc& p, int fd, i64 off, SeekWhence whence) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("lseek");
  auto fr = p.fds.Get(fd);
  Result<u64> r = fr.ok() ? vfs_.Seek(*fr.value(), off, whence) : Result<u64>(fr.error());
  SyscallExit(p);
  return r;
}

// ----- namespace ops -----

Status Kernel::Mkdir(Proc& p, std::string_view path, mode_t mode) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("mkdir");
  Status st = vfs_.Mkdir(p.cwd, p.rootdir, CredOf(p), path, mode, p.umask);
  SyscallExit(p);
  return st;
}

Status Kernel::Link(Proc& p, std::string_view existing, std::string_view newpath) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("link");
  Status st = vfs_.Link(p.cwd, p.rootdir, CredOf(p), existing, newpath);
  SyscallExit(p);
  return st;
}

Status Kernel::Unlink(Proc& p, std::string_view path) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("unlink");
  Status st = vfs_.Unlink(p.cwd, p.rootdir, CredOf(p), path);
  SyscallExit(p);
  return st;
}

Status Kernel::Rmdir(Proc& p, std::string_view path) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("rmdir");
  Status st = vfs_.Rmdir(p.cwd, p.rootdir, CredOf(p), path);
  SyscallExit(p);
  return st;
}

namespace {

// Resolves `path` to a directory inode with search permission, returning a
// counted ref.
Result<Inode*> ResolveDir(Vfs& vfs, Proc& p, Cred cred, std::string_view path) {
  auto ip = vfs.Namei(p.cwd, p.rootdir, cred, path);
  if (!ip.ok()) {
    return ip.error();
  }
  if (ip.value()->type() != InodeType::kDirectory) {
    Iput(ip.value());
    return Errno::kENOTDIR;
  }
  if (!Permits(*ip.value(), cred.uid, cred.gid, Access::kExec)) {
    Iput(ip.value());
    return Errno::kEACCES;
  }
  return ip.value();
}

}  // namespace

Status Kernel::Chdir(Proc& p, std::string_view path) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("chdir");
  auto dir = ResolveDir(vfs_, p, CredOf(p), path);
  if (dir.ok()) {
    // "the ability to change the working directory ... of an entire set of
    // processes at once" (§4). The counted reference moves into the cwd.
    ChangeScalar(p, kResDir, [ip = dir.value()](Proc& q) {
      Iput(q.cwd);
      q.cwd = ip;
    });
  }
  SyscallExit(p);
  return dir.status();
}

Status Kernel::Chroot(Proc& p, std::string_view path) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("chroot");
  auto dir = p.uid != 0 ? Result<Inode*>(Errno::kEPERM) : ResolveDir(vfs_, p, CredOf(p), path);
  if (dir.ok()) {
    ChangeScalar(p, kResDir, [ip = dir.value()](Proc& q) {
      Iput(q.rootdir);
      q.rootdir = ip;
    });
  }
  SyscallExit(p);
  return dir.status();
}

namespace {
StatResult FillStat(Inode* ip) {
  StatResult s;
  s.ino = ip->ino();
  s.type = ip->type();
  s.mode = ip->mode();
  s.uid = ip->uid();
  s.gid = ip->gid();
  s.size = ip->Size();
  s.nlink = ip->nlink();
  return s;
}
}  // namespace

Result<StatResult> Kernel::Stat(Proc& p, std::string_view path) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("stat");
  auto ip = vfs_.Namei(p.cwd, p.rootdir, CredOf(p), path);
  Result<StatResult> r = Errno::kENOENT;
  if (!ip.ok()) {
    r = ip.error();
  } else {
    r = FillStat(ip.value());
    Iput(ip.value());
  }
  SyscallExit(p);
  return r;
}

Result<StatResult> Kernel::Fstat(Proc& p, int fd) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("fstat");
  auto fr = p.fds.Get(fd);
  Result<StatResult> r =
      fr.ok() ? Result<StatResult>(FillStat(fr.value()->inode()))
              : Result<StatResult>(fr.error());
  SyscallExit(p);
  return r;
}

Result<std::string> Kernel::Getcwd(Proc& p) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("getcwd");
  // Climb "..", read under each directory's lock, and find each
  // directory's name in its parent. A removed directory has neither, so
  // getcwd from inside one fails with kENOENT, as in POSIX.
  std::string path;
  Status st = Status::Ok();
  Inode* at = Iget(p.cwd);
  while (st.ok() && at != p.rootdir) {
    auto up = at->Lookup("..");
    if (!up.ok()) {
      st = up.status();
      break;
    }
    Inode* parent = up.value();
    if (parent == at) {  // the filesystem root
      Iput(parent);
      break;
    }
    auto name = parent->NameOf(at);  // kENOENT if `at` was removed meanwhile
    Iput(at);
    at = parent;
    if (name.ok()) {
      path.insert(0, "/" + name.value());
    } else {
      st = name.status();
    }
  }
  Iput(at);
  SyscallExit(p);
  if (!st.ok()) {
    return st.error();
  }
  return path.empty() ? std::string("/") : path;
}

Result<std::vector<std::string>> Kernel::ListDir(Proc& p, std::string_view path) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("listdir");
  Result<std::vector<std::string>> r = Errno::kENOENT;
  auto ip = vfs_.Namei(p.cwd, p.rootdir, CredOf(p), path);
  if (!ip.ok()) {
    r = ip.error();
  } else {
    if (ip.value()->type() != InodeType::kDirectory) {
      r = Errno::kENOTDIR;
    } else if (!Permits(*ip.value(), p.uid, p.gid, Access::kRead)) {
      r = Errno::kEACCES;
    } else {
      r = ip.value()->ListEntries();  // already sorted (std::map order)
    }
    Iput(ip.value());
  }
  SyscallExit(p);
  return r;
}

Status Kernel::Chmod(Proc& p, std::string_view path, mode_t mode) {
  SyscallEnter(p);
  SG_OBS_SYSCALL("chmod");
  auto ip = vfs_.Namei(p.cwd, p.rootdir, CredOf(p), path);
  Status st = Status::Ok();
  if (!ip.ok()) {
    st = ip.status();
  } else {
    if (p.uid != 0 && p.uid != ip.value()->uid()) {
      st = Errno::kEPERM;
    } else {
      ip.value()->set_mode(mode);
    }
    Iput(ip.value());
  }
  SyscallExit(p);
  return st;
}

}  // namespace sg
