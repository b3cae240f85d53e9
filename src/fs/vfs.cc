#include "fs/vfs.h"

#include "base/check.h"

namespace sg {

namespace {

constexpr u64 kMaxNameLen = 255;

// Splits off the next path component from `rest`.
std::string_view NextComponent(std::string_view& rest) {
  while (!rest.empty() && rest.front() == '/') {
    rest.remove_prefix(1);
  }
  const auto slash = rest.find('/');
  std::string_view comp = rest.substr(0, slash);
  rest.remove_prefix(slash == std::string_view::npos ? rest.size() : slash);
  return comp;
}

// May `cred` add or remove entries of `dp`? Synthetic directories own their
// namespace: user link/unlink/creat in them is EPERM (even for root).
Status MayEdit(const Inode& dp, const Cred& cred) {
  if (dp.synthetic()) {
    return Errno::kEPERM;
  }
  if (!Permits(dp, cred.uid, cred.gid, Access::kWrite)) {
    return Errno::kEACCES;
  }
  return Status::Ok();
}

}  // namespace

Vfs::Vfs(u32 max_inodes, u32 max_files) : inodes_(max_inodes), files_(max_files) {
  auto r = inodes_.Alloc(InodeType::kDirectory, 0755, 0, 0);
  SG_CHECK(r.ok());
  root_ = r.value();
  root_->dotdot_ = root_;  // ".." at the root stays at the root
  root_->count_.fetch_add(Inode::kLink, std::memory_order_relaxed);  // the root is always linked
}

Vfs::~Vfs() {
  Inode::Drop(root_, Inode::kLink);
  Iput(root_);  // the last put frees the tree
}

Result<Inode*> Vfs::Namei(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view path) {
  if (path.empty()) {
    return Errno::kENOENT;
  }
  Inode* at = Iget(path.front() == '/' ? rootdir : cwd);
  std::string_view rest = path;
  while (true) {
    std::string_view comp = NextComponent(rest);
    if (comp.empty()) {
      break;  // trailing slash or end
    }
    Result<Inode*> next = Errno::kENOENT;
    if (comp.size() > kMaxNameLen) {
      next = Errno::kENAMETOOLONG;
    } else if (at->type() != InodeType::kDirectory) {
      next = Errno::kENOTDIR;
    } else if (!Permits(*at, cred.uid, cred.gid, Access::kExec)) {
      next = Errno::kEACCES;
    } else if (comp == "." || (comp == ".." && at == rootdir)) {
      next = Iget(at);  // ".." never climbs above the process's root (chroot jail)
    } else {
      at->InvokeRefresh();  // synthetic dirs (procfs) re-populate before lookup
      // The lookup counts the child in the directory's hold, while the
      // entry's link keeps it alive: an unlink cannot free it in between.
      next = at->Lookup(std::string(comp));
    }
    Iput(at);
    if (!next.ok()) {
      return next.error();
    }
    at = next.value();
  }
  if (at->type() == InodeType::kDirectory) {
    at->InvokeRefresh();  // resolving the dir itself (e.g. for ListDir)
  }
  return at;
}

Result<Inode*> Vfs::NameiParent(Inode* cwd, Inode* rootdir, const Cred& cred,
                                std::string_view path, std::string* leaf) {
  if (path.empty()) {
    return Errno::kENOENT;
  }
  // Strip trailing slashes, then split at the last one.
  while (path.size() > 1 && path.back() == '/') {
    path.remove_suffix(1);
  }
  const auto slash = path.rfind('/');
  std::string_view dir_part;
  std::string_view leaf_part;
  if (slash == std::string_view::npos) {
    dir_part = ".";
    leaf_part = path;
  } else {
    dir_part = slash == 0 ? "/" : path.substr(0, slash);
    leaf_part = path.substr(slash + 1);
  }
  if (leaf_part.empty() || leaf_part == "." || leaf_part == "..") {
    return Errno::kEINVAL;
  }
  if (leaf_part.size() > kMaxNameLen) {
    return Errno::kENAMETOOLONG;
  }
  auto dir = Namei(cwd, rootdir, cred, dir_part);
  if (!dir.ok()) {
    return dir.error();
  }
  if (dir.value()->type() != InodeType::kDirectory) {
    Iput(dir.value());
    return Errno::kENOTDIR;
  }
  *leaf = std::string(leaf_part);
  return dir.value();
}

Result<OpenFile*> Vfs::Open(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view path,
                            u32 flags, mode_t mode, mode_t umask) {
  if ((flags & (kOpenRead | kOpenWrite)) == 0) {
    return Errno::kEINVAL;
  }
  Inode* ip = nullptr;
  auto found = Namei(cwd, rootdir, cred, path);
  if (found.ok()) {
    if ((flags & kOpenCreat) != 0 && (flags & kOpenExcl) != 0) {
      Iput(found.value());
      return Errno::kEEXIST;
    }
    ip = found.value();
  } else if (found.error() == Errno::kENOENT && (flags & kOpenCreat) != 0) {
    // creat path: make the file in its parent, applying the umask (§4:
    // umask is one of the shared resources — all members see a change).
    std::string leaf;
    auto dir = NameiParent(cwd, rootdir, cred, path, &leaf);
    if (!dir.ok()) {
      return dir.error();
    }
    Inode* dp = dir.value();
    if (Status st = MayEdit(*dp, cred); !st.ok()) {
      Iput(dp);
      return st.error();
    }
    auto made = inodes_.Alloc(InodeType::kRegular, static_cast<mode_t>(mode & ~umask & kModeAll),
                              cred.uid, cred.gid);
    if (!made.ok()) {
      Iput(dp);
      return made.error();
    }
    ip = made.value();
    Status added = dp->AddEntry(leaf, ip);
    Iput(dp);
    if (!added.ok()) {
      Iput(ip);
      // A racing creator beat us to the name: open what it made (kEEXIST
      // under kOpenExcl), or create again if it is already unlinked. A
      // removed directory takes no entry (kENOENT).
      return added.error() == Errno::kEEXIST ? Open(cwd, rootdir, cred, path, flags, mode, umask)
                                             : added.error();
    }
  } else {
    return found.error();
  }

  if (ip->type() == InodeType::kDirectory && (flags & kOpenWrite) != 0) {
    Iput(ip);
    return Errno::kEISDIR;
  }
  if ((flags & kOpenRead) != 0 && !Permits(*ip, cred.uid, cred.gid, Access::kRead)) {
    Iput(ip);
    return Errno::kEACCES;
  }
  if ((flags & kOpenWrite) != 0 && !Permits(*ip, cred.uid, cred.gid, Access::kWrite)) {
    Iput(ip);
    return Errno::kEACCES;
  }
  if ((flags & kOpenWrite) != 0 && ip->generated()) {
    Iput(ip);
    return Errno::kEPERM;  // synthetic files render on read; writes are meaningless
  }
  auto f = files_.Alloc(ip, flags);
  if (!f.ok()) {
    Iput(ip);
    return f.error();
  }
  return f.value();  // the inode reference moved into the file entry
}

void Vfs::TruncateOnOpen(OpenFile& f) {
  if ((f.flags() & kOpenTrunc) != 0 && f.inode()->type() == InodeType::kRegular) {
    f.inode()->Truncate();
  }
}

Status Vfs::Mkdir(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view path,
                  mode_t mode, mode_t umask) {
  std::string leaf;
  auto dir = NameiParent(cwd, rootdir, cred, path, &leaf);
  if (!dir.ok()) {
    return dir.error();
  }
  Inode* dp = dir.value();
  Status st = MayEdit(*dp, cred);
  if (st.ok()) {
    if (auto found = dp->Lookup(leaf); found.ok()) {
      Iput(found.value());
      st = Errno::kEEXIST;
    }
  }
  if (st.ok()) {
    auto made = inodes_.Alloc(InodeType::kDirectory,
                              static_cast<mode_t>(mode & ~umask & kModeAll), cred.uid, cred.gid);
    if (!made.ok()) {
      st = made.status();
    } else {
      st = dp->AddEntry(leaf, made.value());
      Iput(made.value());  // the directory entry (its link) keeps it alive
    }
  }
  Iput(dp);
  return st;
}

Status Vfs::Link(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view existing,
                 std::string_view newpath) {
  auto target = Namei(cwd, rootdir, cred, existing);
  if (!target.ok()) {
    return target.error();
  }
  Inode* ip = target.value();
  std::string leaf;
  Status st = Status::Ok();
  if (ip->type() == InodeType::kDirectory) {
    st = Errno::kEISDIR;  // no hard links to directories
  } else if (auto dir = NameiParent(cwd, rootdir, cred, newpath, &leaf); !dir.ok()) {
    st = dir.status();
  } else {
    Inode* dp = dir.value();
    st = ip->generated() ? Status(Errno::kEPERM) : MayEdit(*dp, cred);
    if (st.ok()) {
      st = dp->AddEntry(leaf, ip);
    }
    Iput(dp);
  }
  Iput(ip);
  return st;
}

Status Vfs::Unlink(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view path) {
  return Remove(cwd, rootdir, cred, path, /*dir=*/false);
}

Status Vfs::Rmdir(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view path) {
  return Remove(cwd, rootdir, cred, path, /*dir=*/true);
}

Status Vfs::Remove(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view path,
                   bool dir) {
  std::string leaf;
  auto parent = NameiParent(cwd, rootdir, cred, path, &leaf);
  if (!parent.ok()) {
    return parent.error();
  }
  Inode* dp = parent.value();
  Status st = MayEdit(*dp, cred);
  if (st.ok()) {
    // One hold of dp's lock finds the entry, checks it and drops its link,
    // so of two removals of one name the second gets kENOENT.
    st = dp->RemoveEntry(leaf, dir);
  }
  Iput(dp);
  return st;
}

Result<std::pair<OpenFile*, OpenFile*>> Vfs::MakePipe() {
  auto made = inodes_.Alloc(InodeType::kPipe, 0600, 0, 0);
  if (!made.ok()) {
    return made.error();
  }
  Inode* ip = made.value();
  ip->AttachPipe(std::make_unique<Pipe>());
  auto rd = files_.Alloc(ip, kOpenRead);
  if (!rd.ok()) {
    Iput(ip);
    return rd.error();
  }
  auto wr = files_.Alloc(Iget(ip), kOpenWrite);
  if (!wr.ok()) {
    files_.Release(rd.value());
    return wr.error();
  }
  return std::make_pair(rd.value(), wr.value());
}

Result<u64> Vfs::ReadFile(OpenFile& f, std::byte* out, u64 len) {
  if (!f.readable()) {
    return Errno::kEBADF;
  }
  Inode* ip = f.inode();
  if (ip->type() == InodeType::kPipe) {
    return ip->pipe()->Read(out, len);
  }
  if (ip->type() == InodeType::kDirectory) {
    return Errno::kEISDIR;
  }
  const u64 at = f.offset();
  const u64 n = ip->ReadAt(at, out, len);
  f.AdvanceOffset(n);
  return n;
}

Result<u64> Vfs::WriteFile(OpenFile& f, const std::byte* src, u64 len, u64 ulimit) {
  if (!f.writable()) {
    return Errno::kEBADF;
  }
  Inode* ip = f.inode();
  if (ip->type() == InodeType::kPipe) {
    return ip->pipe()->Write(src, len);
  }
  if ((f.flags() & kOpenAppend) != 0) {
    f.set_offset(ip->Size());
  }
  const u64 at = f.offset();
  const u64 n = ip->WriteAt(at, src, len, ulimit);
  if (n == 0 && len > 0) {
    return Errno::kEFBIG;  // ulimit exceeded before anything was written
  }
  f.AdvanceOffset(n);
  return n;
}

Result<u64> Vfs::Seek(OpenFile& f, i64 offset, SeekWhence whence) {
  Inode* ip = f.inode();
  if (ip->type() == InodeType::kPipe) {
    return Errno::kESPIPE;
  }
  i64 base = 0;
  switch (whence) {
    case SeekWhence::kSet: base = 0; break;
    case SeekWhence::kCur: base = static_cast<i64>(f.offset()); break;
    case SeekWhence::kEnd: base = static_cast<i64>(ip->Size()); break;
  }
  const i64 target = base + offset;
  if (target < 0) {
    return Errno::kEINVAL;
  }
  f.set_offset(static_cast<u64>(target));
  return static_cast<u64>(target);
}

}  // namespace sg
