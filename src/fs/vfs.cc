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

}  // namespace

Vfs::Vfs(u32 max_inodes, u32 max_files) : inodes_(max_inodes), files_(inodes_, max_files) {
  auto r = inodes_.Alloc(InodeType::kDirectory, 0755, 0, 0);
  SG_CHECK(r.ok());
  root_ = r.value();
  root_->parent = root_;       // ".." at the root stays at the root
  inodes_.LinkInc(root_);      // the root is always linked
}

Vfs::~Vfs() {
  inodes_.LinkDec(root_);
  inodes_.Iput(root_);
}

Result<Inode*> Vfs::Namei(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view path) {
  if (path.empty()) {
    return Errno::kENOENT;
  }
  Inode* at = (path.front() == '/') ? rootdir : cwd;
  at = inodes_.Iget(at);
  std::string_view rest = path;
  while (true) {
    std::string_view comp = NextComponent(rest);
    if (comp.empty()) {
      break;  // trailing slash or end
    }
    if (comp.size() > kMaxNameLen) {
      inodes_.Iput(at);
      return Errno::kENAMETOOLONG;
    }
    if (at->type() != InodeType::kDirectory) {
      inodes_.Iput(at);
      return Errno::kENOTDIR;
    }
    if (!Permits(*at, cred.uid, cred.gid, Access::kExec)) {
      inodes_.Iput(at);
      return Errno::kEACCES;
    }
    at->InvokeRefresh();  // synthetic dirs (procfs) re-populate before lookup
    // Look the child up and count it in one hold of the table lock: an
    // unlink's last LinkDec takes the same lock, so it cannot free the
    // child in between. Lock order: inode table, then directory.
    const std::string name(comp);
    auto tbl = inodes_.Acquire();
    Inode* next = at;
    if (name == "..") {
      // Never climb above the process's root directory (chroot jail).
      next = (at == rootdir) ? at : at->parent;
    } else if (name != ".") {
      auto found = at->Lookup(name);
      if (!found.ok()) {
        inodes_.IputLocked(at);
        return found.error();
      }
      next = found.value();
    }
    inodes_.IgetLocked(next);
    inodes_.IputLocked(at);
    at = next;
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
    inodes_.Iput(dir.value());
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
      inodes_.Iput(found.value());
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
    if (dp->synthetic()) {
      inodes_.Iput(dp);
      return Errno::kEPERM;
    }
    if (!Permits(*dp, cred.uid, cred.gid, Access::kWrite)) {
      inodes_.Iput(dp);
      return Errno::kEACCES;
    }
    auto made = inodes_.Alloc(InodeType::kRegular, static_cast<mode_t>(mode & ~umask & kModeAll),
                              cred.uid, cred.gid);
    if (!made.ok()) {
      inodes_.Iput(dp);
      return made.error();
    }
    ip = made.value();
    // A racing creator can beat us to the entry; retry as plain open.
    Status added = dp->AddEntry(leaf, ip);
    if (!added.ok()) {
      inodes_.Iput(ip);
      inodes_.Iput(dp);
      return Open(cwd, rootdir, cred, path, flags & ~kOpenCreat, mode, umask);
    }
    inodes_.LinkInc(ip);
    inodes_.Iput(dp);
  } else {
    return found.error();
  }

  if (ip->type() == InodeType::kDirectory && (flags & kOpenWrite) != 0) {
    inodes_.Iput(ip);
    return Errno::kEISDIR;
  }
  if ((flags & kOpenRead) != 0 && !Permits(*ip, cred.uid, cred.gid, Access::kRead)) {
    inodes_.Iput(ip);
    return Errno::kEACCES;
  }
  if ((flags & kOpenWrite) != 0 && !Permits(*ip, cred.uid, cred.gid, Access::kWrite)) {
    inodes_.Iput(ip);
    return Errno::kEACCES;
  }
  if ((flags & kOpenWrite) != 0 && ip->generated()) {
    inodes_.Iput(ip);
    return Errno::kEPERM;  // synthetic files render on read; writes are meaningless
  }
  auto f = files_.Alloc(ip, flags);
  if (!f.ok()) {
    inodes_.Iput(ip);
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
  if (dp->synthetic()) {
    inodes_.Iput(dp);
    return Errno::kEPERM;
  }
  if (!Permits(*dp, cred.uid, cred.gid, Access::kWrite)) {
    inodes_.Iput(dp);
    return Errno::kEACCES;
  }
  if (dp->Lookup(leaf).ok()) {
    inodes_.Iput(dp);
    return Errno::kEEXIST;
  }
  auto made = inodes_.Alloc(InodeType::kDirectory,
                            static_cast<mode_t>(mode & ~umask & kModeAll), cred.uid, cred.gid);
  if (!made.ok()) {
    inodes_.Iput(dp);
    return made.error();
  }
  Inode* child = made.value();
  child->parent = dp;
  Status added = dp->AddEntry(leaf, child);
  if (!added.ok()) {
    inodes_.Iput(child);
    inodes_.Iput(dp);
    return added;
  }
  inodes_.LinkInc(child);
  inodes_.Iput(child);  // the directory entry (nlink) keeps it alive
  inodes_.Iput(dp);
  return Status::Ok();
}

Status Vfs::Link(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view existing,
                 std::string_view newpath) {
  auto target = Namei(cwd, rootdir, cred, existing);
  if (!target.ok()) {
    return target.error();
  }
  Inode* ip = target.value();
  if (ip->type() == InodeType::kDirectory) {
    inodes_.Iput(ip);
    return Errno::kEISDIR;  // no hard links to directories
  }
  std::string leaf;
  auto dir = NameiParent(cwd, rootdir, cred, newpath, &leaf);
  if (!dir.ok()) {
    inodes_.Iput(ip);
    return dir.error();
  }
  Inode* dp = dir.value();
  if (dp->synthetic() || ip->generated()) {
    inodes_.Iput(dp);
    inodes_.Iput(ip);
    return Errno::kEPERM;
  }
  if (!Permits(*dp, cred.uid, cred.gid, Access::kWrite)) {
    inodes_.Iput(dp);
    inodes_.Iput(ip);
    return Errno::kEACCES;
  }
  Status added = dp->AddEntry(leaf, ip);
  if (added.ok()) {
    inodes_.LinkInc(ip);
  }
  inodes_.Iput(dp);
  inodes_.Iput(ip);
  return added;
}

Status Vfs::Unlink(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view path) {
  std::string leaf;
  auto dir = NameiParent(cwd, rootdir, cred, path, &leaf);
  if (!dir.ok()) {
    return dir.error();
  }
  Inode* dp = dir.value();
  if (dp->synthetic()) {
    inodes_.Iput(dp);
    return Errno::kEPERM;
  }
  if (!Permits(*dp, cred.uid, cred.gid, Access::kWrite)) {
    inodes_.Iput(dp);
    return Errno::kEACCES;
  }
  auto found = dp->Lookup(leaf);
  if (!found.ok()) {
    inodes_.Iput(dp);
    return found.error();
  }
  Inode* ip = found.value();
  if (ip->type() == InodeType::kDirectory) {
    inodes_.Iput(dp);
    return Errno::kEISDIR;  // use Rmdir
  }
  SG_CHECK(dp->RemoveEntry(leaf).ok());
  inodes_.LinkDec(ip);  // open references keep the data alive until closed
  inodes_.Iput(dp);
  return Status::Ok();
}

Status Vfs::Rmdir(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view path) {
  std::string leaf;
  auto dir = NameiParent(cwd, rootdir, cred, path, &leaf);
  if (!dir.ok()) {
    return dir.error();
  }
  Inode* dp = dir.value();
  if (!Permits(*dp, cred.uid, cred.gid, Access::kWrite)) {
    inodes_.Iput(dp);
    return Errno::kEACCES;
  }
  auto found = dp->Lookup(leaf);
  if (!found.ok()) {
    inodes_.Iput(dp);
    return found.error();
  }
  Inode* ip = found.value();
  if (ip->type() != InodeType::kDirectory) {
    inodes_.Iput(dp);
    return Errno::kENOTDIR;
  }
  if (!ip->DirEmpty()) {
    inodes_.Iput(dp);
    return Errno::kENOTEMPTY;
  }
  SG_CHECK(dp->RemoveEntry(leaf).ok());
  inodes_.LinkDec(ip);
  inodes_.Iput(dp);
  return Status::Ok();
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
    inodes_.Iput(ip);
    return rd.error();
  }
  auto wr = files_.Alloc(inodes_.Iget(ip), kOpenWrite);
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
