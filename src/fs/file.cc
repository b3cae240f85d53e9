#include "fs/file.h"

#include "base/check.h"
#include "fs/pipe.h"
#include "inject/inject.h"

namespace sg {

Result<OpenFile*> FileTable::Alloc(Inode* ip, u32 flags) {
  // Claim a slot in the global budget first; roll back on ENFILE. This is
  // the only table-wide serialization point and it is one fetch_add.
  if (count_.fetch_add(1, std::memory_order_acq_rel) >= max_files_) {
    count_.fetch_sub(1, std::memory_order_acq_rel);
    return Errno::kENFILE;
  }
  auto* f = new OpenFile(ip, flags);
  if (ip->type() == InodeType::kPipe) {
    if ((flags & kOpenRead) != 0) {
      ip->pipe()->AddReader();
    }
    if ((flags & kOpenWrite) != 0) {
      ip->pipe()->AddWriter();
    }
  }
  return f;
}

OpenFile* FileTable::Hold(OpenFile* f) {
  SG_INJECT_POINT("file.hold");
  const u32 prev = f->refs_.fetch_add(1, std::memory_order_relaxed);
  SG_CHECK(prev > 0);  // duping a dead entry would resurrect freed state
  return f;
}

void FileTable::Release(OpenFile* f) {
  SG_INJECT_POINT("file.release");
  // acq_rel: the release half publishes this holder's writes (offset etc.)
  // to whoever frees; the acquire half makes the freeing thread see them.
  const u32 prev = f->refs_.fetch_sub(1, std::memory_order_acq_rel);
  SG_CHECK(prev > 0);
  if (prev > 1) {
    return;
  }
  // Zero crossing: nobody else holds a reference (every Hold starts from a
  // live reference), so `f` is exclusively ours to free.
  SG_INJECT_POINT("file.release.last");
  count_.fetch_sub(1, std::memory_order_acq_rel);
  Inode* ip = f->inode();
  if (ip->type() == InodeType::kPipe) {
    if (f->readable()) {
      ip->pipe()->RemoveReader();
    }
    if (f->writable()) {
      ip->pipe()->RemoveWriter();
    }
  }
  delete f;
  Iput(ip);
}

Result<int> FdTable::AllocSlot(OpenFile* f) {
  for (int fd = 0; fd < kMaxFds; ++fd) {
    if (!slots_[static_cast<u32>(fd)].used()) {
      slots_[static_cast<u32>(fd)] = FdEntry{f, false};
      return fd;
    }
  }
  return Errno::kEMFILE;
}

Status FdTable::SetSlot(int fd, OpenFile* f, bool close_on_exec) {
  if (!ValidFd(fd)) {
    return Errno::kEBADF;
  }
  slots_[static_cast<u32>(fd)] = FdEntry{f, close_on_exec};
  return Status::Ok();
}

Result<OpenFile*> FdTable::Get(int fd) const {
  if (!ValidFd(fd) || !slots_[static_cast<u32>(fd)].used()) {
    return Errno::kEBADF;
  }
  return slots_[static_cast<u32>(fd)].file;
}

Result<OpenFile*> FdTable::ClearSlot(int fd) {
  if (!ValidFd(fd) || !slots_[static_cast<u32>(fd)].used()) {
    return Errno::kEBADF;
  }
  OpenFile* f = slots_[static_cast<u32>(fd)].file;
  slots_[static_cast<u32>(fd)] = FdEntry{};
  return f;
}

int FdTable::OpenCount() const {
  int n = 0;
  for (const FdEntry& e : slots_) {
    n += e.used() ? 1 : 0;
  }
  return n;
}

}  // namespace sg
