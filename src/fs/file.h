// The system open-file table and per-process descriptor tables.
//
// A descriptor number indexes the process's FdTable (the paper's footnote 1:
// "an index into the file table for a process, which holds pointers to open
// file table entries"). Share groups with PR_SFDS keep a master copy of the
// whole descriptor table in the shared-address block (s_ofile / s_pofile)
// and resynchronize members on kernel entry (§6.3).
#ifndef SRC_FS_FILE_H_
#define SRC_FS_FILE_H_

#include <atomic>
#include <vector>

#include "base/result.h"
#include "base/types.h"
#include "fs/inode.h"

namespace sg {

// open(2) flag bits.
inline constexpr u32 kOpenRead = 1u << 0;
inline constexpr u32 kOpenWrite = 1u << 1;
inline constexpr u32 kOpenAppend = 1u << 2;
inline constexpr u32 kOpenCreat = 1u << 3;
inline constexpr u32 kOpenTrunc = 1u << 4;
inline constexpr u32 kOpenExcl = 1u << 5;
inline constexpr u32 kOpenRdwr = kOpenRead | kOpenWrite;

// One system file-table entry: an open instance of an inode with its own
// offset and mode. Reference-counted through the intrusive atomic count:
// descriptors (and the share block's master copy) hold counted references,
// so Hold/Release are one fetch_add/fetch_sub with no table lookup.
class OpenFile {
 public:
  OpenFile(Inode* ip, u32 flags) : inode_(ip), flags_(flags) {}
  OpenFile(const OpenFile&) = delete;
  OpenFile& operator=(const OpenFile&) = delete;

  Inode* inode() { return inode_; }
  u32 flags() const { return flags_; }
  bool readable() const { return (flags_ & kOpenRead) != 0; }
  bool writable() const { return (flags_ & kOpenWrite) != 0; }

  // Offset, shared by every descriptor referencing this entry (dup(2) and
  // fork(2) semantics — and share-group members sharing PR_SFDS). Plain
  // atomics: concurrent readers each advance by what they consumed, like
  // two processes sharing a file table entry on a real kernel — no mutex
  // on the per-byte I/O path.
  u64 offset() const { return offset_.load(std::memory_order_relaxed); }
  void set_offset(u64 off) { offset_.store(off, std::memory_order_relaxed); }
  // Atomically advances the offset by `n`, returning the pre-advance value.
  u64 AdvanceOffset(u64 n) { return offset_.fetch_add(n, std::memory_order_relaxed); }

 private:
  friend class FileTable;  // manages refs_ (Hold/Release/RefCount)

  Inode* inode_;
  u32 flags_;
  std::atomic<u64> offset_{0};
  std::atomic<u32> refs_{1};  // intrusive count; created referenced
};

// The system-wide open file table. Allocation bumps the inode reference;
// the final Release() drops it (and closes pipe endpoints).
//
// The table owns no entries: each OpenFile is owned by its references, so
// Hold/Release are one fetch_add/fetch_sub and the zero crossing deletes
// the entry. Only the live-entry count is table-wide.
class FileTable {
 public:
  explicit FileTable(u32 max_files) : max_files_(max_files) {}
  FileTable(const FileTable&) = delete;
  FileTable& operator=(const FileTable&) = delete;

  // Creates an entry referencing `ip` (whose reference the caller transfers
  // in) with refcount 1; kENFILE when the table is full.
  Result<OpenFile*> Alloc(Inode* ip, u32 flags);

  // Takes an extra reference (dup/fork/share-block copy). Lock-free.
  OpenFile* Hold(OpenFile* f);

  // Drops a reference; the entry closes and is freed when it reaches zero.
  // The last reference's release may sleep (a pipe end's mutex), so no
  // spinlock may be held across it.
  void Release(OpenFile* f);

  // Reference count of a LIVE entry (diagnostics/tests): a released entry
  // is freed memory — probe Count() instead.
  u32 RefCount(const OpenFile* f) const { return f->refs_.load(std::memory_order_acquire); }
  u64 Count() const { return count_.load(std::memory_order_acquire); }

 private:
  u32 max_files_;
  std::atomic<u64> count_{0};  // live entries
};

// One descriptor slot: the open-file pointer plus the per-descriptor flag
// byte (the paper's s_pofile keeps a copy of these flags).
struct FdEntry {
  OpenFile* file = nullptr;
  bool close_on_exec = false;

  bool used() const { return file != nullptr; }
};

// Per-process descriptor table. Plain data; the owning Proc (or the share
// block, for its master copy) coordinates access.
class FdTable {
 public:
  static constexpr int kMaxFds = 64;  // NOFILES in V.3 was 20; we allow more

  FdTable() : slots_(kMaxFds) {}

  // Lowest free descriptor, kEMFILE when full.
  Result<int> AllocSlot(OpenFile* f);
  Status SetSlot(int fd, OpenFile* f, bool close_on_exec);

  Result<OpenFile*> Get(int fd) const;
  FdEntry& Slot(int fd) { return slots_[static_cast<u32>(fd)]; }
  const FdEntry& Slot(int fd) const { return slots_[static_cast<u32>(fd)]; }

  // Clears slot `fd` and returns the file that was there (caller releases).
  Result<OpenFile*> ClearSlot(int fd);

  bool ValidFd(int fd) const { return fd >= 0 && fd < kMaxFds; }
  int OpenCount() const;

  std::vector<FdEntry>& slots() { return slots_; }
  const std::vector<FdEntry>& slots() const { return slots_; }

 private:
  std::vector<FdEntry> slots_;
};

}  // namespace sg

#endif  // SRC_FS_FILE_H_
