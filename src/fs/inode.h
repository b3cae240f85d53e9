// In-memory filesystem: inodes and the inode table.
//
// The paper's share groups propagate the current/root directory (PR_SDIR)
// and hold "+1" inode references from the shared-address block so a shared
// directory can never vanish while any member might still synchronize to it
// (§6.3). The inode table below provides exactly the iget/iput reference
// discipline that scheme relies on.
#ifndef SRC_FS_INODE_H_
#define SRC_FS_INODE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/types.h"

namespace sg {

enum class InodeType { kRegular, kDirectory, kPipe };

// Permission bits (classic octal layout).
inline constexpr mode_t kModeUserR = 0400;
inline constexpr mode_t kModeUserW = 0200;
inline constexpr mode_t kModeUserX = 0100;
inline constexpr mode_t kModeGroupR = 0040;
inline constexpr mode_t kModeGroupW = 0020;
inline constexpr mode_t kModeGroupX = 0010;
inline constexpr mode_t kModeOtherR = 0004;
inline constexpr mode_t kModeOtherW = 0002;
inline constexpr mode_t kModeOtherX = 0001;
inline constexpr mode_t kModeAll = 0777;

class Pipe;

class Inode {
 public:
  Inode(ino_t ino, InodeType type, mode_t mode, uid_t uid, gid_t gid);
  Inode(const Inode&) = delete;
  Inode& operator=(const Inode&) = delete;
  ~Inode();

  ino_t ino() const { return ino_; }
  InodeType type() const { return type_; }

  // Metadata, guarded by meta lock.
  mode_t mode() const;
  void set_mode(mode_t m);
  uid_t uid() const;
  gid_t gid() const;
  void set_owner(uid_t u, gid_t g);

  // Link count (directory entries referencing this inode); guarded by the
  // owning InodeTable's lock.
  u32 nlink = 0;

  // --- Regular file data ---
  u64 Size() const;
  // Reads up to out.size() bytes at `off`; returns bytes read (0 at EOF).
  u64 ReadAt(u64 off, std::byte* out, u64 len) const;
  // Writes at `off`, growing the file, but never past `limit` bytes total
  // (the ulimit). Returns bytes written (0 means the limit was hit).
  u64 WriteAt(u64 off, const std::byte* src, u64 len, u64 limit);
  void Truncate();

  // --- Directory data ---
  // Entries hold plain pointers; the link count (nlink) managed by the
  // InodeTable keeps a referenced child alive.
  Result<Inode*> Lookup(const std::string& name) const;
  Status AddEntry(const std::string& name, Inode* child);
  Status RemoveEntry(const std::string& name);
  bool DirEmpty() const;
  std::vector<std::string> ListEntries() const;

  // Parent directory ("..") — the root points at itself.
  Inode* parent = nullptr;

  // --- Pipe ---
  void AttachPipe(std::unique_ptr<Pipe> p);
  Pipe* pipe() { return pipe_.get(); }

  // --- Synthetic (procfs-style) nodes ---
  // A generated regular file renders its contents on every ReadAt/Size; it
  // has no backing data_ and ignores writes/truncation. The callback must
  // be installed right after Alloc, before the inode is published in any
  // directory — it is immutable afterwards, so reads call it without mu_
  // (the generator may take arbitrary kernel locks of its own).
  void SetGenerator(std::function<std::string()> gen) { gen_ = std::move(gen); }
  bool generated() const { return static_cast<bool>(gen_); }

  // A refreshable directory re-populates its entries when path resolution
  // walks through it. Same publication discipline as SetGenerator; the
  // hook runs without mu_ held.
  void SetRefreshHook(std::function<void()> hook) { refresh_ = std::move(hook); }
  void InvokeRefresh() const {
    if (refresh_) {
      refresh_();
    }
  }
  // Synthetic directories own their namespace: user link/unlink/creat in
  // them is EPERM (even for root), like a real procfs.
  bool synthetic() const { return static_cast<bool>(refresh_); }

 private:
  const ino_t ino_;
  const InodeType type_;

  mutable std::mutex mu_;
  mode_t mode_;
  uid_t uid_;
  gid_t gid_;
  std::vector<std::byte> data_;              // kRegular
  std::map<std::string, Inode*> entries_;    // kDirectory
  std::unique_ptr<Pipe> pipe_;               // kPipe
  std::function<std::string()> gen_;         // synthetic kRegular (no mu_)
  std::function<void()> refresh_;            // synthetic kDirectory (no mu_)
};

// Wanted access for permission checks.
enum class Access { kRead, kWrite, kExec };

// Classic UNIX permission check: owner bits if uid matches, else group
// bits, else other bits; uid 0 passes everything.
bool Permits(const Inode& ip, uid_t uid, gid_t gid, Access want);

// The system inode table: allocation, lookup, and reference counting.
class InodeTable {
 public:
  explicit InodeTable(u32 max_inodes);
  InodeTable(const InodeTable&) = delete;
  InodeTable& operator=(const InodeTable&) = delete;
  ~InodeTable();

  // Allocates a new inode with reference count 1 and nlink 0.
  Result<Inode*> Alloc(InodeType type, mode_t mode, uid_t uid, gid_t gid);

  // Takes an additional reference (paper: the shared block "has the count
  // bumped one ... this avoids any races whereby the process that changed
  // the resource exits before all other group members have had a chance to
  // synchronize").
  Inode* Iget(Inode* ip);

  // Drops a reference; the inode is destroyed when both the reference count
  // and the link count reach zero.
  void Iput(Inode* ip);

  // Spin-safe refcounting. Iget/Iput take mu_, which may block, so a
  // spinlock holder must not call them (sgcheck: sleep-in-atomic; lockdep
  // reports the same at runtime). Callers that need to move inode
  // references from inside a spinlock section take the table lock FIRST —
  // mutex outside spinlock is the legal order — and use the *Locked forms
  // within:
  //
  //   auto tbl = inodes.Acquire();   // may block (no spinlock held yet)
  //   SpinGuard g(rupdlock_);
  //   inodes.IputLocked(old);        // pure table ops, never blocks
  //
  // Vfs::Namei uses them too: it looks a child up and counts it in one
  // hold, so an unlink's LinkDec cannot free the child in between. Lock
  // order: table mutex, then a directory's mutex.
  std::unique_lock<std::mutex> Acquire() const;
  Inode* IgetLocked(Inode* ip);  // caller holds the Acquire() lock
  void IputLocked(Inode* ip);    // caller holds the Acquire() lock

  u32 RefCount(const Inode* ip) const;
  u64 Count() const;

  // Adjusts nlink under the table lock (entries changed by the VFS layer).
  void LinkInc(Inode* ip);
  // Decrements nlink, destroying the inode if it becomes unreferenced.
  void LinkDec(Inode* ip);

 private:
  void MaybeFree(Inode* ip);  // caller holds mu_

  mutable std::mutex mu_;
  u32 max_inodes_;
  ino_t next_ino_ = 1;  // the root directory is allocated first and gets 1
  std::map<const Inode*, std::pair<std::unique_ptr<Inode>, u32>> table_;  // inode -> (owner, refs)
};

}  // namespace sg

#endif  // SRC_FS_INODE_H_
