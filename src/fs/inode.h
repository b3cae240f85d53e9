// In-memory filesystem: inodes and the inode table.
//
// The paper's share groups propagate the current/root directory (PR_SDIR)
// and hold "+1" inode references from the shared-address block so a shared
// directory can never vanish while any member might still synchronize to it
// (§6.3). Iget/Iput below are that reference discipline: like an open
// file, an inode counts itself, so neither takes a lock.
#ifndef SRC_FS_INODE_H_
#define SRC_FS_INODE_H_

#include <atomic>
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
  // `live` is the allocating table's count of live inodes; the table
  // outlives its inodes (~Vfs frees the tree before its table goes).
  Inode(ino_t ino, InodeType type, mode_t mode, uid_t uid, gid_t gid, std::atomic<u64>& live);
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

  // Links (directory entries naming this inode) and references (path
  // walks, open files, cwd/root copies, file mappings) share one atomic
  // word; the decrement that takes it to zero frees the inode.
  u32 nlink() const { return static_cast<u32>(count_.load(std::memory_order_acquire) >> 32); }
  u32 refs() const { return static_cast<u32>(count_.load(std::memory_order_acquire)); }

  // --- Regular file data ---
  u64 Size() const;
  // Reads up to out.size() bytes at `off`; returns bytes read (0 at EOF).
  u64 ReadAt(u64 off, std::byte* out, u64 len) const;
  // Writes at `off`, growing the file, but never past `limit` bytes total
  // (the ulimit). Returns bytes written (0 means the limit was hit).
  u64 WriteAt(u64 off, const std::byte* src, u64 len, u64 limit);
  void Truncate();

  // --- Directory data ---
  // Each entry carries one link of its inode, changed in the same hold of
  // this directory's lock as the entry, so the link keeps the child alive
  // for a lookup that finds the entry.
  //
  // Returns a counted reference to entry `name`, taken in the lookup's
  // hold; ".." is the parent. kENOENT for a missing name, and for ".." of a
  // removed directory.
  Result<Inode*> Lookup(const std::string& name) const;
  // Adds entry `name` and its link; a directory child gets this directory
  // as its "..". kEEXIST if the name is taken, kENOENT if this directory is
  // not in the tree (rmdir removed it, or it was never added).
  Status AddEntry(const std::string& name, Inode* child);
  // Removes entry `name` and its link. With `dir` (rmdir) the entry must be
  // an empty directory, which loses its ".." in the same hold (POSIX: no
  // entry can be created in it afterwards); without (unlink) it must not be
  // a directory. Lock order: this directory, then the child.
  Status RemoveEntry(const std::string& name, bool dir);
  // The name under which this directory lists `child` (getcwd).
  Result<std::string> NameOf(const Inode* child) const;
  std::vector<std::string> ListEntries() const;

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
  friend class Vfs;  // links the root, which is its own ".." and has no entry
  friend Inode* Iget(Inode* ip);
  friend void Iput(Inode* ip);

  // Units of count_: links in the high half, references in the low half.
  static constexpr u64 kRef = 1;
  static constexpr u64 kLink = u64{1} << 32;
  // Drops one unit; at zero no entry names the inode and nobody holds it,
  // so it is freed. A freed directory drops the links of its remaining
  // entries (only a filesystem's root is freed with any). Takes no lock,
  // so a spinlock holder may drop.
  static void Drop(Inode* ip, u64 unit);

  const ino_t ino_;
  const InodeType type_;
  std::atomic<u64> count_{kRef};  // created with one reference and no link
  std::atomic<u64>& live_;

  mutable std::mutex mu_;
  mode_t mode_;
  uid_t uid_;
  gid_t gid_;
  std::vector<std::byte> data_;              // kRegular
  std::map<std::string, Inode*> entries_;    // kDirectory
  Inode* dotdot_ = nullptr;                  // kDirectory: ".."; null out of the tree
  std::unique_ptr<Pipe> pipe_;               // kPipe
  std::function<std::string()> gen_;         // synthetic kRegular (no mu_)
  std::function<void()> refresh_;            // synthetic kDirectory (no mu_)
};

// Wanted access for permission checks.
enum class Access { kRead, kWrite, kExec };

// Classic UNIX permission check: owner bits if uid matches, else group
// bits, else other bits; uid 0 passes everything.
bool Permits(const Inode& ip, uid_t uid, gid_t gid, Access want);

// Takes another reference to a live inode (paper: the shared block "has the
// count bumped one ... this avoids any races whereby the process that
// changed the resource exits before all other group members have had a
// chance to synchronize"). One fetch_add.
Inode* Iget(Inode* ip);
// Drops a reference; the inode is freed once no reference and no link is
// left. Lock-free: a spinlock holder may put.
void Iput(Inode* ip);

// The system inode table. It owns no inodes, since each counts itself;
// only the allocation budget is table-wide.
class InodeTable {
 public:
  explicit InodeTable(u32 max_inodes) : max_inodes_(max_inodes) {}
  InodeTable(const InodeTable&) = delete;
  InodeTable& operator=(const InodeTable&) = delete;

  // Allocates a new inode with one reference and no link; kENOSPC when the
  // table is full.
  Result<Inode*> Alloc(InodeType type, mode_t mode, uid_t uid, gid_t gid);

  // Live inodes.
  u64 Count() const { return count_.load(std::memory_order_acquire); }

 private:
  u32 max_inodes_;
  std::atomic<ino_t> next_ino_{1};  // the root directory is allocated first and gets 1
  std::atomic<u64> count_{0};
};

}  // namespace sg

#endif  // SRC_FS_INODE_H_
