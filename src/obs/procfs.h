// Procfs — a synthetic filesystem mounted at /proc through the ordinary
// fs/vfs layer, so user processes read kernel state through the normal
// open(2)/read(2) descriptor path (the very sharing shape the paper's
// fd/VFS machinery exists to support).
//
// Layout:
//   /proc/stat            global counter registry (obs/stats.h RenderText)
//   /proc/<pid>/status    pid, ppid, state, ids, shmask, share-group id,
//                         syscall count
//   /proc/share/<gid>     member list, s_refcnt, update-lock stats
//
// File contents are generated at read(2) time; the directory population
// (which pids/groups exist) is refreshed by a hook the VFS invokes during
// path resolution. The kernel supplies two snapshot providers; Procfs
// itself knows nothing about Proc or ShaddrBlock internals, which keeps
// this library below core/ in the dependency order (obs + fs only).
#ifndef SRC_OBS_PROCFS_H_
#define SRC_OBS_PROCFS_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "base/types.h"
#include "fs/vfs.h"

namespace sg {
namespace obs {

// One process, as /proc presents it. `group` is the share-group id or -1.
struct ProcStatus {
  i32 pid = 0;
  i32 ppid = 0;
  char state = '?';  // E(mbryo) / A(ctive) / Z(ombie)
  u32 uid = 0;
  u32 gid = 0;
  u32 shmask = 0;
  i64 group = -1;
  u64 syscalls = 0;
};

// One share group, as /proc/share presents it.
struct GroupStatus {
  u64 id = 0;
  u32 refcnt = 0;
  std::vector<i32> members;
  u64 lock_updates = 0;
  u64 lock_update_waits = 0;
  u64 lock_update_wait_count = 0;   // per-lock writer wait histogram
  u64 lock_update_wait_sum_ns = 0;
  int ofiles = 0;
  // Fair-share resource manager (src/rm/) view: shares weight, decayed CPU
  // usage, and per-resource cap/used (index order: members, files, pages;
  // cap 0 = unlimited). Plain values so Procfs stays below rm/ in the
  // dependency order.
  u32 rm_shares = 0;
  u64 rm_usage_ns = 0;
  u64 rm_cap[3] = {0, 0, 0};
  u64 rm_used[3] = {0, 0, 0};
};

class Procfs {
 public:
  using ProcLister = std::function<std::vector<ProcStatus>()>;
  using GroupLister = std::function<std::vector<GroupStatus>()>;

  // Builds /proc under `vfs`'s root and installs the refresh hooks. The
  // providers are called on every /proc traversal and on status reads;
  // they must take their own snapshots under the kernel's locks.
  Procfs(Vfs& vfs, ProcLister procs, GroupLister groups);
  ~Procfs();
  Procfs(const Procfs&) = delete;
  Procfs& operator=(const Procfs&) = delete;

  // Re-populates the /proc/<pid> and /proc/share/<gid> entries from fresh
  // snapshots. Invoked by the VFS hook; callable directly from tests.
  void Refresh();

  // Installs an extra generated file directly under /proc (e.g. the kernel
  // layer registers /proc/lockdep here — Procfs itself sits below sync/ in
  // the dependency order and cannot generate that content itself). The node
  // is owned by this Procfs and removed in the destructor. The name must
  // not collide with a pid directory or a built-in node.
  void AddRootFile(const std::string& name, std::function<std::string()> gen);

 private:
  Inode* MakeDir(Inode* parent, const std::string& name);
  Inode* MakeFile(Inode* parent, const std::string& name, std::function<std::string()> gen);
  // Removes entry `name` (`ip`, a file or an emptied directory) and drops
  // our reference.
  void Remove(Inode* parent, const std::string& name, Inode* ip);

  std::string RenderStatus(i32 pid) const;
  std::string RenderGroup(u64 gid) const;

  Vfs& vfs_;
  // sgcheck:allow(guarded-fields): callback bound at construction, then
  // only invoked (std::function target never reseated)
  ProcLister procs_;
  // sgcheck:allow(guarded-fields): callback bound at construction, see above
  GroupLister groups_;

  // sgcheck:allow(guarded-fields): set once in the constructor, before any
  // process runs, then read-only
  Inode* proc_dir_ = nullptr;   // /proc (own counted ref held)
  // sgcheck:allow(guarded-fields): set once in the constructor, see above
  Inode* share_dir_ = nullptr;  // /proc/share (own counted ref held)
  // sgcheck:allow(guarded-fields): set once in the constructor, see above
  Inode* stat_file_ = nullptr;  // /proc/stat

  Mutex refresh_mu_;  // serializes concurrent traversal-driven refreshes
  struct PidNode {
    Inode* dir = nullptr;
    Inode* status = nullptr;
  };
  std::map<i32, PidNode> pid_nodes_ SG_GUARDED_BY(refresh_mu_);
  std::map<u64, Inode*> group_nodes_ SG_GUARDED_BY(refresh_mu_);
  // Extra root files installed via AddRootFile (name -> inode).
  std::map<std::string, Inode*> extra_files_ SG_GUARDED_BY(refresh_mu_);
};

}  // namespace obs
}  // namespace sg

#endif  // SRC_OBS_PROCFS_H_
