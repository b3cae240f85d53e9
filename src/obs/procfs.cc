#include "obs/procfs.h"

#include <cstdio>

#include "base/check.h"
#include "obs/stats.h"

namespace sg {
namespace obs {

namespace {

std::string Hex(u64 v) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

Procfs::Procfs(Vfs& vfs, ProcLister procs, GroupLister groups)
    : vfs_(vfs), procs_(std::move(procs)), groups_(std::move(groups)) {
  // A directory takes entries only once it is in the tree, so "proc" is
  // published before it is populated; the kernel mounts /proc before any
  // process can walk a path. We keep our own counted reference on every
  // node we create (released on removal), so the raw pointers in
  // pid_nodes_/group_nodes_ stay valid.
  proc_dir_ = MakeDir(vfs_.root(), "proc");
  stat_file_ = MakeFile(proc_dir_, "stat", [] { return Stats::Global().RenderText(); });
  share_dir_ = MakeDir(proc_dir_, "share");
}

Procfs::~Procfs() {
  MutexGuard l(refresh_mu_);
  for (auto& [name, ip] : extra_files_) {
    Remove(proc_dir_, name, ip);
  }
  extra_files_.clear();
  for (auto& [pid, node] : pid_nodes_) {
    Remove(node.dir, "status", node.status);
    Remove(proc_dir_, std::to_string(pid), node.dir);
  }
  pid_nodes_.clear();
  for (auto& [gid, ip] : group_nodes_) {
    Remove(share_dir_, std::to_string(gid), ip);
  }
  group_nodes_.clear();
  Remove(proc_dir_, "stat", stat_file_);
  Remove(proc_dir_, "share", share_dir_);
  Remove(vfs_.root(), "proc", proc_dir_);
}

Inode* Procfs::MakeDir(Inode* parent, const std::string& name) {
  auto made = vfs_.inodes().Alloc(InodeType::kDirectory, 0555, 0, 0);
  SG_CHECK(made.ok());
  Inode* dir = made.value();
  // Marks the dir synthetic (user link/unlink inside it is EPERM) and keeps
  // its entries fresh when a path walk enters it directly.
  dir->SetRefreshHook([this] { Refresh(); });
  SG_CHECK(parent->AddEntry(name, dir).ok());
  return dir;
}

Inode* Procfs::MakeFile(Inode* parent, const std::string& name,
                        std::function<std::string()> gen) {
  auto made = vfs_.inodes().Alloc(InodeType::kRegular, 0444, 0, 0);
  SG_CHECK(made.ok());
  Inode* ip = made.value();
  ip->SetGenerator(std::move(gen));  // before publication: immutable after
  SG_CHECK(parent->AddEntry(name, ip).ok());
  return ip;
}

void Procfs::Remove(Inode* parent, const std::string& name, Inode* ip) {
  // A directory goes empty; an open descriptor keeps a file alive until close.
  SG_CHECK(parent->RemoveEntry(name, ip->type() == InodeType::kDirectory).ok());
  Iput(ip);  // our creation reference
}

void Procfs::AddRootFile(const std::string& name, std::function<std::string()> gen) {
  MutexGuard l(refresh_mu_);
  SG_CHECK(extra_files_.count(name) == 0);
  extra_files_.emplace(name, MakeFile(proc_dir_, name, std::move(gen)));
}

void Procfs::Refresh() {
  MutexGuard l(refresh_mu_);

  // --- /proc/<pid> ---
  const std::vector<ProcStatus> procs = procs_();
  std::map<i32, bool> live;
  for (const ProcStatus& p : procs) {
    live[p.pid] = true;
  }
  for (auto it = pid_nodes_.begin(); it != pid_nodes_.end();) {
    if (live.count(it->first) != 0) {
      ++it;
      continue;
    }
    Remove(it->second.dir, "status", it->second.status);
    Remove(proc_dir_, std::to_string(it->first), it->second.dir);
    it = pid_nodes_.erase(it);
  }
  for (const auto& [pid, unused] : live) {
    if (pid_nodes_.count(pid) != 0) {
      continue;
    }
    PidNode node;
    node.dir = MakeDir(proc_dir_, std::to_string(pid));
    const i32 captured = pid;
    node.status = MakeFile(node.dir, "status", [this, captured] { return RenderStatus(captured); });
    pid_nodes_.emplace(pid, node);
  }

  // --- /proc/share/<gid> ---
  const std::vector<GroupStatus> groups = groups_();
  std::map<u64, bool> live_groups;
  for (const GroupStatus& g : groups) {
    live_groups[g.id] = true;
  }
  for (auto it = group_nodes_.begin(); it != group_nodes_.end();) {
    if (live_groups.count(it->first) != 0) {
      ++it;
      continue;
    }
    Remove(share_dir_, std::to_string(it->first), it->second);
    it = group_nodes_.erase(it);
  }
  for (const auto& [gid, unused] : live_groups) {
    if (group_nodes_.count(gid) != 0) {
      continue;
    }
    const u64 captured = gid;
    Inode* ip = MakeFile(share_dir_, std::to_string(gid),
                         [this, captured] { return RenderGroup(captured); });
    group_nodes_.emplace(gid, ip);
  }
}

std::string Procfs::RenderStatus(i32 pid) const {
  for (const ProcStatus& p : procs_()) {
    if (p.pid != pid) {
      continue;
    }
    std::string out;
    out += "pid " + std::to_string(p.pid) + '\n';
    out += "ppid " + std::to_string(p.ppid) + '\n';
    out += "state ";
    out += p.state;
    out += '\n';
    out += "uid " + std::to_string(p.uid) + '\n';
    out += "gid " + std::to_string(p.gid) + '\n';
    out += "shmask " + Hex(p.shmask) + '\n';
    out += "group " + (p.group < 0 ? std::string("-") : std::to_string(p.group)) + '\n';
    out += "syscalls " + std::to_string(p.syscalls) + '\n';
    return out;
  }
  return "gone\n";  // pid died between directory refresh and read
}

std::string Procfs::RenderGroup(u64 gid) const {
  for (const GroupStatus& g : groups_()) {
    if (g.id != gid) {
      continue;
    }
    std::string out;
    out += "group " + std::to_string(g.id) + '\n';
    out += "refcnt " + std::to_string(g.refcnt) + '\n';
    out += "members";
    for (i32 pid : g.members) {
      out += ' ' + std::to_string(pid);
    }
    out += '\n';
    out += "ofiles " + std::to_string(g.ofiles) + '\n';
    out += "rm.shares " + std::to_string(g.rm_shares) + '\n';
    out += "rm.usage_ns " + std::to_string(g.rm_usage_ns) + '\n';
    static const char* kResNames[3] = {"members", "files", "pages"};
    for (int i = 0; i < 3; ++i) {
      out += "rm.cap." + std::string(kResNames[i]) + ' ' + std::to_string(g.rm_cap[i]) + '\n';
      out += "rm.used." + std::string(kResNames[i]) + ' ' + std::to_string(g.rm_used[i]) + '\n';
      // Headroom renders "-" when the cap is 0 (unlimited); a cap lowered
      // below current usage clamps to 0 rather than wrapping.
      out += "rm.headroom." + std::string(kResNames[i]) + ' ';
      if (g.rm_cap[i] == 0) {
        out += '-';
      } else {
        out += std::to_string(g.rm_cap[i] > g.rm_used[i] ? g.rm_cap[i] - g.rm_used[i] : 0);
      }
      out += '\n';
    }
    out += "lock.updates " + std::to_string(g.lock_updates) + '\n';
    out += "lock.update_waits " + std::to_string(g.lock_update_waits) + '\n';
    out += "lock.update_wait.count " + std::to_string(g.lock_update_wait_count) + '\n';
    const u64 avg = g.lock_update_wait_count == 0
                        ? 0
                        : g.lock_update_wait_sum_ns / g.lock_update_wait_count;
    out += "lock.update_wait.avg_ns " + std::to_string(avg) + '\n';
    return out;
  }
  return "gone\n";
}

}  // namespace obs
}  // namespace sg
