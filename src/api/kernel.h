// Kernel — the syscall layer tying every subsystem together: the V.3
// process model (fork/exec/exit/wait/signals), the filesystem calls, the
// VM calls, System V IPC, and the paper's contribution, sproc(2)/prctl(2)
// with share groups.
//
// Every syscall takes the calling Proc explicitly (the simulated `u.u_procp`)
// and begins with SyscallEnter: the single summary-generation test that
// resynchronizes shared resources (§6.3) plus signal delivery — the same
// kernel-entry hook the paper describes.
#ifndef SRC_API_KERNEL_H_
#define SRC_API_KERNEL_H_

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/image.h"
#include "base/result.h"
#include "base/types.h"
#include "core/shaddr.h"
#include "core/share_mask.h"
#include "fs/vfs.h"
#include "hw/cpu_set.h"
#include "hw/phys_mem.h"
#include "hw/swap.h"
#include "ipc/sysv.h"
#include "obs/procfs.h"
#include "proc/proc.h"
#include "proc/proc_table.h"
#include "proc/scheduler.h"
#include "rm/rm.h"
#include "vm/vm_ops.h"

namespace sg {

struct BootParams {
  u32 ncpus = 4;
  u64 phys_mem_bytes = u64{256} << 20;  // 256 MiB
  u32 max_procs = 512;
  u32 max_inodes = 4096;
  u32 max_files = 4096;
  u32 tlb_entries = 64;
  u64 initial_data_pages = 16;  // data region size of a fresh image
  // Swap device size in pages; 0 = no swap (faults fail hard with ENOMEM
  // when physical memory is exhausted, instead of waking the pager).
  u32 swap_pages = 0;
  // Mount the synthetic /proc filesystem at boot (obs/procfs.h): user
  // processes then read kernel counters and share-group state through
  // ordinary open/read.
  bool mount_procfs = true;
};

struct WaitResult {
  pid_t pid = 0;
  int status = 0;
  int signal = 0;  // nonzero if the child died of a signal
};

struct StatResult {
  ino_t ino = 0;
  InodeType type = InodeType::kRegular;
  mode_t mode = 0;
  uid_t uid = 0;
  gid_t gid = 0;
  u64 size = 0;
  u32 nlink = 0;
};

class Kernel {
 public:
  explicit Kernel(const BootParams& params = {});
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // ----- boot / lifecycle -----
  // Starts an initial user process with a fresh image; parented to the
  // kernel (reaped by WaitAll).
  Result<pid_t> Launch(UserFn main, long arg = 0);
  // Blocks until every process has exited and been reaped.
  void WaitAll();

  // ----- the paper's interface (§5) -----
  // sproc(entry, shmask, arg): creates a process in the caller's share
  // group (creating the group on first use), sharing the resources in
  // `shmask` (strict-inheritance-masked against the caller's own mask).
  Result<pid_t> Sproc(Proc& p, UserFn entry, u32 shmask, long arg = 0);
  // prctl(option, value).
  Result<i64> Prctl(Proc& p, u32 option, i64 value = 0);

  // ----- process control -----
  Result<pid_t> Fork(Proc& p, UserFn entry, long arg = 0);
  // Replaces the image; removes the caller from its share group first
  // (§5.1). Returns only on failure; on success runs img.main and exits.
  Status Exec(Proc& p, const Image& img, long arg = 0);
  [[noreturn]] void Exit(Proc& p, int status);
  Result<WaitResult> Wait(Proc& p);
  Status Kill(Proc& p, pid_t target, int sig);
  Status Sigaction(Proc& p, int sig, SigDisp disp, std::function<void(int)> handler = {});
  Result<u32> Sigsetmask(Proc& p, u32 mask);
  Status Pause(Proc& p);
  // Race-free pause (System V sigpause flavor): if a handler has run since
  // the caller last checked — including for a signal already pending at
  // entry — returns immediately instead of sleeping.
  Status Sigpause(Proc& p);
  void Yield(Proc& p);
  pid_t Getpid(Proc& p) const { return p.pid; }
  pid_t Getppid(Proc& p) const { return p.ppid.load(std::memory_order_relaxed); }
  Status Setuid(Proc& p, uid_t uid);
  Status Setgid(Proc& p, gid_t gid);
  // Real kernel entries: a group member sharing PR_SID synchronizes its ids
  // here (§6.3 — the sync happens on ANY kernel entry, including getuid).
  uid_t Getuid(Proc& p) {
    SyscallEnter(p);
    const uid_t u = p.uid;
    SyscallExit(p);
    return u;
  }
  gid_t Getgid(Proc& p) {
    SyscallEnter(p);
    const gid_t g = p.gid;
    SyscallExit(p);
    return g;
  }
  Result<mode_t> Umask(Proc& p, mode_t mask);  // returns the previous mask
  Result<u64> UlimitGet(Proc& p);
  Status UlimitSet(Proc& p, u64 bytes);  // only root may raise

  // ----- virtual memory -----
  Result<vaddr_t> Sbrk(Proc& p, i64 delta);
  Result<vaddr_t> Mmap(Proc& p, u64 bytes, u32 prot = kProtRw);
  Status Munmap(Proc& p, vaddr_t base);
  // File-backed mapping of `len` bytes of `fd` at byte `offset` (§7 names
  // "mapping or unmapping files" as the VM-heavy workload). A shared
  // mapping (requires a writable fd) writes dirty pages back at Msync and
  // munmap and stays shared across fork; a private one is COW.
  Result<vaddr_t> MapFile(Proc& p, int fd, u64 offset, u64 len, bool shared_mapping);
  Status Msync(Proc& p, vaddr_t base);

  // ----- filesystem -----
  Result<int> Open(Proc& p, std::string_view path, u32 flags, mode_t mode = 0644);
  Status Close(Proc& p, int fd);
  Result<int> Dup(Proc& p, int fd);
  Result<int> Dup2(Proc& p, int fd, int newfd);
  // fcntl(F_SETFD/F_GETFD) equivalent: the per-descriptor flag byte the
  // share block mirrors in s_pofile. Propagates like any fd-table change.
  Status SetCloexec(Proc& p, int fd, bool on);
  Result<bool> GetCloexec(Proc& p, int fd);
  Result<std::pair<int, int>> MakePipe(Proc& p);
  // User-buffer I/O (through the simulated VM).
  Result<u64> Read(Proc& p, int fd, vaddr_t ubuf, u64 len);
  Result<u64> Write(Proc& p, int fd, vaddr_t ubuf, u64 len);
  // Kernel-buffer I/O (tests, program loaders).
  Result<u64> ReadK(Proc& p, int fd, std::span<std::byte> out);
  Result<u64> WriteK(Proc& p, int fd, std::span<const std::byte> in);
  Result<u64> Lseek(Proc& p, int fd, i64 off, SeekWhence whence);
  Status Mkdir(Proc& p, std::string_view path, mode_t mode = 0755);
  Status Link(Proc& p, std::string_view existing, std::string_view newpath);
  Status Unlink(Proc& p, std::string_view path);
  Status Rmdir(Proc& p, std::string_view path);
  Status Chdir(Proc& p, std::string_view path);
  Status Chroot(Proc& p, std::string_view path);
  Result<StatResult> Stat(Proc& p, std::string_view path);
  Result<StatResult> Fstat(Proc& p, int fd);
  Status Chmod(Proc& p, std::string_view path, mode_t mode);
  // Absolute path of the working directory, relative to the process's root
  // (so a chroot jail reports "/" at its own root).
  Result<std::string> Getcwd(Proc& p);
  // Directory entries of `path` (readdir), sorted; requires read permission.
  Result<std::vector<std::string>> ListDir(Proc& p, std::string_view path);

  // ----- System V IPC (baselines; ipc/sysv.h) -----
  Result<int> Shmget(Proc& p, i32 key, u64 bytes);
  Result<vaddr_t> Shmat(Proc& p, int shmid);
  Status Shmdt(Proc& p, vaddr_t base);
  Status ShmRemove(Proc& p, int shmid);
  Result<int> Semget(Proc& p, i32 key, i64 initial);
  Status SemOp(Proc& p, int semid, i64 delta);  // negative P (may sleep), positive V
  Status SemRemove(Proc& p, int semid);
  Result<int> Msgget(Proc& p, i32 key);
  Status Msgsnd(Proc& p, int msqid, std::span<const std::byte> msg);
  Result<u64> Msgrcv(Proc& p, int msqid, std::span<std::byte> out);
  // User-buffer variants (copy through the simulated VM, like real
  // msgsnd/msgrcv copy through the user/kernel boundary).
  Status MsgsndU(Proc& p, int msqid, vaddr_t msg, u64 len);
  Result<u64> MsgrcvU(Proc& p, int msqid, vaddr_t out, u64 cap);
  Status MsgRemove(Proc& p, int msqid);

  // ----- introspection (tests, benches) -----
  Scheduler& sched() { return sched_; }
  CpuSet& cpus() { return cpus_; }
  PhysMem& mem() { return mem_; }
  SwapSpace* swap() { return swap_.get(); }
  Vfs& vfs() { return vfs_; }
  ProcTable& procs() { return procs_; }
  SysvIpc& ipc() { return ipc_; }
  // The share block of `p`, if any (tests).
  ShaddrBlock* BlockOf(Proc& p) { return p.shaddr; }
  u64 LiveBlocks() const;
  // The mounted /proc (null when booted with mount_procfs = false).
  obs::Procfs* procfs() { return procfs_.get(); }

  // Marks kernel entry explicitly (benches measuring entry cost).
  void SyscallEnter(Proc& p);
  void SyscallExit(Proc& p);

 private:
  // Builds a fresh private image (text/data/stack/PRDA) for `p`.
  Status BuildImage(Proc& p, const Image& img);
  // Creates the always-private PRDA page (§5.1).
  static void CreatePrda(AddressSpace& as, PhysMem& mem);
  // Allocates a stack region for `p`: in the group's shared space when
  // `shared_stack` (visible to all members), else private.
  Status AllocStack(Proc& p, bool shared_stack);
  // Copies the non-VM u-area from parent to child (fds/dirs/ids/limits,
  // signal dispositions).
  void InheritUArea(Proc& parent, Proc& child);
  // Drops the u-area's own counted references (descriptors, cwd, root):
  // exit, and a child whose creation failed. A share group's master copies
  // hold their own counts (§6.3) and die with the block.
  void ReleaseUArea(Proc& p);
  // Unwinds a half-built child that never ran.
  void AbortEmbryo(Proc* c);
  // Binds the entry closure and spawns the host thread.
  void StartProcThread(Proc* c, UserFn fn, long arg);
  // Thread body of every simulated process.
  void ProcMain(Proc* p);
  // Exit/kill teardown, on the process's own thread.
  void TerminateProcess(Proc& p, int status, int signal);
  // Unlinks `p` from its share group (exit, exec, a failed sproc's child);
  // the last member tears the block down.
  void LeaveGroup(Proc& p);
  // Reaps `z` (already a zombie): joins its thread and frees the slot.
  WaitResult Reap(Proc* z);

  // Snapshot providers behind /proc (obs/procfs.h).
  std::vector<obs::ProcStatus> SnapshotProcs();
  std::vector<obs::GroupStatus> SnapshotGroups();

  Cred CredOf(const Proc& p) const { return Cred{p.uid, p.gid}; }
  // The share block through which p updates the resource `share` (a PR_S*
  // bit), or null if p does not share it. One atomic snapshot of p.shaddr:
  // identity (shaddr + p_shmask) is published before link and cleared
  // before unlink, so a non-null b with the bit set is safe to use here.
  static ShaddrBlock* SharedBlock(Proc& p, u32 share) {
    ShaddrBlock* b = p.shaddr;
    return (b != nullptr && (p.p_shmask & share) != 0) ? b : nullptr;
  }
  // Applies change(p) to p's copy of the scalar resource `r` (dir, ids,
  // umask, ulimit): through the block's update protocol when p shares it.
  template <typename Fn>
  static void ChangeScalar(Proc& p, SyncRes r, Fn&& change) {
    if (ShaddrBlock* b = SharedBlock(p, ShaddrBlock::kSyncTable[r].share); b != nullptr) {
      b->UpdateScalar(p, r, change);
    } else {
      change(p);
    }
  }

  BootParams params_;
  PhysMem mem_;
  std::unique_ptr<SwapSpace> swap_;  // null when booted without swap
  CpuSet cpus_;
  Scheduler sched_;
  // The fair-share manager. Declared before blocks_ (and thus destroyed
  // after it): every ShaddrBlock's rm node leaves it at teardown.
  rm::ResourceManager rm_;
  Vfs vfs_;
  ProcTable procs_;
  SysvIpc ipc_;

  mutable std::mutex blocks_mu_;
  std::map<ShaddrBlock*, std::unique_ptr<ShaddrBlock>> blocks_;

  // Declared after vfs_/procs_/blocks_: destroyed first, so /proc is
  // unmounted while the inode table is still fully alive.
  std::unique_ptr<obs::Procfs> procfs_;

  // Exit/reap coordination: zombies bump the generation and notify.
  std::mutex reap_mu_;
  std::condition_variable reap_cv_;
};

}  // namespace sg

#endif  // SRC_API_KERNEL_H_
