// Env — the "C library" of a simulated process: libc-flavored syscall
// wrappers (-1 on error), memory access through the simulated VM, and the
// user-level busy-wait synchronization of §3.
//
// errno lives in the PRDA (§5.1): "The C library could locate a copy of
// errno in the PRDA for a process" — so even with a fully shared data
// space, each member sees its own errno. Slot 0 of the PRDA page holds it;
// the remaining bytes are free for the program (PrdaUserBase).
#ifndef SRC_API_USER_ENV_H_
#define SRC_API_USER_ENV_H_

#include <span>
#include <string_view>

#include "api/image.h"
#include "api/kernel.h"
#include "base/types.h"
#include "vm/access.h"
#include "vm/layout.h"

namespace sg {

class Env {
 public:
  Env(Kernel& k, Proc& p) : k_(k), p_(p) {}

  Kernel& kernel() { return k_; }
  Proc& proc() { return p_; }
  pid_t Pid() const { return p_.pid; }
  pid_t Ppid() const { return p_.ppid.load(std::memory_order_relaxed); }

  // ----- errno in the PRDA -----
  static constexpr vaddr_t kErrnoAddr = kPrdaBase;        // u32 slot
  static constexpr vaddr_t PrdaUserBase() { return kPrdaBase + 8; }
  Errno LastError() {
    auto v = AtomicLoad32(p_.as, kErrnoAddr);
    return v.ok() ? static_cast<Errno>(v.value()) : Errno::kEFAULT;
  }
  void SetError(Errno e) { (void)AtomicStore32(p_.as, kErrnoAddr, static_cast<u32>(e)); }

  // ----- the paper's interface -----
  pid_t Sproc(UserFn fn, u32 shmask, long arg = 0) {
    return Ret(k_.Sproc(p_, std::move(fn), shmask, arg));
  }
  i64 Prctl(u32 option, i64 value = 0) { return Ret(k_.Prctl(p_, option, value)); }

  // ----- processes -----
  pid_t Fork(UserFn fn, long arg = 0) { return Ret(k_.Fork(p_, std::move(fn), arg)); }
  int Exec(const Image& img, long arg = 0) { return Ret0(k_.Exec(p_, img, arg)); }
  [[noreturn]] void Exit(int status) { k_.Exit(p_, status); }
  // Returns the reaped child's pid, or -1; fills *status / *sig if given.
  pid_t WaitChild(int* status = nullptr, int* sig = nullptr) {
    auto r = k_.Wait(p_);
    if (!r.ok()) {
      SetError(r.error());
      return -1;
    }
    if (status != nullptr) {
      *status = r.value().status;
    }
    if (sig != nullptr) {
      *sig = r.value().signal;
    }
    return r.value().pid;
  }
  int Kill(pid_t pid, int sig) { return Ret0(k_.Kill(p_, pid, sig)); }
  int Signal(int sig, std::function<void(int)> handler) {
    return Ret0(k_.Sigaction(p_, sig, SigDisp::kHandler, std::move(handler)));
  }
  int SignalIgnore(int sig) { return Ret0(k_.Sigaction(p_, sig, SigDisp::kIgnore)); }
  int SignalDefault(int sig) { return Ret0(k_.Sigaction(p_, sig, SigDisp::kDefault)); }
  int Pause() { return Ret0(k_.Pause(p_)); }
  int Sigpause() { return Ret0(k_.Sigpause(p_)); }
  void Yield() { k_.Yield(p_); }
  int Setuid(uid_t uid) { return Ret0(k_.Setuid(p_, uid)); }
  int Setgid(gid_t gid) { return Ret0(k_.Setgid(p_, gid)); }
  uid_t Getuid() { return k_.Getuid(p_); }
  mode_t Umask(mode_t mask) { return k_.Umask(p_, mask).value_or(0); }
  i64 UlimitGet() { return Ret(k_.UlimitGet(p_)); }
  int UlimitSet(u64 bytes) { return Ret0(k_.UlimitSet(p_, bytes)); }

  // ----- files -----
  int Open(std::string_view path, u32 flags, mode_t mode = 0644) {
    return Ret(k_.Open(p_, path, flags, mode));
  }
  int Close(int fd) { return Ret0(k_.Close(p_, fd)); }
  int Dup(int fd) { return Ret(k_.Dup(p_, fd)); }
  int Dup2(int fd, int newfd) { return Ret(k_.Dup2(p_, fd, newfd)); }
  int Pipe(int* rd, int* wr) {
    auto r = k_.MakePipe(p_);
    if (!r.ok()) {
      SetError(r.error());
      return -1;
    }
    *rd = r.value().first;
    *wr = r.value().second;
    return 0;
  }
  i64 Read(int fd, vaddr_t buf, u64 n) { return Ret(k_.Read(p_, fd, buf, n)); }
  i64 Write(int fd, vaddr_t buf, u64 n) { return Ret(k_.Write(p_, fd, buf, n)); }
  i64 ReadBuf(int fd, std::span<std::byte> out) { return Ret(k_.ReadK(p_, fd, out)); }
  i64 WriteBuf(int fd, std::span<const std::byte> in) { return Ret(k_.WriteK(p_, fd, in)); }
  i64 WriteStr(int fd, std::string_view s) {
    return WriteBuf(fd, std::as_bytes(std::span<const char>(s.data(), s.size())));
  }
  i64 Lseek(int fd, i64 off, SeekWhence whence = SeekWhence::kSet) {
    return Ret(k_.Lseek(p_, fd, off, whence));
  }
  int SetCloexec(int fd, bool on) { return Ret0(k_.SetCloexec(p_, fd, on)); }
  std::vector<std::string> ListDir(std::string_view path) {
    auto r = k_.ListDir(p_, path);
    if (!r.ok()) {
      SetError(r.error());
      return {};
    }
    return std::move(r).value();
  }
  std::string Getcwd() {
    auto r = k_.Getcwd(p_);
    if (!r.ok()) {
      SetError(r.error());
      return {};
    }
    return std::move(r).value();
  }
  int Mkdir(std::string_view path, mode_t mode = 0755) { return Ret0(k_.Mkdir(p_, path, mode)); }
  int Unlink(std::string_view path) { return Ret0(k_.Unlink(p_, path)); }
  int Chdir(std::string_view path) { return Ret0(k_.Chdir(p_, path)); }
  int Chroot(std::string_view path) { return Ret0(k_.Chroot(p_, path)); }

  // ----- memory -----
  vaddr_t Sbrk(i64 delta) {
    auto r = k_.Sbrk(p_, delta);
    if (!r.ok()) {
      SetError(r.error());
      return 0;
    }
    return r.value();
  }
  vaddr_t Mmap(u64 bytes, u32 prot = kProtRw) {
    auto r = k_.Mmap(p_, bytes, prot);
    if (!r.ok()) {
      SetError(r.error());
      return 0;
    }
    return r.value();
  }
  int Munmap(vaddr_t base) { return Ret0(k_.Munmap(p_, base)); }
  vaddr_t MmapFile(int fd, u64 offset, u64 len, bool shared_mapping) {
    auto r = k_.MapFile(p_, fd, offset, len, shared_mapping);
    if (!r.ok()) {
      SetError(r.error());
      return 0;
    }
    return r.value();
  }
  int Msync(vaddr_t base) { return Ret0(k_.Msync(p_, base)); }

  // Scalar access through the TLB + fault path. A bad address raises
  // SIGSEGV exactly like a hardware access would.
  template <typename T>
  T Load(vaddr_t va) {
    auto r = sg::Load<T>(p_.as, va);
    if (!r.ok()) {
      MemoryFault();
    }
    return r.value();
  }
  template <typename T>
  void Store(vaddr_t va, T value) {
    Status st = sg::Store<T>(p_.as, va, value);
    if (!st.ok()) {
      MemoryFault();
    }
  }
  u32 Load32(vaddr_t va) { return Load<u32>(va); }
  void Store32(vaddr_t va, u32 v) { Store<u32>(va, v); }

  // Word atomics (the "hardware supported lock" substrate of §3).
  u32 FetchAdd32(vaddr_t va, u32 delta) {
    auto r = AtomicFetchAdd32(p_.as, va, delta);
    if (!r.ok()) {
      MemoryFault();
    }
    return r.value();
  }
  // True if *va went expected -> desired.
  bool Cas32(vaddr_t va, u32 expected, u32 desired) {
    auto r = AtomicCas32(p_.as, va, expected, desired);
    if (!r.ok()) {
      MemoryFault();
    }
    return r.value() == expected;
  }
  u32 AtomicRead32(vaddr_t va) {
    auto r = AtomicLoad32(p_.as, va);
    if (!r.ok()) {
      MemoryFault();
    }
    return r.value();
  }
  void AtomicWrite32(vaddr_t va, u32 v) {
    Status st = AtomicStore32(p_.as, va, v);
    if (!st.ok()) {
      MemoryFault();
    }
  }

  // ----- user-level busy-wait synchronization (§3) -----
  // Spinlock over a shared u32 word (0 = free, 1 = held). "With busy-
  // waiting ... synchronization speeds can approach memory access speeds."
  // Spins yield periodically so a preempted holder can run even when the
  // group exceeds the processor count.
  void SpinLock(vaddr_t word) {
    u32 spins = 0;
    while (!Cas32(word, 0, 1)) {
      while (AtomicRead32(word) != 0) {
        CpuRelax();
        if (++spins % 1024 == 0) {
          k_.Yield(p_);
        }
      }
    }
  }
  bool SpinTryLock(vaddr_t word) { return Cas32(word, 0, 1); }
  void SpinUnlock(vaddr_t word) { AtomicWrite32(word, 0); }

  // Sense-reversing spin barrier over two shared u32 words
  // (word: arrival count, word+4: generation).
  void SpinBarrier(vaddr_t word, u32 parties) {
    const u32 gen = AtomicRead32(word + 4);
    if (FetchAdd32(word, 1) + 1 == parties) {
      AtomicWrite32(word, 0);
      FetchAdd32(word + 4, 1);  // release everyone
    } else {
      u32 spins = 0;
      while (AtomicRead32(word + 4) == gen) {
        CpuRelax();
        if (++spins % 1024 == 0) {
          k_.Yield(p_);
        }
      }
    }
  }

  // System V IPC wrappers.
  int Shmget(i32 key, u64 bytes) { return Ret(k_.Shmget(p_, key, bytes)); }
  vaddr_t Shmat(int shmid) {
    auto r = k_.Shmat(p_, shmid);
    if (!r.ok()) {
      SetError(r.error());
      return 0;
    }
    return r.value();
  }
  int Shmdt(vaddr_t base) { return Ret0(k_.Shmdt(p_, base)); }
  int Semget(i32 key, i64 initial) { return Ret(k_.Semget(p_, key, initial)); }
  int SemOp(int semid, i64 delta) { return Ret0(k_.SemOp(p_, semid, delta)); }
  int Msgget(i32 key) { return Ret(k_.Msgget(p_, key)); }
  int Msgsnd(int msqid, std::span<const std::byte> m) { return Ret0(k_.Msgsnd(p_, msqid, m)); }
  i64 Msgrcv(int msqid, std::span<std::byte> out) { return Ret(k_.Msgrcv(p_, msqid, out)); }
  int MsgsndU(int msqid, vaddr_t msg, u64 len) { return Ret0(k_.MsgsndU(p_, msqid, msg, len)); }
  i64 MsgrcvU(int msqid, vaddr_t out, u64 cap) { return Ret(k_.MsgrcvU(p_, msqid, out, cap)); }

 private:
  // Converts Result<T> to the libc convention.
  template <typename T>
  i64 Ret(const Result<T>& r) {
    if (!r.ok()) {
      SetError(r.error());
      return -1;
    }
    return static_cast<i64>(r.value());
  }
  int Ret0(Status st) {
    if (!st.ok()) {
      SetError(st.error());
      return -1;
    }
    return 0;
  }

  // A failed user memory access: post SIGSEGV to ourselves and take the
  // kernel-entry path so it is delivered (default: terminate).
  [[noreturn]] void MemoryFault();

  Kernel& k_;
  Proc& p_;
};

}  // namespace sg

#endif  // SRC_API_USER_ENV_H_
