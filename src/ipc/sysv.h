// System V IPC — the "turned inward" baseline of §2: shared-memory
// segments, kernel semaphores, and message queues. These are the mechanisms
// the paper contrasts with share groups: SysV shm gives the bandwidth but
// "suffers from synchronization mechanisms which require kernel
// interaction"; message queues are the copy-twice queueing path.
//
// E5 (bandwidth) and E6 (synchronization latency) run against these.
#ifndef SRC_IPC_SYSV_H_
#define SRC_IPC_SYSV_H_

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "base/result.h"
#include "base/types.h"
#include "hw/phys_mem.h"
#include "vm/region.h"

namespace sg {

// A kernel-mediated counting semaphore with semop(2)-style operations and
// IPC_RMID semantics (sleepers are woken with kEIDRM).
class SysvSem {
 public:
  explicit SysvSem(i64 initial) : value_(initial) {}

  // delta < 0: P-type — sleeps until value >= |delta| (kernel interaction,
  // the §2 cost). delta > 0: V-type — adds and wakes. delta == 0: waits for
  // zero (unsupported here: kEINVAL).
  Status Op(i64 delta);

  void MarkRemoved();
  i64 value() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  i64 value_;
  bool removed_ = false;
};

// A message queue: bounded buffer of discrete messages, copied in and out.
class SysvMsgQueue {
 public:
  static constexpr u64 kMaxBytes = 16384;  // MSGMNB-style queue capacity

  Status Send(std::span<const std::byte> msg);
  // Receives the oldest message into `out`; kE2BIG if it does not fit.
  Result<u64> Receive(std::span<std::byte> out);

  void MarkRemoved();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::vector<std::byte>> msgs_;
  u64 bytes_ = 0;
  bool removed_ = false;
};

// Id-keyed tables for the three IPC families. `key` selects an existing
// object (creating on first use); key 0 always creates a fresh private one.
class SysvIpc {
 public:
  explicit SysvIpc(PhysMem& mem) : mem_(mem) {}
  SysvIpc(const SysvIpc&) = delete;
  SysvIpc& operator=(const SysvIpc&) = delete;

  Result<int> ShmGet(i32 key, u64 bytes);
  Result<std::shared_ptr<Region>> ShmRegion(int shmid);
  Status ShmRemove(int shmid);

  Result<int> SemGet(i32 key, i64 initial);
  Result<std::shared_ptr<SysvSem>> Sem(int semid);
  Status SemRemove(int semid);

  Result<int> MsgGet(i32 key);
  Result<std::shared_ptr<SysvMsgQueue>> Msg(int msqid);
  Status MsgRemove(int msqid);

 private:
  PhysMem& mem_;
  std::mutex mu_;
  int next_id_ = 1;
  std::map<int, std::pair<i32, std::shared_ptr<Region>>> shm_;        // id -> (key, segment)
  std::map<int, std::pair<i32, std::shared_ptr<SysvSem>>> sems_;      // id -> (key, sem)
  std::map<int, std::pair<i32, std::shared_ptr<SysvMsgQueue>>> msgs_;  // id -> (key, queue)
};

}  // namespace sg

#endif  // SRC_IPC_SYSV_H_
