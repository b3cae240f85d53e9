#include "ipc/sysv.h"

#include <cstring>

#include "sync/wait.h"

namespace sg {

Status SysvSem::Op(i64 delta) {
  if (delta == 0) {
    return Errno::kEINVAL;
  }
  if (delta > 0) {
    {
      std::lock_guard<std::mutex> l(mu_);
      if (removed_) {
        return Errno::kEIDRM;
      }
      value_ += delta;
    }
    cv_.notify_all();
    return Status::Ok();
  }
  const i64 need = -delta;
  bool slept = false;
  Status st = Status::Ok();
  {
    std::unique_lock<std::mutex> l(mu_);
    st = BlockOn(cv_, l, SleepMode::kInterruptible, &slept,
                 [&] { return removed_ || value_ >= need; });
    if (st.ok()) {
      if (removed_) {
        st = Errno::kEIDRM;
      } else {
        value_ -= need;
      }
    }
  }
  FinishSleep(slept);
  return st;
}

void SysvSem::MarkRemoved() {
  {
    std::lock_guard<std::mutex> l(mu_);
    removed_ = true;
  }
  cv_.notify_all();
}

i64 SysvSem::value() const {
  std::lock_guard<std::mutex> l(mu_);
  return value_;
}

Status SysvMsgQueue::Send(std::span<const std::byte> msg) {
  if (msg.size() > kMaxBytes) {
    return Errno::kEINVAL;
  }
  bool slept = false;
  Status st = Status::Ok();
  {
    std::unique_lock<std::mutex> l(mu_);
    st = BlockOn(cv_, l, SleepMode::kInterruptible, &slept,
                 [&] { return removed_ || bytes_ + msg.size() <= kMaxBytes; });
    if (st.ok()) {
      if (removed_) {
        st = Errno::kEIDRM;
      } else {
        msgs_.emplace_back(msg.begin(), msg.end());
        bytes_ += msg.size();
        cv_.notify_all();
      }
    }
  }
  FinishSleep(slept);
  return st;
}

Result<u64> SysvMsgQueue::Receive(std::span<std::byte> out) {
  bool slept = false;
  Result<u64> result = u64{0};
  {
    std::unique_lock<std::mutex> l(mu_);
    const Status st = BlockOn(cv_, l, SleepMode::kInterruptible, &slept,
                              [&] { return removed_ || !msgs_.empty(); });
    if (!st.ok()) {
      result = st.error();
    } else if (removed_) {
      result = Errno::kEIDRM;
    } else if (msgs_.front().size() > out.size()) {
      result = Errno::kE2BIG;
    } else {
      const std::vector<std::byte>& m = msgs_.front();
      std::memcpy(out.data(), m.data(), m.size());
      result = static_cast<u64>(m.size());
      bytes_ -= m.size();
      msgs_.pop_front();
      cv_.notify_all();
    }
  }
  FinishSleep(slept);
  return result;
}

void SysvMsgQueue::MarkRemoved() {
  {
    std::lock_guard<std::mutex> l(mu_);
    removed_ = true;
  }
  cv_.notify_all();
}

Result<int> SysvIpc::ShmGet(i32 key, u64 bytes) {
  if (bytes == 0) {
    return Errno::kEINVAL;
  }
  std::lock_guard<std::mutex> l(mu_);
  if (key != 0) {
    for (auto& [id, entry] : shm_) {
      if (entry.first == key) {
        if (entry.second->pages() < PagesFor(bytes)) {
          return Errno::kEINVAL;
        }
        return id;
      }
    }
  }
  auto region = Region::Alloc(mem_, RegionType::kShm, PagesFor(bytes));
  const int id = next_id_++;
  shm_.emplace(id, std::make_pair(key, std::move(region)));
  return id;
}

Result<std::shared_ptr<Region>> SysvIpc::ShmRegion(int shmid) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = shm_.find(shmid);
  if (it == shm_.end()) {
    return Errno::kEIDRM;
  }
  return it->second.second;
}

Status SysvIpc::ShmRemove(int shmid) {
  std::lock_guard<std::mutex> l(mu_);
  // Attached address spaces keep the region alive via shared_ptr; removal
  // only deletes the id (IPC_RMID semantics).
  return shm_.erase(shmid) != 0 ? Status::Ok() : Status(Errno::kEIDRM);
}

Result<int> SysvIpc::SemGet(i32 key, i64 initial) {
  std::lock_guard<std::mutex> l(mu_);
  if (key != 0) {
    for (auto& [id, entry] : sems_) {
      if (entry.first == key) {
        return id;
      }
    }
  }
  const int id = next_id_++;
  sems_.emplace(id, std::make_pair(key, std::make_shared<SysvSem>(initial)));
  return id;
}

Result<std::shared_ptr<SysvSem>> SysvIpc::Sem(int semid) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = sems_.find(semid);
  if (it == sems_.end()) {
    return Errno::kEIDRM;
  }
  return it->second.second;
}

Status SysvIpc::SemRemove(int semid) {
  std::shared_ptr<SysvSem> sem;
  {
    std::lock_guard<std::mutex> l(mu_);
    auto it = sems_.find(semid);
    if (it == sems_.end()) {
      return Errno::kEIDRM;
    }
    sem = it->second.second;
    sems_.erase(it);
  }
  sem->MarkRemoved();
  return Status::Ok();
}

Result<int> SysvIpc::MsgGet(i32 key) {
  std::lock_guard<std::mutex> l(mu_);
  if (key != 0) {
    for (auto& [id, entry] : msgs_) {
      if (entry.first == key) {
        return id;
      }
    }
  }
  const int id = next_id_++;
  msgs_.emplace(id, std::make_pair(key, std::make_shared<SysvMsgQueue>()));
  return id;
}

Result<std::shared_ptr<SysvMsgQueue>> SysvIpc::Msg(int msqid) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = msgs_.find(msqid);
  if (it == msgs_.end()) {
    return Errno::kEIDRM;
  }
  return it->second.second;
}

Status SysvIpc::MsgRemove(int msqid) {
  std::shared_ptr<SysvMsgQueue> q;
  {
    std::lock_guard<std::mutex> l(mu_);
    auto it = msgs_.find(msqid);
    if (it == msgs_.end()) {
      return Errno::kEIDRM;
    }
    q = it->second.second;
    msgs_.erase(it);
  }
  q->MarkRemoved();
  return Status::Ok();
}

}  // namespace sg
