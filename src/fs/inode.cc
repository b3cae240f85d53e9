#include "fs/inode.h"

#include <cstring>

#include "base/check.h"
#include "fs/pipe.h"

namespace sg {

Inode::Inode(ino_t ino, InodeType type, mode_t mode, uid_t uid, gid_t gid,
             std::atomic<u64>& live)
    : ino_(ino), type_(type), live_(live), mode_(mode), uid_(uid), gid_(gid) {}

Inode::~Inode() = default;

mode_t Inode::mode() const {
  std::lock_guard<std::mutex> l(mu_);
  return mode_;
}

void Inode::set_mode(mode_t m) {
  std::lock_guard<std::mutex> l(mu_);
  mode_ = m & kModeAll;
}

uid_t Inode::uid() const {
  std::lock_guard<std::mutex> l(mu_);
  return uid_;
}

gid_t Inode::gid() const {
  std::lock_guard<std::mutex> l(mu_);
  return gid_;
}

void Inode::set_owner(uid_t u, gid_t g) {
  std::lock_guard<std::mutex> l(mu_);
  uid_ = u;
  gid_ = g;
}

u64 Inode::Size() const {
  if (gen_) {
    return gen_().size();
  }
  std::lock_guard<std::mutex> l(mu_);
  return data_.size();
}

u64 Inode::ReadAt(u64 off, std::byte* out, u64 len) const {
  if (gen_) {
    const std::string text = gen_();
    if (off >= text.size()) {
      return 0;
    }
    const u64 n = std::min<u64>(len, text.size() - off);
    std::memcpy(out, text.data() + off, n);
    return n;
  }
  std::lock_guard<std::mutex> l(mu_);
  if (off >= data_.size()) {
    return 0;
  }
  const u64 n = std::min<u64>(len, data_.size() - off);
  std::memcpy(out, data_.data() + off, n);
  return n;
}

u64 Inode::WriteAt(u64 off, const std::byte* src, u64 len, u64 limit) {
  std::lock_guard<std::mutex> l(mu_);
  if (off >= limit) {
    return 0;  // ulimit reached — caller reports EFBIG
  }
  const u64 n = std::min<u64>(len, limit - off);
  if (off + n > data_.size()) {
    data_.resize(off + n);
  }
  std::memcpy(data_.data() + off, src, n);
  return n;
}

void Inode::Truncate() {
  if (gen_) {
    return;  // synthetic files have no stored data to drop
  }
  std::lock_guard<std::mutex> l(mu_);
  data_.clear();
}

Result<Inode*> Inode::Lookup(const std::string& name) const {
  std::lock_guard<std::mutex> l(mu_);
  Inode* found = dotdot_;
  if (name != "..") {
    auto it = entries_.find(name);
    found = it == entries_.end() ? nullptr : it->second;
  }
  if (found == nullptr) {
    return Errno::kENOENT;
  }
  return Iget(found);
}

Status Inode::AddEntry(const std::string& name, Inode* child) {
  std::lock_guard<std::mutex> l(mu_);
  if (dotdot_ == nullptr) {
    return Errno::kENOENT;
  }
  if (!entries_.emplace(name, child).second) {
    return Errno::kEEXIST;
  }
  child->count_.fetch_add(kLink, std::memory_order_relaxed);
  if (child->type_ == InodeType::kDirectory) {
    std::lock_guard<std::mutex> cl(child->mu_);
    child->dotdot_ = this;
  }
  return Status::Ok();
}

Status Inode::RemoveEntry(const std::string& name, bool dir) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Errno::kENOENT;
  }
  Inode* child = it->second;
  if ((child->type_ == InodeType::kDirectory) != dir) {
    return dir ? Errno::kENOTDIR : Errno::kEISDIR;
  }
  if (dir) {
    std::lock_guard<std::mutex> cl(child->mu_);
    if (!child->entries_.empty()) {
      return Errno::kENOTEMPTY;
    }
    child->dotdot_ = nullptr;
  }
  entries_.erase(it);
  Drop(child, kLink);  // open references keep the data alive until closed
  return Status::Ok();
}

Result<std::string> Inode::NameOf(const Inode* child) const {
  std::lock_guard<std::mutex> l(mu_);
  for (const auto& [name, ip] : entries_) {
    if (ip == child) {
      return name;
    }
  }
  return Errno::kENOENT;
}

std::vector<std::string> Inode::ListEntries() const {
  std::lock_guard<std::mutex> l(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, ino] : entries_) {
    out.push_back(name);
  }
  return out;
}

void Inode::AttachPipe(std::unique_ptr<Pipe> p) {
  std::lock_guard<std::mutex> l(mu_);
  SG_CHECK(type_ == InodeType::kPipe && pipe_ == nullptr);
  pipe_ = std::move(p);
}

bool Permits(const Inode& ip, uid_t uid, gid_t gid, Access want) {
  if (uid == 0) {
    return true;  // superuser
  }
  const mode_t m = ip.mode();
  mode_t bit;
  if (uid == ip.uid()) {
    bit = want == Access::kRead ? kModeUserR : want == Access::kWrite ? kModeUserW : kModeUserX;
  } else if (gid == ip.gid()) {
    bit = want == Access::kRead ? kModeGroupR : want == Access::kWrite ? kModeGroupW : kModeGroupX;
  } else {
    bit = want == Access::kRead ? kModeOtherR : want == Access::kWrite ? kModeOtherW : kModeOtherX;
  }
  return (m & bit) != 0;
}

void Inode::Drop(Inode* ip, u64 unit) {
  // acq_rel, as for an open file: the release half publishes this holder's
  // writes to whoever frees; the acquire half makes the freer see them.
  const u64 prev = ip->count_.fetch_sub(unit, std::memory_order_acq_rel);
  SG_CHECK(unit == kLink ? prev >= kLink : static_cast<u32>(prev) > 0);
  if (prev != unit) {
    return;
  }
  ip->live_.fetch_sub(1, std::memory_order_acq_rel);
  for (const auto& [name, child] : ip->entries_) {  // sole owner: no mu_
    Drop(child, kLink);
  }
  delete ip;
}

Inode* Iget(Inode* ip) {
  const u64 prev = ip->count_.fetch_add(Inode::kRef, std::memory_order_relaxed);
  SG_CHECK(prev != 0);  // taking a freed inode would resurrect it
  return ip;
}

void Iput(Inode* ip) { Inode::Drop(ip, Inode::kRef); }

Result<Inode*> InodeTable::Alloc(InodeType type, mode_t mode, uid_t uid, gid_t gid) {
  // Claim a slot in the budget first; roll back on ENOSPC.
  if (count_.fetch_add(1, std::memory_order_acq_rel) >= max_inodes_) {
    count_.fetch_sub(1, std::memory_order_acq_rel);
    return Errno::kENOSPC;
  }
  return new Inode(next_ino_.fetch_add(1, std::memory_order_relaxed), type,
                   static_cast<mode_t>(mode & kModeAll), uid, gid, count_);
}

}  // namespace sg
