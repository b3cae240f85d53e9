// Small-integer id allocation (pids, inode numbers, IPC ids).
#ifndef SRC_BASE_ID_ALLOCATOR_H_
#define SRC_BASE_ID_ALLOCATOR_H_

#include <set>

#include "base/check.h"
#include "base/result.h"
#include "base/types.h"

namespace sg {

// Allocates ids in [first, first + capacity). Freed ids are reused
// lowest-first, matching classic UNIX pid/fd behaviour. Not thread-safe;
// callers hold the owning table's lock.
class IdAllocator {
 public:
  IdAllocator(i64 first, i64 capacity) : first_(first), capacity_(capacity) {
    SG_CHECK(capacity > 0);
    free_.clear();
    next_fresh_ = first;
  }

  // Returns the lowest available id, or kEAGAIN if the space is exhausted.
  Result<i64> Allocate() {
    if (!free_.empty()) {
      i64 id = *free_.begin();
      free_.erase(free_.begin());
      return id;
    }
    if (next_fresh_ >= first_ + capacity_) {
      return Errno::kEAGAIN;
    }
    return next_fresh_++;
  }

  // Returns `id` to the pool. `id` must be currently allocated.
  void Free(i64 id) {
    SG_CHECK(id >= first_ && id < next_fresh_);
    auto [it, inserted] = free_.insert(id);
    (void)it;
    SG_CHECK(inserted);
  }

  i64 InUse() const { return (next_fresh_ - first_) - static_cast<i64>(free_.size()); }

 private:
  i64 first_;
  i64 capacity_;
  i64 next_fresh_;
  std::set<i64> free_;
};

}  // namespace sg

#endif  // SRC_BASE_ID_ALLOCATOR_H_
