// Sticky per-thread slot for state every thread writes on a hot path (stats
// counter shards, epoch pins), handed out round-robin at a thread's first
// call: up to kThreadSlots threads started together write disjoint lines.
#ifndef SRC_BASE_THREAD_SLOT_H_
#define SRC_BASE_THREAD_SLOT_H_

#include <atomic>

#include "base/types.h"

namespace sg {

inline constexpr u32 kThreadSlots = 16;  // power of two

inline u32 ThreadSlot() {
  static std::atomic<u32> next{0};
  thread_local const u32 slot = next.fetch_add(1, std::memory_order_relaxed) & (kThreadSlots - 1);
  return slot;
}

}  // namespace sg

#endif  // SRC_BASE_THREAD_SLOT_H_
