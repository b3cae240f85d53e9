// User-memory access layer: every simulated user load/store translates
// through the process's TLB and, on a miss, enters HandleFault — the page
// fault path of §6.2 (scan private pregions then shared, resolve the page,
// refill the TLB; lockless for the shared image, DESIGN.md §4h).
//
// Access atomicity: the byte transfer runs under Tlb::WithEntry, so a
// concurrent cross-processor shootdown orders strictly before or after any
// in-flight access — exactly the guarantee the hardware TLB gives a real
// kernel. After a shootdown, the next access misses, faults, and blocks on
// the group's update lock until the updater releases it.
#ifndef SRC_VM_ACCESS_H_
#define SRC_VM_ACCESS_H_

#include <atomic>
#include <cstring>
#include <span>

#include "base/result.h"
#include "base/types.h"
#include "vm/address_space.h"

namespace sg {

// The TLB-miss / protection-fault handler. Returns kOk once a translation
// for `va` with (at least) the requested permission is installed in the
// TLB; kEFAULT for an unmapped/forbidden address; kENOMEM when physical
// memory is exhausted.
Status HandleFault(AddressSpace& as, vaddr_t va, bool want_write);

// True when a T access is a single instruction on the simulated hardware:
// a naturally-aligned scalar no wider than a machine word. Such accesses go
// through std::atomic_ref (relaxed), giving the per-instruction atomicity
// real hardware provides — a guest word store never tears against a
// concurrent guest word load, even though neither used the Atomic* API.
template <typename T>
inline constexpr bool kSingleInstructionAccess =
    std::is_scalar_v<T> && sizeof(T) == alignof(T) && sizeof(T) <= sizeof(u64);

// Scalar load/store. T must be trivially copyable; the access must not
// cross a page boundary (naturally aligned accesses never do).
template <typename T>
Result<T> Load(AddressSpace& as, vaddr_t va) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (va % alignof(T) != 0) {
    return Errno::kEFAULT;
  }
  T out;
  for (;;) {
    const bool hit = as.tlb().WithEntry(PageOf(va), /*want_write=*/false, [&](pfn_t pfn) {
      std::byte* p = as.mem().FrameData(pfn) + (va & kPageMask);
      if constexpr (kSingleInstructionAccess<T>) {
        out = std::atomic_ref<T>(*reinterpret_cast<T*>(p)).load(std::memory_order_relaxed);
      } else {
        std::memcpy(&out, p, sizeof(T));
      }
    });
    if (hit) {
      return out;
    }
    SG_RETURN_IF_ERROR(HandleFault(as, va, /*want_write=*/false));
  }
}

template <typename T>
Status Store(AddressSpace& as, vaddr_t va, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (va % alignof(T) != 0) {
    return Errno::kEFAULT;
  }
  for (;;) {
    const bool hit = as.tlb().WithEntry(PageOf(va), /*want_write=*/true, [&](pfn_t pfn) {
      std::byte* p = as.mem().FrameData(pfn) + (va & kPageMask);
      if constexpr (kSingleInstructionAccess<T>) {
        std::atomic_ref<T>(*reinterpret_cast<T*>(p)).store(value, std::memory_order_relaxed);
      } else {
        std::memcpy(p, &value, sizeof(T));
      }
    });
    if (hit) {
      return Status::Ok();
    }
    SG_RETURN_IF_ERROR(HandleFault(as, va, /*want_write=*/true));
  }
}

// Bulk transfer between kernel buffers and user space (syscall copyin /
// copyout), page-at-a-time through the TLB.
Status CopyIn(AddressSpace& as, void* dst, vaddr_t src, u64 len);
Status CopyOut(AddressSpace& as, vaddr_t dst, const void* src, u64 len);

// Fills [dst, dst+len) with `byte`.
Status FillUser(AddressSpace& as, vaddr_t dst, u8 byte, u64 len);

// Word atomics on user memory — the substrate for user-level busy-wait
// locks (§3: "best performance is obtained using some form of busy-waiting
// ... with hardware support, synchronization speeds can approach memory
// access speeds"). `va` must be 4-byte aligned: a misaligned `va` is a
// contract violation and returns kEINVAL (kEFAULT is reserved for
// unmapped/forbidden addresses).
Result<u32> AtomicLoad32(AddressSpace& as, vaddr_t va);
Status AtomicStore32(AddressSpace& as, vaddr_t va, u32 value);
// Returns the previous value; the exchange happened iff previous==expected.
Result<u32> AtomicCas32(AddressSpace& as, vaddr_t va, u32 expected, u32 desired);
Result<u32> AtomicFetchAdd32(AddressSpace& as, vaddr_t va, u32 delta);

}  // namespace sg

#endif  // SRC_VM_ACCESS_H_
