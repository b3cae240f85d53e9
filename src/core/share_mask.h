// The share mask (§5.1): which resources an sproc() child shares with the
// group. "When the child is created, the share mask is masked against the
// share mask used when creating the parent ... providing strict inheritance
// of those resources. The original process in a share group is given a mask
// indicating that all resources are shared."
#ifndef SRC_CORE_SHARE_MASK_H_
#define SRC_CORE_SHARE_MASK_H_

#include "base/types.h"

namespace sg {

inline constexpr u32 PR_SADDR = 1u << 0;    // share virtual address space
inline constexpr u32 PR_SULIMIT = 1u << 1;  // share ulimit values
inline constexpr u32 PR_SUMASK = 1u << 2;   // share umask values
inline constexpr u32 PR_SDIR = 1u << 3;     // share current/root directory
inline constexpr u32 PR_SFDS = 1u << 4;     // share open file descriptors
inline constexpr u32 PR_SID = 1u << 5;      // share uid/gid
inline constexpr u32 PR_SALL =
    PR_SADDR | PR_SULIMIT | PR_SUMASK | PR_SDIR | PR_SFDS | PR_SID;

// prctl() options (§5.2).
inline constexpr u32 PR_MAXPROCS = 1;      // limit on processes per user
inline constexpr u32 PR_MAXPPROCS = 2;     // processes the system runs in parallel
inline constexpr u32 PR_SETSTACKSIZE = 3;  // set maximum stack size
inline constexpr u32 PR_GETSTACKSIZE = 4;  // get maximum stack size

// ---- Extensions implementing §8 ("Future Directions") ----
//
// Return convention for the group-wide prctl options (16..22): every option
// is kEINVAL when the caller is not in a share group, and on success
// returns a NON-NEGATIVE SUMMARY OF THE EFFECT NOW IN FORCE — not a bare 0:
//   PR_SETGROUPPRI  -> number of members the priority was applied to
//   PR_UNSHARE      -> the caller's remaining share mask
//   PR_BLOCKGROUP / PR_UNBLKGROUP -> number of members affected
//   PR_JOINGROUP    -> the share mask acquired by the join
//   PR_SETSHARES    -> the group's CPU shares now in effect
//   PR_SETRCAP      -> the resource cap now in effect (0 = unlimited)
// Callers can therefore always read the result back from the success value;
// "did anything happen" is never ambiguous with "succeeded vacuously".

// "The priority of the whole group could be raised or lowered." Sets every
// member's scheduling priority; returns the member count (see the return
// convention above). kEINVAL when the caller is not in a share group.
inline constexpr u32 PR_SETGROUPPRI = 16;

// "It might be useful to allow a process to stop sharing a resource. For
// instance, the fork() primitive already performs this for the virtual
// address space." prctl(PR_UNSHARE, mask) stops sharing the resources in
// `mask`; PR_SADDR takes a copy-on-write snapshot of the shared image into
// the caller's private space (exactly what fork gives a child). Returns the
// remaining share mask. kEINVAL outside a group.
inline constexpr u32 PR_UNSHARE = 17;

// "A whole process group could be conveniently blocked or unblocked."
// PR_BLOCKGROUP suspends every OTHER member at its next kernel entry;
// PR_UNBLKGROUP resumes them. Returns the number of members affected.
inline constexpr u32 PR_BLOCKGROUP = 18;
inline constexpr u32 PR_UNBLKGROUP = 19;

// "We can also consider allowing an unrelated process to join a share
// group dynamically." prctl(PR_JOINGROUP, pid) joins the group of `pid`
// for every non-VM resource (fds, directories, ids, umask, ulimit); the
// caller keeps its own address space. Returns the acquired share mask.
inline constexpr u32 PR_JOINGROUP = 20;

// ---- Fair-share resource manager extensions (src/rm/) ----

// prctl(PR_SETSHARES, shares): sets the caller's group's CPU shares weight,
// its part of the live groups' total (0 is clamped to 1). Returns the
// shares now in effect. kEINVAL outside a group.
inline constexpr u32 PR_SETSHARES = 21;

// prctl(PR_SETRCAP, PrRcapArg(resource, cap)): sets a per-group capacity
// cap — PR_RCAP_MEMBERS (admissions beyond the cap fail sproc/PR_JOINGROUP
// with kEAGAIN), PR_RCAP_FILES (opens that would grow the shared fd table
// past the cap fail with kEAGAIN; requires PR_SFDS), PR_RCAP_PAGES
// (resident pages of the shared image; faults needing a frame beyond the
// cap drive the pager and surface kENOMEM when nothing can be stolen).
// cap = 0 means unlimited. Returns the cap now in effect. kEINVAL outside
// a group or for an unknown resource.
inline constexpr u32 PR_SETRCAP = 22;

inline constexpr u32 PR_RCAP_MEMBERS = 1;
inline constexpr u32 PR_RCAP_FILES = 2;
inline constexpr u32 PR_RCAP_PAGES = 3;

// PR_SETRCAP argument packing: resource selector in the top byte, cap value
// in the low 56 bits (caps are counts — members, fds, pages — so 2^56 is
// no practical restriction).
inline constexpr u64 kPrRcapCapMask = (u64{1} << 56) - 1;
constexpr i64 PrRcapArg(u32 resource, u64 cap) {
  return static_cast<i64>((static_cast<u64>(resource) << 56) | (cap & kPrRcapCapMask));
}
constexpr u32 PrRcapResource(i64 arg) { return static_cast<u32>(static_cast<u64>(arg) >> 56); }
constexpr u64 PrRcapCap(i64 arg) { return static_cast<u64>(arg) & kPrRcapCapMask; }

// sproc() shmask extension: share the address space (PR_SADDR) but give
// the child a private copy-on-write DATA region shadowing the shared one —
// §8's "it could be possible to share part of the VM image and have
// copy-on-write access to other parts of the image." Not part of PR_SALL
// and not subject to strict inheritance (it takes nothing from the group).
inline constexpr u32 PR_PRIVDATA = 1u << 8;

}  // namespace sg

#endif  // SRC_CORE_SHARE_MASK_H_
