// rm — fair-share resource manager over share groups.
//
// The paper's share groups (§4–§6) supply the sharing primitive but nothing
// arbitrates *between* groups: every member competes in one flat scheduler
// queue and PR_SETGROUPPRI is just a gang-wide nice value. This layer adds
// the arbitration in the style of Gunther's UNIX resource managers and the
// Solaris SRM `lnode` tree, flattened to the one level share groups form:
//
//   * Every share group owns a GroupNode, a member of its ShaddrBlock. A
//     node carries a CPU `shares` weight and an exponentially decayed
//     CPU-usage account (half-life kDecayHalfLifeNs). The scheduler charges
//     consumed CPU time to the running process's node and to the manager's
//     machine-wide account, and asks the node for an *effective* priority:
//     base priority plus a term proportional to (entitled fraction −
//     consumed fraction), the node's shares over the live total against its
//     usage over the machine's. A group burning more than its shares entitle
//     it decays toward lower priority and self-throttles; an idle group's
//     usage decays away and its priority recovers. Each decision is O(1),
//     independent of the number of groups.
//
//   * A node also carries hard capacity caps — member count, open files in
//     the shared fd table, resident pages of the shared VM image — enforced
//     by TryCharge/Uncharge pairs at the existing admission chokepoints
//     (sproc/attach, fd publish, page-fault frame allocation). A cap of 0
//     means unlimited. Charging is lock-free (CAS); only the decayed-usage
//     accounts take a spinlock.
//
// A process outside any share group passes a null node everywhere and is
// scheduled exactly as before; a lone group at default shares gets a zero
// adjustment (entitlement 1, consumption 1), so single-tenant workloads are
// unaffected by the manager's existence.
#ifndef SRC_RM_RM_H_
#define SRC_RM_RM_H_

#include <atomic>

#include "base/thread_annotations.h"
#include "base/types.h"
#include "sync/spinlock.h"
#include "vm/page_charge.h"

namespace sg {
namespace rm {

// Capped resources. kMembers/kFiles breaches surface as EAGAIN at the
// admission syscall; kPages breaches surface as ENOMEM on the fault path
// (where the pager may steal from the same image to make headroom).
enum class Resource : u32 {
  kMembers = 0,  // processes attached to the share group
  kFiles = 1,    // open slots in the group's shared fd table
  kPages = 2,    // resident pages of the group's shared VM image
};
inline constexpr u32 kNumResources = 3;

inline constexpr u32 kDefaultShares = 100;

// Decay half-life of the CPU-usage account: usage halves every 50
// simulated-CPU milliseconds it is left alone.
inline constexpr u64 kDecayHalfLifeNs = 50'000'000;

// Priority points per unit of (entitled − consumed) fraction. Both fractions
// lie in [0, 1], so the bend stays within ±kPriorityGain; with the
// scheduler's strict priority queue, ±kPriorityGain/4 is already enough to
// reorder a saturated tenant behind a starved one.
inline constexpr int kPriorityGain = 64;

// An exponentially decayed CPU-usage account. Charged on every CPU release,
// read on every acquire: a spinlock keeps decay-then-add atomic.
class CpuAccount {
 public:
  void Charge(u64 ns, u64 now_ns);
  double UsageAt(u64 now_ns) const;

 private:
  // Decays usage_ns_ to `now_ns` (only the mutable account moves, so the
  // const reader may call it).
  void DecayLocked(u64 now_ns) const SG_REQUIRES(lock_);

  mutable Spinlock lock_{"rm.node"};
  mutable double usage_ns_ SG_GUARDED_BY(lock_) = 0.0;
  mutable u64 last_decay_ns_ SG_GUARDED_BY(lock_) = 0;
};

// The machine-wide side of the arbitration, one per Kernel: the sum of the
// live groups' shares (every entitlement's denominator) and the decayed CPU
// usage of all of them (every consumption's denominator). It must outlive
// every node that joined it.
class ResourceManager {
 public:
  ResourceManager() = default;
  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

 private:
  friend class GroupNode;
  // Signed so a racing set-shares never wraps.
  std::atomic<i64> shares_{0};
  CpuAccount cpu_;
};

// One share group's account. Its owner (the group's ShaddrBlock) constructs
// and destroys it; all other operations are safe from any thread.
class GroupNode final : public PageCharge {
 public:
  // Joins `rm` with `shares` (0 is clamped to 1); the destructor leaves it.
  explicit GroupNode(ResourceManager& rm, u32 shares = kDefaultShares);
  ~GroupNode() override;
  GroupNode(const GroupNode&) = delete;
  GroupNode& operator=(const GroupNode&) = delete;

  u32 shares() const { return shares_.load(std::memory_order_relaxed); }
  // Re-weights the node. Returns the shares now in effect (0 is clamped to
  // 1: a zero total would leave every entitlement undefined).
  u32 SetShares(u32 shares);

  // ----- capacity caps -----

  // Sets the cap for `r` (0 = unlimited). Takes effect for future charges
  // only; existing usage above a newly lowered cap is not evicted.
  void SetCap(Resource r, u64 cap) {
    cap_[Idx(r)].store(cap, std::memory_order_relaxed);
  }
  u64 cap(Resource r) const { return cap_[Idx(r)].load(std::memory_order_relaxed); }
  u64 used(Resource r) const { return used_[Idx(r)].load(std::memory_order_relaxed); }

  // Charges `n` units of `r` if the cap allows it; false on breach.
  bool TryCharge(Resource r, u64 n);
  // Charges unconditionally (adopting pre-existing usage, e.g. the fds a
  // process already holds when it founds a group).
  void ChargeForced(Resource r, u64 n) {
    used_[Idx(r)].fetch_add(n, std::memory_order_relaxed);
  }
  // Returns `n` units. Underflow is an accounting bug: it panics rather
  // than leaving a poisoned (giant) usage figure behind.
  void Uncharge(Resource r, u64 n);

  // PageCharge — the vm layer's hooks map straight onto kPages.
  bool TryChargePages(u64 n) override { return TryCharge(Resource::kPages, n); }
  void ChargePagesForced(u64 n) override { ChargeForced(Resource::kPages, n); }
  void UnchargePages(u64 n) override { Uncharge(Resource::kPages, n); }

  // ----- decayed CPU usage / effective priority -----

  // Charges `ns` of consumed CPU to this node and to the machine.
  void ChargeCpu(u64 ns);
  void ChargeCpuAt(u64 ns, u64 now_ns);  // test/bench hook: injected clock

  // Lifetime total charged to this node (no decay): the delivered-CPU
  // measure the fairness experiments score against.
  u64 charged_total_ns() const {
    return charged_total_ns_.load(std::memory_order_relaxed);
  }

  // This node's decayed usage account, in ns.
  double DecayedUsage() const;
  double DecayedUsageAt(u64 now_ns) const { return cpu_.UsageAt(now_ns); }

  // Base priority adjusted by the fair-share term.
  int EffectivePriority(int base) const;
  int EffectivePriorityAt(int base, u64 now_ns) const;

 private:
  static constexpr u32 Idx(Resource r) { return static_cast<u32>(r); }

  ResourceManager& rm_;
  std::atomic<u32> shares_;

  std::atomic<u64> cap_[kNumResources] = {};   // 0 = unlimited
  std::atomic<u64> used_[kNumResources] = {};
  std::atomic<u64> charged_total_ns_{0};
  CpuAccount cpu_;
};

}  // namespace rm
}  // namespace sg

#endif  // SRC_RM_RM_H_
