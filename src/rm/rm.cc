#include "rm/rm.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "base/check.h"
#include "obs/stats.h"

namespace sg {
namespace rm {

namespace {

u64 NowNs() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

}  // namespace

// ----- CpuAccount -----

void CpuAccount::DecayLocked(u64 now_ns) const {
  if (now_ns <= last_decay_ns_) {
    return;
  }
  const double halflives =
      static_cast<double>(now_ns - last_decay_ns_) / static_cast<double>(kDecayHalfLifeNs);
  usage_ns_ *= std::exp2(-halflives);
  last_decay_ns_ = now_ns;
}

void CpuAccount::Charge(u64 ns, u64 now_ns) {
  SpinGuard g(lock_);
  DecayLocked(now_ns);
  usage_ns_ += static_cast<double>(ns);
}

double CpuAccount::UsageAt(u64 now_ns) const {
  SpinGuard g(lock_);
  DecayLocked(now_ns);
  return usage_ns_;
}

// ----- GroupNode: membership of the manager -----

GroupNode::GroupNode(ResourceManager& rm, u32 shares)
    : rm_(rm), shares_(std::max<u32>(shares, 1)) {
  rm_.shares_.fetch_add(this->shares(), std::memory_order_relaxed);
  SG_OBS_INC("rm.nodes.created");
  static obs::Gauge& live = obs::Stats::Global().gauge("rm.groups.live");
  live.Add(1);
}

GroupNode::~GroupNode() {
  rm_.shares_.fetch_sub(shares(), std::memory_order_relaxed);
  SG_OBS_INC("rm.nodes.released");
  static obs::Gauge& live = obs::Stats::Global().gauge("rm.groups.live");
  live.Add(-1);
}

u32 GroupNode::SetShares(u32 shares) {
  shares = std::max<u32>(shares, 1);
  const u32 old = shares_.exchange(shares, std::memory_order_relaxed);
  rm_.shares_.fetch_add(static_cast<i64>(shares) - static_cast<i64>(old),
                        std::memory_order_relaxed);
  return shares;
}

// ----- GroupNode: caps -----

bool GroupNode::TryCharge(Resource r, u64 n) {
  const u32 i = Idx(r);
  u64 cur = used_[i].load(std::memory_order_relaxed);
  for (;;) {
    const u64 cap = cap_[i].load(std::memory_order_relaxed);
    if (cap != 0 && cur + n > cap) {
      // Looked up once, in Resource order: a page-cap denial runs on the
      // fault path.
      static obs::Counter* const denied[kNumResources] = {
          &obs::Stats::Global().counter("rm.cap.denied.members"),
          &obs::Stats::Global().counter("rm.cap.denied.files"),
          &obs::Stats::Global().counter("rm.cap.denied.pages")};
      denied[i]->Inc();
      return false;
    }
    if (used_[i].compare_exchange_weak(cur, cur + n, std::memory_order_relaxed)) {
      return true;
    }
  }
}

void GroupNode::Uncharge(Resource r, u64 n) {
  const u64 old = used_[Idx(r)].fetch_sub(n, std::memory_order_relaxed);
  // "usage never negative": an underflow means a charge/uncharge pair went
  // missing somewhere — fail loudly instead of poisoning the account.
  SG_CHECK(old >= n);
}

// ----- GroupNode: decayed CPU usage -----

void GroupNode::ChargeCpu(u64 ns) { ChargeCpuAt(ns, NowNs()); }

void GroupNode::ChargeCpuAt(u64 ns, u64 now_ns) {
  SG_OBS_ADD("rm.cpu.charged_ns", ns);
  charged_total_ns_.fetch_add(ns, std::memory_order_relaxed);
  cpu_.Charge(ns, now_ns);
  rm_.cpu_.Charge(ns, now_ns);
}

double GroupNode::DecayedUsage() const { return DecayedUsageAt(NowNs()); }

int GroupNode::EffectivePriority(int base) const { return EffectivePriorityAt(base, NowNs()); }

int GroupNode::EffectivePriorityAt(int base, u64 now_ns) const {
  const double total_shares =
      static_cast<double>(std::max<i64>(1, rm_.shares_.load(std::memory_order_relaxed)));
  const double total_usage = rm_.cpu_.UsageAt(now_ns);
  // A snapshot beside a racing SetShares or charge can read a part above
  // its whole; capping both fractions at 1 keeps the bend within the gain.
  const double entitled = std::min(1.0, static_cast<double>(shares()) / total_shares);
  // With (almost) nothing consumed on the machine there is nothing to
  // arbitrate: treat consumption as exactly the entitlement (zero term).
  // This also keeps a lone tenant's priority identical to the ungrouped
  // case, whatever its shares.
  const double consumed =
      total_usage >= 1.0 ? std::min(1.0, cpu_.UsageAt(now_ns) / total_usage) : entitled;
  return base + static_cast<int>(static_cast<double>(kPriorityGain) * (entitled - consumed));
}

}  // namespace rm
}  // namespace sg
