// E11 — fair-share isolation (src/rm/): one tenant group misbehaves (8
// spinning members) while three well-behaved tenants (2 members each) run
// the same loop at equal shares on 4 simulated CPUs. Without the resource
// manager the unfair tenant would take ~8/14 of the machine; with decayed
// usage feeding effective priority it self-throttles toward its 1/4
// entitlement. The reported counters are each tenant's achieved share of
// total work, and fair_min_entitled = worst fair tenant's share divided by
// its 0.25 entitlement (the acceptance bar is >= 0.8).
//
// The second experiment isolates the scheduler-side cost: ns per
// acquire/release decision as the number of live groups grows. Each
// decision reads one node and the machine-wide account, O(1) in the
// number of groups, so the curve must stay flat.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "proc/scheduler.h"
#include "rm/rm.h"

namespace sg {
namespace {

constexpr int kTenants = 4;
constexpr int kUnfairMembers = 8;  // tenant 0
constexpr int kFairMembers = 2;    // tenants 1..3
constexpr auto kWindow = std::chrono::milliseconds(200);

void SpinLoop(Env& c, std::atomic<u64>& counter, std::atomic<bool>& stop) {
  const vaddr_t scratch = c.Mmap(kPageSize);
  while (!stop.load(std::memory_order_relaxed)) {
    for (int n = 0; n < 32; ++n) {
      c.Store32(scratch, static_cast<u32>(n));
    }
    counter.fetch_add(1, std::memory_order_relaxed);
    c.Yield();  // scheduling point: effective priorities decide who runs
  }
}

void BM_FairShareIsolation(benchmark::State& state) {
  BootParams bp;
  bp.ncpus = 4;
  Kernel k(bp);
  double fair_min = 0.0, fair_sum = 0.0, unfair = 0.0;
  for (auto _ : state) {
    // Received CPU is scored as slot-time charged by the scheduler to each
    // tenant's rm node — the resource actually being arbitrated. (Loop
    // iteration counts would also fold in HOST scheduling noise: on a
    // narrow host, the 14 member threads multiplex over few cores.)
    std::atomic<u64> work[kTenants] = {};
    std::atomic<u64> slot_ns[kTenants] = {};
    std::atomic<bool> stop{false};
    RunSim(k, [&](Env& env) {
      for (int t = 0; t < kTenants; ++t) {
        env.Fork(
            [&, t](Env& founder, long) {
              const int members = t == 0 ? kUnfairMembers : kFairMembers;
              // The founder's first sproc forms the tenant's share group;
              // every tenant runs at the same (default) shares weight.
              for (int m = 1; m < members; ++m) {
                founder.Sproc([&, t](Env& c, long) { SpinLoop(c, work[t], stop); },
                              PR_SADDR);
              }
              SpinLoop(founder, work[t], stop);
              for (int m = 1; m < members; ++m) {
                founder.WaitChild();
              }
              // Members are reaped (final slices charged); the founder is
              // still attached, so the node is alive to read.
              slot_ns[t] = founder.proc().shaddr->rm_node()->charged_total_ns();
            });
      }
      const auto t0 = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() - t0 < kWindow) {
        env.Yield();
      }
      stop = true;
      for (int t = 0; t < kTenants; ++t) {
        env.WaitChild();
      }
    });
    double total = 0.0;
    for (int t = 0; t < kTenants; ++t) {
      total += static_cast<double>(slot_ns[t].load());
    }
    if (total <= 0.0) {
      continue;
    }
    unfair = static_cast<double>(slot_ns[0].load()) / total;
    fair_min = 1.0;
    fair_sum = 0.0;
    for (int t = 1; t < kTenants; ++t) {
      const double share = static_cast<double>(slot_ns[t].load()) / total;
      fair_sum += share;
      fair_min = std::min(fair_min, share);
    }
  }
  // Every tenant is entitled to 1/kTenants of the machine.
  state.counters["unfair_share"] = unfair;
  state.counters["fair_min_share"] = fair_min;
  state.counters["fair_sum_share"] = fair_sum;
  state.counters["fair_min_entitled"] = fair_min * kTenants;
}

BENCHMARK(BM_FairShareIsolation)->Unit(benchmark::kMillisecond)->Iterations(1);

// Scheduler-side overhead per acquire/release decision as live groups grow.
// Round-robins the acquiring "process" across every group so each decision
// pays the full effective-priority + charge path.
void BM_SchedOverheadVsGroups(benchmark::State& state) {
  const int groups = static_cast<int>(state.range(0));
  Scheduler sched(1);
  rm::ResourceManager m;
  std::vector<std::unique_ptr<rm::GroupNode>> nodes;
  nodes.reserve(groups);
  for (int g = 0; g < groups; ++g) {
    nodes.push_back(std::make_unique<rm::GroupNode>(m));
  }
  size_t i = 0;
  for (auto _ : state) {
    rm::GroupNode* node = nodes[i++ % nodes.size()].get();
    const u32 cpu = sched.AcquireCpu(0, node);
    sched.ReleaseCpu(cpu, node);
  }
  state.counters["groups"] = groups;
}

BENCHMARK(BM_SchedOverheadVsGroups)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

}  // namespace
}  // namespace sg
