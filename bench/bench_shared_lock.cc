// E8 — the §6.2 claim: "Since operations that require the update lock are
// relatively rare (fork, exec, mmap, sbrk, etc.) compared to the operations
// that scan (page fault, pager) the shared lock is almost always available
// and multiple processes do not collide."
//
// Faults scan the pregion list locklessly (DESIGN.md §4h), so "do not
// collide" is now the share of faults that took the lockless path; only
// fallback faults, the pager and the updaters take the group's update lock
// (sync/update_lock.h).
//
// Raw primitive benchmarks (host threads, no kernel): the update lock's
// uncontended acquire/release, beside an exclusive Spinlock baseline.
#include "bench/bench_util.h"
#include "obs/stats.h"
#include "sync/spinlock.h"
#include "sync/update_lock.h"

namespace sg {
namespace {

void BM_UpdateLockUncontended(benchmark::State& state) {
  UpdateLock lock;
  for (auto _ : state) {
    lock.AcquireUpdate();
    benchmark::DoNotOptimize(&lock);
    lock.ReleaseUpdate();
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_UpdateLockUncontended);

void BM_ExclusiveSpinlockBaseline(benchmark::State& state) {
  Spinlock lock;
  for (auto _ : state) {
    lock.Lock();
    benchmark::DoNotOptimize(&lock);
    lock.Unlock();
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ExclusiveSpinlockBaseline);

// The scan/update mix through the REAL fault path: group members fault
// pages while one member occasionally mmaps/munmaps (update lock); reports
// the update acquisitions and how many faults stayed lockless or fell back
// to the lock.
void BM_FaultScanVsImageUpdate(benchmark::State& state) {
  const int faulter_members = 2;
  BootParams bp;
  bp.phys_mem_bytes = u64{512} << 20;
  Kernel k(bp);
  obs::Stats& stats = obs::Stats::Global();
  for (auto _ : state) {
    const u64 hits0 = stats.CounterValue("vm.fault.lockless_hits");
    const u64 fallbacks0 = stats.CounterValue("vm.fault.fallbacks");
    RunSim(k, [&](Env& env) {
      const vaddr_t arena = env.Mmap(256 * kPageSize);
      for (int m = 0; m < faulter_members; ++m) {
        env.Sproc(
            [arena](Env& c, long idx) {
              // Fault 128 pages, then unmap-triggering refaults via sbrk
              // noise from the parent.
              for (int round = 0; round < 8; ++round) {
                for (u64 i = 0; i < 128; ++i) {
                  c.Store32(arena + (static_cast<u64>(idx) * 128 + i) % 256 * kPageSize,
                            static_cast<u32>(i));
                }
              }
            },
            PR_SADDR, m);
      }
      for (int i = 0; i < 16; ++i) {
        const vaddr_t tmp = env.Mmap(4 * kPageSize);  // update-locked list change
        env.Store32(tmp, 1);
        env.Munmap(tmp);  // update lock + shootdown
      }
      for (int m = 0; m < faulter_members; ++m) {
        env.WaitChild();
      }
      state.counters["updates"] =
          static_cast<double>(env.proc().shaddr->space().lock().updates());
    });
    state.counters["lockless_hits"] =
        static_cast<double>(stats.CounterValue("vm.fault.lockless_hits") - hits0);
    state.counters["fallbacks"] =
        static_cast<double>(stats.CounterValue("vm.fault.fallbacks") - fallbacks0);
  }
}

BENCHMARK(BM_FaultScanVsImageUpdate)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sg
