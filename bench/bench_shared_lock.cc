// E8 — the shared read lock (§6.2): "Since operations that require the
// update lock are relatively rare (fork, exec, mmap, sbrk, etc.) compared
// to the operations that scan (page fault, pager) the shared lock is
// almost always available and multiple processes do not collide."
//
// Raw primitive benchmarks (host threads, no kernel):
//   * read acquire/release cost, alone and with parallel readers;
//   * an exclusive Spinlock baseline for the same scan pattern — what the
//     kernel would pay WITHOUT the reader/updater split;
//   * mixed read/update workloads at paper-like update ratios, reporting
//     the wait counters.
#include <thread>

#include "bench/bench_util.h"
#include "sync/shared_read_lock.h"
#include "sync/spinlock.h"

namespace sg {
namespace {

void BM_ReadLockUncontended(benchmark::State& state) {
  SharedReadLock lock;
  for (auto _ : state) {
    lock.AcquireRead();
    benchmark::DoNotOptimize(&lock);
    lock.ReleaseRead();
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ReadLockUncontended);

void BM_UpdateLockUncontended(benchmark::State& state) {
  SharedReadLock lock;
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

// N concurrent readers, no updater — the page-fault population of a share
// group between VM-image updates. Every reader passes through the one
// s_acclck spinlock and access count.
void BM_ReadLockParallelReaders(benchmark::State& state) {
  static SharedReadLock* lock = nullptr;
  if (state.thread_index() == 0) {
    lock = new SharedReadLock();
  }
  for (auto _ : state) {
    lock->AcquireRead();
    benchmark::DoNotOptimize(lock);
    lock->ReleaseRead();
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["reads"] = static_cast<double>(lock->reads());
    delete lock;
    lock = nullptr;
  }
}

BENCHMARK(BM_ReadLockParallelReaders)->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

// Parallel readers with an occasional updater, across thread counts. The
// ->Threads(n) harness runs the body on n concurrent host threads. Update
// ratio 1/1024 mimics the paper's "relatively rare" VM-image updates.
void BM_ReadersWithRareUpdates(benchmark::State& state) {
  static SharedReadLock* lock = nullptr;
  if (state.thread_index() == 0) {
    lock = new SharedReadLock();
  }
  u64 n = 0;
  for (auto _ : state) {
    if ((++n & 1023) == 0 && state.thread_index() == 0) {
      lock->AcquireUpdate();
      benchmark::DoNotOptimize(lock);
      lock->ReleaseUpdate();
    } else {
      lock->AcquireRead();
      benchmark::DoNotOptimize(lock);
      lock->ReleaseRead();
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["read_waits"] = static_cast<double>(lock->read_waits());
    state.counters["update_waits"] = static_cast<double>(lock->update_waits());
    delete lock;
    lock = nullptr;
  }
}

BENCHMARK(BM_ReadersWithRareUpdates)->Threads(1)->Threads(2)->Threads(4)->Threads(8);

// The same mixed pattern through the REAL fault path: group members fault
// pages (read side) while one member occasionally mmaps/munmaps (update
// side); reports how often faulting actually had to wait.
void BM_FaultScanVsImageUpdate(benchmark::State& state) {
  const int faulter_members = 2;
  BootParams bp;
  bp.phys_mem_bytes = u64{512} << 20;
  Kernel k(bp);
  for (auto _ : state) {
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
      SharedReadLock& l = env.proc().shaddr->space().lock();
      state.counters["reads"] = static_cast<double>(l.reads());
      state.counters["updates"] = static_cast<double>(l.updates());
      state.counters["read_waits"] = static_cast<double>(l.read_waits());
    });
  }
}

BENCHMARK(BM_FaultScanVsImageUpdate)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sg
