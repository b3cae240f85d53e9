// E4 — "normal UNIX processes experience no penalty for the addition of
// share group support" (§7, and design goal 4 of §6).
//
// The share-group hook on the syscall path is one null check of p->shaddr
// and one compare of the group's summary generation with the member's
// cached one (§6.3). Measured with manual timing (the group setup is
// excluded from the clock):
//   * syscall latency in a plain process (no group anywhere);
//   * syscall latency in a group member whose cache is current;
//   * syscall latency when every call finds the cache stale (the slow path
//     the fast test avoids);
//   * fork()+wait() latency with zero groups in the system.
#include <chrono>

#include "bench/bench_util.h"

namespace sg {
namespace {

constexpr int kCalls = 4096;

double TimeCalls(Env& env) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kCalls; ++i) {
    benchmark::DoNotOptimize(env.UlimitGet());
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void BM_SyscallPlain(benchmark::State& state) {
  Kernel k;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) { elapsed = TimeCalls(env); });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}

BENCHMARK(BM_SyscallPlain)->UseManualTime();

void BM_SyscallGroupClean(benchmark::State& state) {
  Kernel k;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      env.Sproc([](Env&, long) {}, PR_SALL);
      env.WaitChild();  // still a member; the cache stays current from here on
      elapsed = TimeCalls(env);
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}

BENCHMARK(BM_SyscallGroupClean)->UseManualTime();

void BM_SyscallGroupDirty(benchmark::State& state) {
  Kernel k;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      env.Sproc([](Env&, long) {}, PR_SALL);
      env.WaitChild();
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) {
        // Force the slow path: rewind our cache to the state another
        // member's umask update leaves behind.
        --env.proc().p_sync.summary;
        --env.proc().p_sync.gen[kResUmask];
        benchmark::DoNotOptimize(env.UlimitGet());
      }
      elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}

BENCHMARK(BM_SyscallGroupDirty)->UseManualTime();

void BM_ForkWaitNoGroups(benchmark::State& state) {
  Kernel k;
  constexpr int kPairs = 32;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kPairs; ++i) {
        env.Fork([](Env&, long) {});
        env.WaitChild();
      }
      elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kPairs);
}

BENCHMARK(BM_ForkWaitNoGroups)->UseManualTime()->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sg
