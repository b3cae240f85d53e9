// E9 — the §6.3 attribute-synchronization machinery itself:
//   * the kernel-entry slow path — see bench_no_penalty for the fast path
//     and the plain-process baseline;
//   * the cost of UPDATING a shared scalar as group size grows (the update
//     bumps the resource's generation and the group's summary: flat in
//     members);
//   * descriptor-table publish cost as the table fills (the publish diffs
//     the member table against the master and copies only changed slots);
//   * the pull cost a member pays on its first entry after peers' updates,
//     set up by rewinding the member's generation cache to the state such
//     updates leave behind.
#include <chrono>

#include "bench/bench_util.h"
#include "core/shaddr.h"

namespace sg {
namespace {

double Secs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Sleeping members so the group has `members` extra members.
std::vector<pid_t> SpawnSleepers(Env& env, int members) {
  std::vector<pid_t> pids;
  for (int i = 0; i < members; ++i) {
    const pid_t pid = env.Sproc(
        [](Env& c, long) {
          while (true) {
            c.Pause();
          }
        },
        PR_SALL);
    if (pid > 0) {
      pids.push_back(pid);
    }
  }
  return pids;
}

void ReapSleepers(Env& env, const std::vector<pid_t>& pids) {
  for (pid_t pid : pids) {
    env.Kill(pid, kSigKill);
  }
  for (size_t i = 0; i < pids.size(); ++i) {
    env.WaitChild();
  }
}

void BM_UmaskUpdateVsGroupSize(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  Kernel k;
  constexpr int kCalls = 1024;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      auto pids = SpawnSleepers(env, members);
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) {
        env.Umask(static_cast<mode_t>(i & 0777));  // update + bump the generations
      }
      elapsed = Secs(t0);
      ReapSleepers(env, pids);
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
  state.counters["members"] = members;
}

BENCHMARK(BM_UmaskUpdateVsGroupSize)->Arg(0)->Arg(1)->Arg(3)->Arg(7)->Arg(15)
    ->UseManualTime();

void BM_FdPublishVsTableSize(benchmark::State& state) {
  const int open_fds = static_cast<int>(state.range(0));
  Kernel k;
  constexpr int kCalls = 256;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      auto pids = SpawnSleepers(env, 2);
      for (int i = 0; i < open_fds; ++i) {
        char path[32];
        std::snprintf(path, sizeof(path), "/fill%d", i);
        env.Open(path, kOpenWrite | kOpenCreat);
      }
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) {
        // Each open+close publishes one changed slot into s_ofile.
        const int fd = env.Open("/churn", kOpenWrite | kOpenCreat);
        env.Close(fd);
      }
      elapsed = Secs(t0);
      ReapSleepers(env, pids);
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
  state.counters["open_fds"] = open_fds;
}

BENCHMARK(BM_FdPublishVsTableSize)->Arg(0)->Arg(16)->Arg(48)->UseManualTime();

void BM_PullCostAfterFlag(benchmark::State& state) {
  Kernel k;
  constexpr int kCalls = 1024;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      env.Sproc([](Env&, long) {}, PR_SALL);
      env.WaitChild();
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) {
        // Rewind our cache on every scalar resource, as if peers had updated
        // each once, then pay one entry-sync.
        SyncCache& c = env.proc().p_sync;
        --c.summary;
        for (SyncRes r : {kResDir, kResIds, kResUmask, kResUlimit}) {
          --c.gen[r];
        }
        benchmark::DoNotOptimize(env.UlimitGet());
      }
      elapsed = Secs(t0);
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}

BENCHMARK(BM_PullCostAfterFlag)->UseManualTime();

void BM_FdPullAfterFlag(benchmark::State& state) {
  const int open_fds = static_cast<int>(state.range(0));
  Kernel k;
  constexpr int kCalls = 256;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      for (int i = 0; i < open_fds; ++i) {
        char path[32];
        std::snprintf(path, sizeof(path), "/pf%d", i);
        env.Open(path, kOpenWrite | kOpenCreat);
      }
      env.Sproc([](Env&, long) {}, PR_SALL);
      env.WaitChild();
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) {
        // A full descriptor-table pull: a zeroed fds generation (a joiner's
        // state) reconciles every slot against the master.
        --env.proc().p_sync.summary;
        env.proc().p_sync.gen[kResFds] = 0;
        benchmark::DoNotOptimize(env.UlimitGet());
      }
      elapsed = Secs(t0);
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
  state.counters["open_fds"] = open_fds;
}

BENCHMARK(BM_FdPullAfterFlag)->Arg(0)->Arg(16)->Arg(48)->UseManualTime();

// The delta-sync headline: publish + member pull for a ONE-descriptor
// change while the table holds `open_fds` other descriptors. With
// generation stamps both sides are O(changed); the curve should be flat
// where BM_FdPublishVsTableSize/BM_FdPullAfterFlag used to grow linearly.
void BM_FdSingleChangeInLargeTable(benchmark::State& state) {
  const int open_fds = static_cast<int>(state.range(0));
  Kernel k;
  constexpr int kCalls = 256;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      auto pids = SpawnSleepers(env, 2);
      for (int i = 0; i < open_fds; ++i) {
        char path[32];
        std::snprintf(path, sizeof(path), "/sc%d", i);
        env.Open(path, kOpenWrite | kOpenCreat);
      }
      (void)env.UlimitGet();  // fully synced before the clock starts
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) {
        // Publish side: open+close stamp one slot twice.
        const int fd = env.Open("/churn", kOpenWrite | kOpenCreat);
        env.Close(fd);
        // Pull side: rewind our cache past those two publishes so the next
        // entry repays the member-side delta pull, exactly what a sleeping
        // member pays when it wakes.
        --env.proc().p_sync.summary;
        env.proc().p_sync.gen[kResFds] -= 2;
        benchmark::DoNotOptimize(env.UlimitGet());
      }
      elapsed = Secs(t0);
      ReapSleepers(env, pids);
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
  state.counters["open_fds"] = open_fds;
}

BENCHMARK(BM_FdSingleChangeInLargeTable)->Arg(0)->Arg(16)->Arg(48)->UseManualTime();

// Scalar update cost vs group size after the generation rework: the update
// bumps two generations instead of walking the member chain, so the curve
// should be flat in `members` (compare BM_UmaskUpdateVsGroupSize in
// BENCH_4).
// `members` counts OTHER live members: every point runs inside a share
// group (a group of one at members=0), so the series isolates scaling from
// the fixed private-path-vs-group-path delta that
// BM_UmaskUpdateVsGroupSize/0 already records.
void BM_ScalarUpdateVsGroupSize(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  Kernel k;
  constexpr int kCalls = 1024;
  for (auto _ : state) {
    double elapsed = 0;
    RunSim(k, [&](Env& env) {
      env.Sproc([](Env&, long) {}, PR_SALL);  // ensure the group exists
      env.WaitChild();
      auto pids = SpawnSleepers(env, members);
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) {
        // Alternate two shared scalars so both Update paths stay hot.
        if ((i & 1) == 0) {
          env.Umask(static_cast<mode_t>(i & 0777));
        } else {
          (void)env.UlimitSet(u64{1} << 30);
        }
      }
      elapsed = Secs(t0);
      ReapSleepers(env, pids);
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
  state.counters["members"] = members;
}

BENCHMARK(BM_ScalarUpdateVsGroupSize)->Arg(0)->Arg(1)->Arg(3)->Arg(7)->Arg(15)
    ->UseManualTime();

}  // namespace
}  // namespace sg
