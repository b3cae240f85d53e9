// E3 — cost of synchronizing the shared VM image (DESIGN.md §3).
//
// §7: "The overhead for synchronizing virtual memory is negligible except
// when detaching or shrinking regions." Reproduced as:
//   * page-fault throughput of a group member vs a plain process (a
//     member's fault takes the lockless path, no group lock);
//   * sbrk GROW per call vs group size (update lock, no shootdown);
//   * sbrk SHRINK per call vs group size (update lock + synchronous
//     all-processor TLB flush + frame frees — the expensive one);
//   * mmap/munmap pair vs group size (attach cheap, detach shoots down);
//   * (PR 7) fault throughput vs a concurrent VM-image WRITER mix — the
//     lockless fault path's reason to exist (DESIGN.md §4h).
#include "bench/bench_util.h"

#include "obs/stats.h"

namespace sg {
namespace {

// Keeps `members` extra group members alive (sleeping in pause(2), so they
// cost no CPU but their TLBs are shootdown targets) while `body` runs.
void WithMembers(Env& env, int members, const std::function<void(Env&)>& body) {
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
  body(env);
  for (pid_t pid : pids) {
    env.Kill(pid, kSigKill);
  }
  for (size_t i = 0; i < pids.size(); ++i) {
    env.WaitChild();
  }
}

void BM_FaultThroughput(benchmark::State& state) {
  const bool grouped = state.range(0) != 0;
  BootParams bp;
  bp.phys_mem_bytes = u64{512} << 20;
  Kernel k(bp);
  constexpr u64 kPages = 4096;
  u64 faults = 0;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      if (grouped) {
        env.Sproc([](Env&, long) {}, PR_SALL);  // form the group
        env.WaitChild();
      }
      const u64 f0 = env.proc().as.faults.load();
      const vaddr_t base = env.Mmap(kPages * kPageSize);
      for (u64 i = 0; i < kPages; ++i) {
        env.Store32(base + i * kPageSize, 1);  // first touch: demand-zero fault
      }
      faults += env.proc().as.faults.load() - f0;
      env.Munmap(base);
    });
  }
  state.SetItemsProcessed(static_cast<i64>(faults));
  state.counters["grouped"] = grouped ? 1 : 0;
}

BENCHMARK(BM_FaultThroughput)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SbrkGrow(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  BootParams bp;
  bp.phys_mem_bytes = u64{512} << 20;
  Kernel k(bp);
  constexpr int kCalls = 256;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      WithMembers(env, members, [&](Env& e) {
        for (int i = 0; i < kCalls; ++i) {
          e.Sbrk(static_cast<i64>(kPageSize));
        }
        e.Sbrk(-static_cast<i64>(kCalls) * static_cast<i64>(kPageSize));
      });
    });
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
  state.counters["members"] = members;
}

BENCHMARK(BM_SbrkGrow)->Arg(0)->Arg(1)->Arg(3)->Arg(7)->Unit(benchmark::kMicrosecond);

void BM_SbrkShrink(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  BootParams bp;
  bp.phys_mem_bytes = u64{512} << 20;
  Kernel k(bp);
  constexpr int kCalls = 256;
  u64 shootdowns = 0;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      WithMembers(env, members, [&](Env& e) {
        e.Sbrk(static_cast<i64>(kCalls) * static_cast<i64>(kPageSize));
        const vaddr_t brk = e.Sbrk(0);
        for (int i = 0; i < kCalls; ++i) {
          e.Store32(brk - static_cast<u64>(i + 1) * kPageSize, 1);  // make frames real
        }
        const u64 s0 = k.cpus().shootdowns();
        for (int i = 0; i < kCalls; ++i) {
          e.Sbrk(-static_cast<i64>(kPageSize));  // each one: flush + free
        }
        shootdowns += k.cpus().shootdowns() - s0;
      });
    });
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
  state.counters["members"] = members;
  state.counters["shootdowns_per_call"] =
      static_cast<double>(shootdowns) / static_cast<double>(state.iterations() * kCalls);
}

BENCHMARK(BM_SbrkShrink)->Arg(0)->Arg(1)->Arg(3)->Arg(7)->Unit(benchmark::kMicrosecond);

void BM_MapUnmap(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  BootParams bp;
  bp.phys_mem_bytes = u64{512} << 20;
  Kernel k(bp);
  constexpr int kCalls = 128;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      WithMembers(env, members, [&](Env& e) {
        for (int i = 0; i < kCalls; ++i) {
          const vaddr_t a = e.Mmap(4 * kPageSize);
          e.Store32(a, 1);
          e.Munmap(a);  // detach: shootdown before the frames are freed
        }
      });
    });
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
  state.counters["members"] = members;
}

BENCHMARK(BM_MapUnmap)->Arg(0)->Arg(3)->Arg(7)->Unit(benchmark::kMicrosecond);

// E3b (PR 7) — fault throughput under a VM-image writer mix.
//
// Members sweep a shared window wider than the 64-entry direct-mapped TLB,
// so every access conflict-misses and re-enters HandleFault: the measured
// rate is shared-image lookup/resolve throughput, not memory bandwidth.
// Meanwhile the group leader runs `writer_ops` mmap/munmap pairs — each
// one an update-lock acquisition, a layout-seqcount bump and a shootdown.
// Faults validate against the seqcount, so the writer does not convoy the
// group behind each mutation: only faults that straddle a bump retry or
// fall back to the update lock (the lockless_frac counter reports the
// split).
//
// Args: {members, writer_ops}.
constexpr u64 kWindowPages = 128;  // 2x the TLB: every swept access misses
constexpr int kSweeps = 24;

void BM_FaultWriterMix(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  const int writer_ops = static_cast<int>(state.range(1));
  BootParams bp;
  bp.phys_mem_bytes = u64{512} << 20;
  bp.max_procs = 64;
  Kernel k(bp);
  obs::Stats& stats = obs::Stats::Global();
  u64 faults = 0;
  u64 lockless = 0;
  u64 fallbacks = 0;
  u64 retries = 0;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      const vaddr_t ctl = env.Mmap(kPageSize);
      const vaddr_t win = env.Mmap(kWindowPages * kPageSize);
      for (u64 i = 0; i < kWindowPages; ++i) {
        env.Store32(win + i * kPageSize, 1);  // materialize every frame up front
      }
      const u64 f0 = stats.CounterValue("vm.faults");
      const u64 l0 = stats.CounterValue("vm.fault.lockless_hits");
      const u64 b0 = stats.CounterValue("vm.fault.fallbacks");
      const u64 r0 = stats.CounterValue("vm.fault.retries");
      int started = 0;
      for (int m = 0; m < members; ++m) {
        const pid_t pid = env.Sproc(
            [ctl, win, members](Env& c, long) {
              c.SpinBarrier(ctl, static_cast<u32>(members) + 1);
              for (int s = 0; s < kSweeps; ++s) {
                for (u64 i = 0; i < kWindowPages; ++i) {
                  (void)c.Load32(win + i * kPageSize);
                }
              }
            },
            PR_SADDR);
        if (pid > 0) {
          ++started;
        }
      }
      env.SpinBarrier(ctl, static_cast<u32>(members) + 1);
      for (int w = 0; w < writer_ops; ++w) {
        const vaddr_t a = env.Mmap(kPageSize);
        env.Store32(a, 1);
        env.Munmap(a);
      }
      for (int i = 0; i < started; ++i) {
        env.WaitChild();
      }
      faults += stats.CounterValue("vm.faults") - f0;
      lockless += stats.CounterValue("vm.fault.lockless_hits") - l0;
      fallbacks += stats.CounterValue("vm.fault.fallbacks") - b0;
      retries += stats.CounterValue("vm.fault.retries") - r0;
    });
  }
  state.SetItemsProcessed(static_cast<i64>(faults));
  state.counters["members"] = members;
  state.counters["writer_ops"] = writer_ops;
  state.counters["lockless_frac"] =
      faults == 0 ? 0.0 : static_cast<double>(lockless) / static_cast<double>(faults);
  state.counters["fallbacks"] = static_cast<double>(fallbacks);
  state.counters["retries"] = static_cast<double>(retries);
}

BENCHMARK(BM_FaultWriterMix)
    ->Args({4, 0})
    ->Args({4, 64})
    ->Args({4, 256})
    ->Args({16, 0})
    ->Args({16, 64})
    ->Args({16, 256})
    ->Unit(benchmark::kMillisecond);

// The pager under pressure: sequential sweeps over a working set larger
// than physical memory, with the pageout clock and major faults inside the
// fault path. Arg = working-set pages (memory holds 256 frames).
void BM_SwapThrash(benchmark::State& state) {
  const u64 pages = static_cast<u64>(state.range(0));
  BootParams bp;
  bp.phys_mem_bytes = 256 * kPageSize;
  bp.swap_pages = 8192;
  Kernel k(bp);
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      const vaddr_t a = env.Mmap(pages * kPageSize);
      for (int sweep = 0; sweep < 2; ++sweep) {
        for (u64 i = 0; i < pages; ++i) {
          env.Store32(a + i * kPageSize, static_cast<u32>(i));
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(2 * pages));
  state.counters["swap_outs"] =
      k.swap() != nullptr ? static_cast<double>(k.swap()->outs()) : 0.0;
}

BENCHMARK(BM_SwapThrash)->Arg(128)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sg
