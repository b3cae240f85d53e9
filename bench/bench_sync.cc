// E6 — synchronization cost (§3 "Synchronization"): "The best performance
// is obtained using some form of busy-waiting ... synchronization speeds
// can approach memory access speeds", versus mechanisms that require
// kernel interaction (System V semaphores, pipes, signals).
//
// Two measurements per mechanism:
//   * UNCONTENDED cost — acquire/release (or send/recv) with no partner;
//     this isolates the kernel-interaction tax the paper talks about;
//   * PING-PONG — two tasks alternating, counting round trips (on a small
//     host this is scheduling-bound for every mechanism, so the uncontended
//     numbers plus the syscalls-per-round counter carry the §3 argument).
#include "bench/bench_util.h"

namespace sg {
namespace {

void BM_UncontendedSpinlock(benchmark::State& state) {
  Kernel k;
  constexpr int kOps = 4096;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      const vaddr_t lock = env.Mmap(kPageSize);
      for (int i = 0; i < kOps; ++i) {
        env.SpinLock(lock);
        env.SpinUnlock(lock);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kOps);
}

BENCHMARK(BM_UncontendedSpinlock);

void BM_UncontendedSysvSem(benchmark::State& state) {
  Kernel k;
  constexpr int kOps = 4096;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      const int sem = env.Semget(0, 1);
      for (int i = 0; i < kOps; ++i) {
        env.SemOp(sem, -1);  // kernel entry
        env.SemOp(sem, 1);   // kernel entry
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kOps);
}

BENCHMARK(BM_UncontendedSysvSem);

void BM_UncontendedPipeToken(benchmark::State& state) {
  Kernel k;
  constexpr int kOps = 4096;
  for (auto _ : state) {
    bool piped = false;
    RunSim(k, [&](Env& env) {
      int rd, wr;
      if (env.Pipe(&rd, &wr) != 0) {
        return;
      }
      piped = true;
      std::byte token{1};
      for (int i = 0; i < kOps; ++i) {
        env.WriteBuf(wr, std::span<const std::byte>(&token, 1));
        env.ReadBuf(rd, std::span<std::byte>(&token, 1));
      }
    });
    if (!piped) {
      state.SkipWithError("pipe failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * kOps);
}

BENCHMARK(BM_UncontendedPipeToken);

// Raw simulated memory op, the floor busy-waiting approaches.
void BM_AtomicMemoryOp(benchmark::State& state) {
  Kernel k;
  constexpr int kOps = 16384;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      const vaddr_t word = env.Mmap(kPageSize);
      for (int i = 0; i < kOps; ++i) {
        benchmark::DoNotOptimize(env.FetchAdd32(word, 1));
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kOps);
}

BENCHMARK(BM_AtomicMemoryOp);

// ---- ping-pong round trips between two tasks ----
//
// Caveat recorded in EXPERIMENTS.md: on a single-core HOST, a busy-wait
// ping-pong is bounded by host context switches, so the spin variant's
// wall-clock advantage only materializes on multi-core hosts; the
// syscalls_per_round counter carries the architectural point regardless.

constexpr int kRounds = 512;

void BM_PingPongSpin(benchmark::State& state) {
  Kernel k;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      const vaddr_t turn = env.Mmap(kPageSize);
      env.Sproc(
          [turn](Env& c, long) {
            for (int i = 0; i < kRounds; ++i) {
              while (c.AtomicRead32(turn) != 1) {
                c.Yield();
              }
              c.AtomicWrite32(turn, 0);
            }
          },
          PR_SADDR);
      const u64 sys0 = env.proc().syscalls.load();
      for (int i = 0; i < kRounds; ++i) {
        env.AtomicWrite32(turn, 1);
        while (env.AtomicRead32(turn) != 0) {
          env.Yield();
        }
      }
      state.counters["syscalls_per_round"] = static_cast<double>(
          env.proc().syscalls.load() - sys0) / kRounds;
      env.WaitChild();
    });
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}

BENCHMARK(BM_PingPongSpin)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_PingPongSysvSem(benchmark::State& state) {
  Kernel k;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      const int ping = env.Semget(0, 0);
      const int pong = env.Semget(0, 0);
      env.Fork([ping, pong](Env& c, long) {
        for (int i = 0; i < kRounds; ++i) {
          c.SemOp(ping, -1);
          c.SemOp(pong, 1);
        }
      });
      const u64 sys0 = env.proc().syscalls.load();
      for (int i = 0; i < kRounds; ++i) {
        env.SemOp(ping, 1);
        env.SemOp(pong, -1);
      }
      state.counters["syscalls_per_round"] = static_cast<double>(
          env.proc().syscalls.load() - sys0) / kRounds;
      env.WaitChild();
    });
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}

BENCHMARK(BM_PingPongSysvSem)->Unit(benchmark::kMillisecond);

void BM_PingPongPipe(benchmark::State& state) {
  Kernel k;
  for (auto _ : state) {
    bool piped = false;
    RunSim(k, [&](Env& env) {
      int a_rd, a_wr, b_rd, b_wr;
      if (env.Pipe(&a_rd, &a_wr) != 0 || env.Pipe(&b_rd, &b_wr) != 0) {
        return;  // exit closes a pipe the first call made
      }
      piped = true;
      env.Fork([a_rd, b_wr](Env& c, long) {
        std::byte t{0};
        for (int i = 0; i < kRounds; ++i) {
          c.ReadBuf(a_rd, std::span<std::byte>(&t, 1));
          c.WriteBuf(b_wr, std::span<const std::byte>(&t, 1));
        }
      });
      const u64 sys0 = env.proc().syscalls.load();
      std::byte t{0};
      for (int i = 0; i < kRounds; ++i) {
        env.WriteBuf(a_wr, std::span<const std::byte>(&t, 1));
        env.ReadBuf(b_rd, std::span<std::byte>(&t, 1));
      }
      state.counters["syscalls_per_round"] = static_cast<double>(
          env.proc().syscalls.load() - sys0) / kRounds;
      env.WaitChild();
    });
    if (!piped) {
      state.SkipWithError("pipe failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}

BENCHMARK(BM_PingPongPipe)->Unit(benchmark::kMillisecond);

void BM_PingPongSignal(benchmark::State& state) {
  Kernel k;
  for (auto _ : state) {
    RunSim(k, [&](Env& env) {
      static std::atomic<int> parent_hits{0};
      static std::atomic<int> child_hits{0};
      parent_hits = 0;
      child_hits = 0;
      env.Signal(kSigUsr1, [](int) { parent_hits.fetch_add(1); });
      std::atomic<pid_t> child_pid{0};
      const pid_t me = env.Pid();
      env.Fork([&, me](Env& c, long) {
        c.Signal(kSigUsr2, [](int) { child_hits.fetch_add(1); });
        child_pid = c.Pid();
        for (int i = 0; i < kRounds; ++i) {
          while (child_hits.load() <= i) {
            c.Sigpause();  // race-free sleep until our SIGUSR2 lands
          }
          c.Kill(me, kSigUsr1);
        }
      });
      while (child_pid.load() == 0) {
        env.Yield();
      }
      const u64 sys0 = env.proc().syscalls.load();
      for (int i = 0; i < kRounds; ++i) {
        env.Kill(child_pid.load(), kSigUsr2);
        while (parent_hits.load() <= i) {
          env.Sigpause();
        }
      }
      state.counters["syscalls_per_round"] = static_cast<double>(
          env.proc().syscalls.load() - sys0) / kRounds;
      env.WaitChild();
    });
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}

BENCHMARK(BM_PingPongSignal)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sg
