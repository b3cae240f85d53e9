// Lifecycle storm: sproc/exec/exit/close churn across share groups under
// thousands of seeded injection schedules (src/inject/). Every run boots a
// fresh kernel, installs an InjectionPlan, drives a fixed cast of workers
// whose op mixes are derived from (seed, worker index) — NOT from pids,
// which are interleaving-dependent — and then checks the global teardown
// invariants: no live share blocks, no leaked open files, every physical
// frame back in the allocator.
//
// Reproducing a failure: every assertion inside a storm run is annotated
// with the seed. Re-run just that schedule with
//
//   SG_STORM_SEED=<seed> ctest -R LifecycleStorm.ReplayEnvSeed
//
// (see the Replay test below and README.md).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>

#include "api/kernel.h"
#include "api/user_env.h"
#include "core/share_mask.h"
#include "inject/inject.h"
#include "obs/stats.h"
#include "rm/rm.h"
#include "sync/lockdep.h"

#if defined(__SANITIZE_THREAD__)
#define SG_STORM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SG_STORM_TSAN 1
#endif
#endif

namespace sg {
namespace {

#if defined(SG_INJECT_ENABLED)

// Deterministic per-worker op stream (splitmix64). Seeded from the plan
// seed and the worker's index so the stream does not depend on pid
// assignment order.
struct Rng {
  u64 s;
  u64 Next() {
    s += 0x9e3779b97f4a7c15ull;
    u64 z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  u32 Pick(u32 n) { return static_cast<u32>(Next() % n); }
};

u64 WorkerSeed(u64 seed, u32 worker) { return seed * 0x100000001b3ull + worker; }

// A few rounds of fd-table churn: open/dup/close against the shared master
// table plus the occasional shared-scalar update. Every op tolerates the
// plan's injected resource failures (ENFILE/ENOMEM-class).
void FdChurn(Env& e, u64 rng_seed, int rounds) {
  Rng rng{rng_seed};
  for (int i = 0; i < rounds; ++i) {
    switch (rng.Pick(6)) {
      case 0:
      case 1: {
        const std::string path = "/s" + std::to_string(rng.Pick(8));
        int fd = e.Open(path, kOpenRdwr | kOpenCreat);
        if (fd >= 0) {
          switch (rng.Pick(4)) {
            case 0: {
              int d = e.Dup(fd);
              if (d >= 0) {
                e.Close(d);
              }
              break;
            }
            case 1: {
              // Fixed-target dup2: members race to repoint the same slot,
              // exercising delta publishes that REPLACE a live master slot.
              int d = e.Dup2(fd, 40 + static_cast<int>(rng.Pick(4)));
              if (d >= 0) {
                e.Close(d);
              }
              break;
            }
            case 2:
              // Flag-byte-only publish (slot gen bumps, no refcount move).
              (void)e.SetCloexec(fd, rng.Pick(2) == 0);
              break;
            default:
              break;
          }
          e.Close(fd);
        }
        break;
      }
      case 2:
        e.Umask(static_cast<mode_t>(rng.Pick(0777)));
        break;
      case 3:
        e.Setuid(0);  // no-op identity write through the PR_SID path
        break;
      case 4:
        e.Chdir("/");
        break;
      case 5:
        e.Yield();
        break;
    }
  }
}

// Reads /proc/share and every group file under it — racing group teardown
// on other threads. Content is unchecked (groups come and go); the point
// is that the read itself is safe.
void PokeProcShare(Env& e) {
  for (const std::string& name : e.ListDir("/proc/share")) {
    int fd = e.Open("/proc/share/" + name, kOpenRead);
    if (fd >= 0) {
      std::byte buf[512];
      (void)e.ReadBuf(fd, buf);
      e.Close(fd);
    }
  }
}

// One seeded schedule: boot, storm, teardown, check invariants.
void RunStorm(u64 seed, const inject::PlanConfig& cfg) {
  SCOPED_TRACE("replay with SG_STORM_SEED=" + std::to_string(seed));

  BootParams bp;
  bp.ncpus = 4;
  bp.phys_mem_bytes = u64{16} << 20;
  bp.max_procs = 32;
  bp.mount_procfs = true;
  Kernel k(bp);
  const u64 free_at_boot = k.mem().FreeFrames();
  const u64 files_at_boot = k.vfs().files().Count();
  const i64 rm_live_at_boot = obs::Stats::Global().gauge("rm.groups.live").value();

  inject::InjectionPlan plan(seed, cfg);
  {
    inject::ScopedInjection active(plan);
    auto root = k.Launch([seed](Env& env, long) {
      const pid_t root_pid = env.Pid();
      vaddr_t buf = env.Mmap(kPageSize);
      int members = 0;

      // Worker 1 — PR_SALL member: pure fd/scalar churn on the shared
      // u-area resources.
      if (env.Sproc([seed](Env& c, long) { FdChurn(c, WorkerSeed(seed, 1), 12); },
                    PR_SALL) >= 0) {
        ++members;
      }

      // Randomized rm caps over the freshly formed group (tight enough that
      // some schedules breach them): admissions beyond a cap bounce with
      // EAGAIN mid-storm and every worker path tolerates the denial. Page
      // caps stay off — this storm has no swap to steal into.
      if (env.proc().shaddr != nullptr) {
        Rng crng{WorkerSeed(seed, 9)};
        (void)env.Prctl(PR_SETRCAP, PrRcapArg(PR_RCAP_MEMBERS, 2 + crng.Pick(4)));
        const u64 fd_used = env.proc().shaddr->rm_node()->used(rm::Resource::kFiles);
        (void)env.Prctl(PR_SETRCAP, PrRcapArg(PR_RCAP_FILES, fd_used + 2 + crng.Pick(8)));
        (void)env.Prctl(PR_SETSHARES, 1 + crng.Pick(400));
      }

      // Worker 2 — PR_SALL member that detaches via exec(2) mid-churn.
      // The injected alloc.stack fault can kill it during the overlay
      // (ProcTerminated with kSigKill) — the storm tolerates that.
      if (env.Sproc(
              [seed](Env& c, long) {
                FdChurn(c, WorkerSeed(seed, 2), 4);
                Image img;
                img.main = [](Env& n, long) {
                  int fd = n.Open("/execed", kOpenWrite | kOpenCreat);
                  if (fd >= 0) {
                    n.Close(fd);
                  }
                };
                c.Exec(img);  // only returns on an injected failure
              },
              PR_SALL) >= 0) {
        ++members;
      }

      // Worker 3 — PR_SADDR member that sprocs a grandchild into the same
      // group (two generations racing the creator's exit).
      if (env.Sproc(
              [seed, buf](Env& c, long) {
                if (c.Sproc(
                        [buf](Env& g, long) {
                          if (buf != 0) {
                            g.Store32(buf, 7);
                          }
                        },
                        PR_SADDR) >= 0) {
                  c.WaitChild();
                }
              },
              PR_SADDR) >= 0) {
        ++members;
      }

      // Worker 4 — a fork(2) child OUTSIDE the group that races
      // PR_JOINGROUP against the members' exits and reads /proc/share
      // while groups tear down. Root does not wait for it specifically;
      // it may outlive the whole group.
      if (env.Fork([seed, root_pid](Env& f, long) {
            Rng rng{WorkerSeed(seed, 4)};
            for (int i = 0; i < 8; ++i) {
              PokeProcShare(f);
              i64 mask = f.Prctl(PR_JOINGROUP, root_pid);
              if (mask >= 0) {
                FdChurn(f, rng.Next(), 3);
                break;
              }
              f.Yield();
            }
          }) >= 0) {
        ++members;
      }

      FdChurn(env, WorkerSeed(seed, 0), 8);
      // Reap as many children as were created (any order); a straggler is
      // reparented to the kernel when we exit and reaped by WaitAll.
      for (int i = 0; i < members; ++i) {
        env.WaitChild();
      }
    });
    // An injected alloc.stack fault can fail the root launch itself; the
    // invariants below must hold regardless.
    (void)root;
    k.WaitAll();
  }  // plan uninstalled only after every host thread has quiesced

  EXPECT_GT(plan.decisions(), 0u);
  EXPECT_EQ(k.LiveBlocks(), 0u);
  EXPECT_EQ(k.vfs().files().Count(), files_at_boot);
  EXPECT_EQ(k.mem().FreeFrames(), free_at_boot);
  // Every rm node created during the storm was released with its block
  // (usage underflow would already have panicked inside the run).
  EXPECT_EQ(obs::Stats::Global().gauge("rm.groups.live").value(), rm_live_at_boot);
  // Under the lockdep preset, every schedule the storm forces through the
  // lifecycle windows must keep the lock-order graph acyclic and never
  // declare sleep intent under a spinlock.
  EXPECT_EQ(lockdep::Reports(), 0u) << lockdep::RenderReport();
}

inject::PlanConfig StormConfig() {
  inject::PlanConfig cfg;
  cfg.yield_ppm = 300000;
  cfg.delay_ppm = 200000;
  cfg.fault_ppm = 20000;
  return cfg;
}

// 8 shards x kSeedsPerShard schedules. Sharded so ctest -j overlaps them;
// the full default-build sweep is 1280 seeds (>= the 1000 the roadmap
// asks for). Under tsan each schedule costs ~10x, so the sweep shrinks —
// the tsan preset's job is race detection, not seed coverage.
#if defined(SG_STORM_TSAN)
constexpr int kSeedsPerShard = 12;
#else
constexpr int kSeedsPerShard = 160;
#endif
constexpr u64 kSeedBase = 0xBEEF0000;

void RunShard(int shard) {
  const inject::PlanConfig cfg = StormConfig();
  for (int i = 0; i < kSeedsPerShard; ++i) {
    const u64 seed = kSeedBase + static_cast<u64>(shard) * kSeedsPerShard + i;
    RunStorm(seed, cfg);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(LifecycleStorm, Shard0) { RunShard(0); }
TEST(LifecycleStorm, Shard1) { RunShard(1); }
TEST(LifecycleStorm, Shard2) { RunShard(2); }
TEST(LifecycleStorm, Shard3) { RunShard(3); }
TEST(LifecycleStorm, Shard4) { RunShard(4); }
TEST(LifecycleStorm, Shard5) { RunShard(5); }
TEST(LifecycleStorm, Shard6) { RunShard(6); }
TEST(LifecycleStorm, Shard7) { RunShard(7); }

// Replays one schedule named in the environment — the repro path printed
// by a failing storm assertion.
TEST(LifecycleStorm, ReplayEnvSeed) {
  const char* s = std::getenv("SG_STORM_SEED");
  if (s == nullptr || *s == '\0') {
    GTEST_SKIP() << "set SG_STORM_SEED=<seed> to replay a failing schedule";
  }
  RunStorm(std::strtoull(s, nullptr, 0), StormConfig());
}

// The determinism contract, verified where it is verifiable: a scenario
// with ONE simulated process hits points in a fixed per-thread order, so
// two runs under the same seed must draw bit-identical decision streams
// (equal XOR digest and draw count).
TEST(LifecycleStorm, DigestDeterministicSingleProc) {
  auto run = [](u64 seed) {
    BootParams bp;
    bp.ncpus = 2;
    bp.phys_mem_bytes = u64{16} << 20;
    bp.max_procs = 8;
    Kernel k(bp);
    inject::InjectionPlan plan(seed, StormConfig());
    {
      inject::ScopedInjection active(plan);
      auto pid = k.Launch([](Env& env, long) { FdChurn(env, 42, 16); });
      EXPECT_TRUE(pid.ok() || pid.error() == Errno::kENOMEM);
      k.WaitAll();
    }
    return std::pair<u64, u64>(plan.digest(), plan.decisions());
  };
  const auto a = run(0xD1CE5EEDull);
  const auto b = run(0xD1CE5EEDull);
  EXPECT_GT(a.second, 0u);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  // A different seed must perturb differently (overwhelmingly likely).
  const auto c = run(0x0DDBA11ull);
  EXPECT_NE(a.first, c.first);
}

// Cranked fault rate: every SG_INJECT_FAULT site fires constantly and the
// kernel must unwind each one without leaking a frame, a file or a block.
TEST(LifecycleStorm, FaultsUnwindCleanly) {
  inject::PlanConfig cfg;
  cfg.yield_ppm = 100000;
  cfg.fault_ppm = 400000;
  for (u64 seed = 1; seed <= 8; ++seed) {
    RunStorm(seed, cfg);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// Injection-point hit counts surface through the obs stats registry (and
// thus /proc/stat, which renders the same registry).
TEST(LifecycleStorm, HitCountsVisibleInStats) {
  RunStorm(0xC0FFEEull, StormConfig());
  EXPECT_GT(obs::Stats::Global().counter("inject.point.shaddr.fds.lock").value(), 0u);
  const std::string text = obs::Stats::Global().RenderText();
  EXPECT_NE(text.find("inject.point."), std::string::npos);
}

#else  // !SG_INJECT_ENABLED

TEST(LifecycleStorm, SkippedWithoutInjection) {
  GTEST_SKIP() << "configure with -DSG_INJECT=ON to run the storm";
}

#endif

}  // namespace
}  // namespace sg
