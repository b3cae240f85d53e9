// VM lockless-fault storm: fault workers sweeping the shared image race
// mmap/munmap, sbrk grow/shrink, unshare and member-exit churn under
// thousands of seeded injection schedules (src/inject/). The lockless
// fault path (DESIGN.md §4h) has four seams a schedule can stretch —
// vm.fault.lockless (between the seqcount snapshot and the resolution),
// vm.fault.undo (revalidation failed, the possibly-stale TLB entry still
// installed, the epoch guard still pinning the updater's quiescence wait),
// vm.fault.retry (after the undo flush) and vm.fault.fallback (entering
// the locked path on the group's update lock) — plus vm.layout.await_drain in the
// writer's quiescence wait and vm.epoch.enter inside an epoch reader's
// registration (EpochPinSurvivesParityFlip). A stale-pregion dereference,
// a stale TLB entry surviving a shootdown, or a leaked frame shows up as
// a crash, tsan report, lockdep report or failed teardown invariant.
//
// Reproducing a failure: rerun the printed schedule with
//
//   SG_STORM_SEED=<seed> ctest -R VmLocklessStorm.ReplayEnvSeed
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/kernel.h"
#include "api/user_env.h"
#include "core/share_mask.h"
#include "hw/cpu_set.h"
#include "inject/inject.h"
#include "obs/stats.h"
#include "sync/lockdep.h"
#include "sync/seqcount.h"
#include "sync/update_lock.h"
#include "vm/shared_space.h"

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

// Deterministic per-worker op stream (splitmix64), seeded from the plan
// seed and the worker's index — not from pids, which are
// interleaving-dependent (same scheme as lifecycle_storm_test.cc).
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

// The shared fault window is wider than the 64-entry direct-mapped TLB, so
// random touches keep missing and re-entering HandleFault for the lifetime
// of the storm — lockless lookups under continuous layout churn.
constexpr u64 kWindowPages = 96;

// One seeded schedule: boot, storm, teardown, check invariants.
void RunVmStorm(u64 seed, const inject::PlanConfig& cfg) {
  SCOPED_TRACE("replay with SG_STORM_SEED=" + std::to_string(seed));

  BootParams bp;
  bp.ncpus = 4;
  bp.phys_mem_bytes = u64{32} << 20;
  bp.max_procs = 16;
  Kernel k(bp);
  const u64 free_at_boot = k.mem().FreeFrames();

  inject::InjectionPlan plan(seed, cfg);
  {
    inject::ScopedInjection active(plan);
    auto root = k.Launch([seed](Env& env, long) {
      const vaddr_t win = env.Mmap(kWindowPages * kPageSize);
      int members = 0;

      // Workers 1-3 — fault workers: random read/write sweeps over the
      // window, re-faulting on nearly every touch. Stores force COW-free
      // demand-zero resolutions AND shared-image writes whose translations
      // a racing shrink/unmap must revoke. The occasional atomic exercises
      // the kEINVAL/kEFAULT split's fast path too.
      for (u32 w = 1; w <= 3 && win != 0; ++w) {
        if (env.Sproc(
                [seed, w, win](Env& c, long) {
                  Rng rng{WorkerSeed(seed, w)};
                  for (int round = 0; round < 48; ++round) {
                    const vaddr_t va = win + rng.Pick(kWindowPages) * kPageSize;
                    switch (rng.Pick(4)) {
                      case 0:
                        c.Store32(va, static_cast<u32>(round));
                        break;
                      case 1:
                        (void)c.FetchAdd32(va + 4 * rng.Pick(16), 1);
                        break;
                      default:
                        (void)c.Load32(va);
                        break;
                    }
                  }
                },
                PR_SADDR) >= 0) {
          ++members;
        }
      }

      // Worker 4 — layout churn: attach/detach and grow/shrink the shared
      // image as fast as the schedule allows. Every op is a seqcount bump
      // plus a shootdown (detach/shrink also retire frames), forcing the
      // fault workers through the retry and fallback seams.
      if (env.Sproc(
              [seed](Env& c, long) {
                Rng rng{WorkerSeed(seed, 4)};
                for (int i = 0; i < 24; ++i) {
                  switch (rng.Pick(4)) {
                    case 0: {
                      const vaddr_t a = c.Mmap((1 + rng.Pick(4)) * kPageSize);
                      if (a != 0) {
                        c.Store32(a, 1);
                        c.Munmap(a);
                      }
                      break;
                    }
                    case 1: {
                      const i64 pages = 1 + rng.Pick(3);
                      if (c.Sbrk(pages * static_cast<i64>(kPageSize)) != 0) {
                        c.Store32(c.Sbrk(0) - kPageSize, 2);  // make a frame real
                        c.Sbrk(-pages * static_cast<i64>(kPageSize));
                      }
                      break;
                    }
                    default:
                      c.Yield();
                      break;
                  }
                }
              },
              PR_SADDR) >= 0) {
        ++members;
      }

      // Worker 5 — membership churn: faults on the shared window, then
      // leaves the group via PR_UNSHARE mid-storm (the UnshareVm COW seam:
      // its stack extraction and group-wide COW marking race every other
      // worker), and keeps faulting on its now-private image.
      if (win != 0 &&
          env.Sproc(
              [seed, win](Env& c, long) {
                Rng rng{WorkerSeed(seed, 5)};
                for (int i = 0; i < 8; ++i) {
                  (void)c.Load32(win + rng.Pick(kWindowPages) * kPageSize);
                }
                (void)c.Prctl(PR_UNSHARE, PR_SADDR);
                for (int i = 0; i < 8; ++i) {
                  c.Store32(win + rng.Pick(kWindowPages) * kPageSize, 5);
                }
              },
              PR_SADDR) >= 0) {
        ++members;
      }

      // Root joins the fault storm too, then reaps. Each member exit is a
      // RemoveMember: stack retirement + member-TLB unpublish racing the
      // remaining faulters.
      if (win != 0) {
        Rng rng{WorkerSeed(seed, 0)};
        for (int round = 0; round < 24; ++round) {
          (void)env.Load32(win + rng.Pick(kWindowPages) * kPageSize);
        }
      }
      for (int i = 0; i < members; ++i) {
        env.WaitChild();
      }
    });
    (void)root;
    k.WaitAll();
  }  // plan uninstalled only after every host thread has quiesced

  EXPECT_GT(plan.decisions(), 0u);
  EXPECT_EQ(k.LiveBlocks(), 0u);
  // Every frame back in the allocator: no translation outlived its frame,
  // no graveyard pregion leaked its region's pages or their group charge.
  EXPECT_EQ(k.mem().FreeFrames(), free_at_boot);
  // Under the lockdep preset every schedule must keep the lock-order graph
  // acyclic — the region lock nests inside the group's update lock on the
  // fallback path and stands alone on the lockless path, and the TLB
  // spinlocks nest inside it on both.
  EXPECT_EQ(lockdep::Reports(), 0u) << lockdep::RenderReport();
}

inject::PlanConfig StormConfig() {
  inject::PlanConfig cfg;
  cfg.yield_ppm = 300000;
  cfg.delay_ppm = 200000;
  // No resource-fault injection here: this storm is about interleavings
  // through the lockless seams, and the window mmap failing at boot would
  // no-op most workers. FaultsUnwindCleanly in the lifecycle storm covers
  // allocation-failure unwinding.
  cfg.fault_ppm = 0;
  return cfg;
}

// 4 shards so ctest -j overlaps them; the default-build sweep is 4 x 24 =
// 96 schedules with 6 racing workers each. Under tsan every schedule costs
// ~10x, so the sweep shrinks — the tsan preset's job is race detection.
#if defined(SG_STORM_TSAN)
constexpr int kSeedsPerShard = 4;
#else
constexpr int kSeedsPerShard = 24;
#endif
constexpr u64 kSeedBase = 0xFA170000;

void RunShard(int shard) {
  const inject::PlanConfig cfg = StormConfig();
  for (int i = 0; i < kSeedsPerShard; ++i) {
    const u64 seed = kSeedBase + static_cast<u64>(shard) * kSeedsPerShard + i;
    RunVmStorm(seed, cfg);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(VmLocklessStorm, Shard0) { RunShard(0); }
TEST(VmLocklessStorm, Shard1) { RunShard(1); }
TEST(VmLocklessStorm, Shard2) { RunShard(2); }
TEST(VmLocklessStorm, Shard3) { RunShard(3); }

// Replays one schedule named in the environment — the repro path printed
// by a failing storm assertion.
TEST(VmLocklessStorm, ReplayEnvSeed) {
  const char* s = std::getenv("SG_STORM_SEED");
  if (s == nullptr || *s == '\0') {
    GTEST_SKIP() << "set SG_STORM_SEED=<seed> to replay a failing schedule";
  }
  RunVmStorm(std::strtoull(s, nullptr, 0), StormConfig());
}

// The storm actually drives the seams it claims to: across a few
// schedules the lockless path must both hit and (thanks to the injected
// delays between snapshot and revalidation) retry or fall back.
TEST(VmLocklessStorm, SeamsExercised) {
  obs::Stats& stats = obs::Stats::Global();
  const u64 hits0 = stats.CounterValue("vm.fault.lockless_hits");
  const u64 slow0 = stats.CounterValue("vm.fault.retries") +
                    stats.CounterValue("vm.fault.fallbacks");
  const inject::PlanConfig cfg = StormConfig();
  for (u64 seed = 1; seed <= 8; ++seed) {
    RunVmStorm(0xF00D0000 + seed, cfg);
    if (HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(stats.CounterValue("vm.fault.lockless_hits"), hits0);
  EXPECT_GT(stats.CounterValue("vm.fault.retries") +
                stats.CounterValue("vm.fault.fallbacks"),
            slow0);
}

// EpochGuard parity race. A reader loads the epoch parity, stalls at
// vm.epoch.enter, and registers only after a writer flipped the parity and
// drained that side. Unless the guard re-checks the parity, the reader
// then sits on the side the NEXT writer does not drain, and that writer
// frees the snapshot the reader holds. Oracle: after each quiescence wait
// the writer publishes the layout generation below which every snapshot
// is freed; a reader holding the snapshot of generation s must never see
// that mark pass s (under asan the stale dereference also aborts).
TEST(VmLocklessStorm, EpochPinSurvivesParityFlip) {
  CpuSet cpus(1);
  SharedSpace ss(cpus);
  std::atomic<u64> freed_below{0};
  std::atomic<u64> violations{0};
  std::atomic<bool> stop{false};

  inject::PlanConfig cfg;
  cfg.delay_ppm = 1000000;  // stretch every registration window
  cfg.max_delay_spins = 1u << 16;
  inject::InjectionPlan plan(0xE90C0001, cfg);
  {
    inject::ScopedInjection active(plan);
    std::thread writer([&] {
      while (!stop.load()) {
        UpdateGuard g(ss.lock());
        {
          SeqWriter w(ss.layout_seq());
          ss.Republish();  // retires the snapshot readers may hold
        }
        const u64 published = ss.layout_seq().value();
        ss.AwaitQuiescent();
        freed_below.store(published);
      }
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&] {
        for (int i = 0; i < 1000; ++i) {
          SharedSpace::EpochGuard epoch(ss);
          u64 s0 = 0;
          if (!ss.layout_seq().TryReadBegin(&s0)) {
            continue;
          }
          const LayoutSnapshot* snap = ss.layout();
          if (!ss.layout_seq().ReadValidate(s0)) {
            continue;
          }
          // Hold the pin across writer cycles.
          const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(100);
          while (std::chrono::steady_clock::now() < until) {
            if (freed_below.load() > s0) {
              violations.fetch_add(1);
              break;
            }
            std::this_thread::yield();
          }
          EXPECT_TRUE(snap->pregions.empty());  // a freed snapshot aborts here under asan
        }
      });
    }
    for (auto& t : readers) {
      t.join();
    }
    stop = true;
    writer.join();
  }
  EXPECT_EQ(violations.load(), 0u);
}

#else  // !SG_INJECT_ENABLED

TEST(VmLocklessStorm, SkippedWithoutInjection) {
  GTEST_SKIP() << "configure with -DSG_INJECT=ON to run the storm";
}

#endif

}  // namespace
}  // namespace sg
