// Unit tests for sync/: spinlock, semaphore, and the update lock built on
// the semaphore (§6.2).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/stats.h"
#include "sync/execution_context.h"
#include "sync/semaphore.h"
#include "sync/spinlock.h"
#include "sync/update_lock.h"

namespace sg {
namespace {

TEST(Spinlock, MutualExclusion) {
  Spinlock lock;
  u64 counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&] {
      for (int n = 0; n < kIters; ++n) {
        SpinGuard g(lock);
        ++counter;
      }
    });
  }
  for (auto& t : ts) {
    t.join();
  }
  EXPECT_EQ(counter, static_cast<u64>(kThreads) * kIters);
}

TEST(Spinlock, TryLock) {
  Spinlock lock;
  EXPECT_TRUE(lock.TryLock());
  EXPECT_FALSE(lock.TryLock());
  lock.Unlock();
  EXPECT_TRUE(lock.TryLock());
  lock.Unlock();
}

TEST(Semaphore, CountingSemantics) {
  Semaphore sem(2);
  EXPECT_TRUE(sem.TryP());
  EXPECT_TRUE(sem.TryP());
  EXPECT_FALSE(sem.TryP());
  sem.V();
  EXPECT_EQ(sem.count(), 1);
  EXPECT_TRUE(sem.TryP());
}

TEST(Semaphore, PBlocksUntilV) {
  Semaphore sem(0);
  std::atomic<bool> got{false};
  std::thread t([&] {
    EXPECT_TRUE(sem.P().ok());
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(got.load());
  sem.V();
  t.join();
  EXPECT_TRUE(got.load());
  EXPECT_GE(sem.sleeps(), 1u);
}

TEST(Semaphore, ProducerConsumer) {
  Semaphore items(0);
  Semaphore slots(4);
  std::atomic<int> consumed{0};
  constexpr int kN = 5000;
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(slots.P().ok());
      items.V();
    }
  });
  std::thread consumer([&] {
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(items.P().ok());
      slots.V();
      ++consumed;
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(consumed.load(), kN);
}

// The group's update lock (sync/update_lock.h). The suite keeps the
// paper's name for the lock, whose read side it no longer has.
TEST(SharedReadLock, UpdaterExcludesReadersAndUpdaters) {
  UpdateLock lock;
  std::atomic<int> updaters_inside{0};
  std::atomic<bool> violation{false};
  std::vector<std::thread> ts;
  for (int i = 0; i < 2; ++i) {
    ts.emplace_back([&] {
      for (int n = 0; n < 500; ++n) {
        UpdateGuard g(lock);
        if (updaters_inside.fetch_add(1) != 0) {
          violation = true;
        }
        updaters_inside.fetch_sub(1);
      }
    });
  }
  for (auto& t : ts) {
    t.join();
  }
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(lock.updates(), 1000u);
}

TEST(SharedReadLock, SetNameSurfacesPerLockCounters) {
  UpdateLock lock;
  lock.SetName("synctest0");
  EXPECT_EQ(lock.name(), "synctest0");
  const u64 updates0 = obs::Stats::Global().CounterValue("sharedlock.synctest0.updates");
  {
    UpdateGuard g(lock);
  }
  {
    UpdateGuard g(lock);
  }
  EXPECT_EQ(obs::Stats::Global().CounterValue("sharedlock.synctest0.updates"), updates0 + 2);
  EXPECT_GE(obs::Stats::Global().HistoCount("sharedlock.synctest0.update_wait_ns"), 2u);
  // The per-lock histogram recorded both grants too.
  EXPECT_EQ(lock.update_wait_histo().count(), 2u);
}

// Context integration: a context-bearing thread releases its simulated CPU
// while blocked in P().
class RecordingCtx final : public ExecutionContext {
 public:
  void WillBlock() override { ++blocks; }
  void DidWake() override { ++wakes; }
  void SetWakeup(std::condition_variable*, std::mutex*) override { ++registrations; }
  int blocks = 0;
  int wakes = 0;
  int registrations = 0;
};

TEST(ExecutionContext, SemaphoreReleasesCpuWhileBlocked) {
  Semaphore sem(0);
  RecordingCtx ctx;
  std::thread t([&] {
    ScopedExecutionContext scope(&ctx);
    ASSERT_TRUE(sem.P().ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sem.V();
  t.join();
  EXPECT_GE(ctx.blocks, 1);
  EXPECT_EQ(ctx.wakes, 1);
}

// An uninterruptible P registers no signal wakeup, so a signal poster never
// reaches the semaphore: the group's update lock is one, and it may be freed
// with its group as soon as its last sleeper leaves.
TEST(ExecutionContext, UninterruptibleSemaphoreRegistersNoWakeup) {
  Semaphore sem(0);
  RecordingCtx ctx;
  std::thread t([&] {
    ScopedExecutionContext scope(&ctx);
    ASSERT_TRUE(sem.P(SleepMode::kUninterruptible).ok());
  });
  while (sem.sleeps() == 0) {
    std::this_thread::yield();
  }
  sem.V();
  t.join();
  EXPECT_EQ(ctx.registrations, 0);
  EXPECT_EQ(ctx.wakes, 1);
}

TEST(ExecutionContext, CurrentIsThreadLocal) {
  RecordingCtx a;
  SetCurrentExecutionContext(&a);
  EXPECT_EQ(CurrentExecutionContext(), &a);
  std::thread t([] { EXPECT_EQ(CurrentExecutionContext(), nullptr); });
  t.join();
  SetCurrentExecutionContext(nullptr);
}

}  // namespace
}  // namespace sg
