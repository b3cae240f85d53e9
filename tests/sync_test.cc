// Unit tests for sync/: spinlock, the update lock (§6.2), and the BlockOn
// sleep it shares with every other kernel wait.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/stats.h"
#include "sync/execution_context.h"
#include "sync/spinlock.h"
#include "sync/update_lock.h"
#include "sync/wait.h"

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

TEST(SharedReadLock, RecordsEveryGrantInItsHistogram) {
  UpdateLock lock;
  {
    UpdateGuard g(lock);
  }
  {
    UpdateGuard g(lock);
  }
  EXPECT_EQ(lock.updates(), 2u);
  EXPECT_EQ(lock.update_wait_histo().count(), 2u);
}

// Context integration: a context-bearing thread releases its simulated CPU
// while it sleeps, and registers a signal wakeup only when interruptible.
class RecordingCtx final : public ExecutionContext {
 public:
  void WillBlock() override { ++blocks; }
  void DidWake() override { ++wakes; }
  bool InterruptPending() override { return interrupt; }
  void SetWakeup(std::condition_variable*, std::mutex*) override { ++registrations; }
  bool interrupt = false;
  int blocks = 0;
  int wakes = 0;
  int registrations = 0;
};

// A contended acquisition sleeps uninterruptibly: it gives the CPU back,
// takes it again once, and registers no signal wakeup, so a signal poster
// never reaches a lock that may be freed with its group.
TEST(ExecutionContext, UpdateLockReleasesCpuWhileBlocked) {
  UpdateLock lock;
  RecordingCtx ctx;
  obs::Stats& stats = obs::Stats::Global();
  const u64 sleeps0 = stats.CounterValue("sync.sema_sleeps");
  std::thread t;
  {
    UpdateGuard g(lock);
    t = std::thread([&] {
      ScopedExecutionContext scope(&ctx);
      UpdateGuard waiter(lock);
    });
    // The waiter counts its sleep under the lock's mutex just before it
    // waits, so a release after this point must wake it.
    while (stats.CounterValue("sync.sema_sleeps") == sleeps0) {
      std::this_thread::yield();
    }
  }
  t.join();
  EXPECT_GE(ctx.blocks, 1);
  EXPECT_EQ(ctx.wakes, 1);
  EXPECT_EQ(ctx.registrations, 0);
  EXPECT_EQ(lock.update_waits(), 1u);
}

TEST(ExecutionContext, UninterruptibleBlockOnRegistersNoWakeup) {
  std::mutex m;
  std::condition_variable cv;
  bool ready = false;
  bool sleeping = false;
  RecordingCtx ctx;
  std::thread t([&] {
    ScopedExecutionContext scope(&ctx);
    bool slept = false;
    {
      std::unique_lock<std::mutex> l(m);
      ASSERT_TRUE(BlockOn(cv, l, SleepMode::kUninterruptible, &slept, [&] {
                    sleeping = !ready;
                    return ready;
                  }).ok());
    }
    FinishSleep(slept);
    EXPECT_TRUE(slept);
  });
  // `sleeping` turns true under m just before the wait releases m.
  for (;;) {
    {
      std::lock_guard<std::mutex> l(m);
      if (sleeping) {
        ready = true;
        break;
      }
    }
    std::this_thread::yield();
  }
  cv.notify_all();
  t.join();
  EXPECT_EQ(ctx.registrations, 0);
  EXPECT_GE(ctx.blocks, 1);
  EXPECT_EQ(ctx.wakes, 1);
}

// An interruptible sleep gives its CPU back before it checks for a pending
// signal. When the signal is already pending on the first pass, it returns
// kEINTR without sleeping, and FinishSleep must still take the CPU back.
TEST(ExecutionContext, InterruptedFirstPassRetakesCpu) {
  std::mutex m;
  std::condition_variable cv;
  RecordingCtx ctx;
  ctx.interrupt = true;
  ScopedExecutionContext scope(&ctx);
  bool slept = false;
  Status st;
  {
    std::unique_lock<std::mutex> l(m);
    st = BlockOn(cv, l, SleepMode::kInterruptible, &slept, [] { return false; });
  }
  FinishSleep(slept);
  EXPECT_EQ(st.error(), Errno::kEINTR);
  EXPECT_EQ(ctx.blocks, 1);
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
