// Unit tests for sync/: spinlock, semaphore, and — most importantly — the
// paper's shared read lock (s_acclck/s_acccnt/s_waitcnt/s_updwait
// construction, §6.2).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/stats.h"
#include "sync/execution_context.h"
#include "sync/semaphore.h"
#include "sync/shared_read_lock.h"
#include "sync/spinlock.h"

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

TEST(SharedReadLock, ManyConcurrentReaders) {
  // Deterministic overlap: hold a read lock here and prove another reader
  // still enters ("any number of processes can scan the list").
  SharedReadLock lock;
  lock.AcquireRead();
  std::atomic<bool> second_entered{false};
  std::thread other([&] {
    ReadGuard g(lock);
    second_entered = true;
  });
  other.join();  // completes while WE still hold the read side
  EXPECT_TRUE(second_entered.load());
  lock.ReleaseRead();
  EXPECT_EQ(lock.reads(), 2u);

  // And a throughput burst for the counters.
  constexpr int kReaders = 8;
  std::vector<std::thread> ts;
  for (int i = 0; i < kReaders; ++i) {
    ts.emplace_back([&] {
      for (int n = 0; n < 500; ++n) {
        ReadGuard g(lock);
      }
    });
  }
  for (auto& t : ts) {
    t.join();
  }
  EXPECT_EQ(lock.reads(), 2u + static_cast<u64>(kReaders) * 500);
}

TEST(SharedReadLock, UpdaterExcludesReadersAndUpdaters) {
  SharedReadLock lock;
  std::atomic<int> readers_inside{0};
  std::atomic<int> updaters_inside{0};
  std::atomic<bool> violation{false};
  std::vector<std::thread> ts;
  for (int i = 0; i < 6; ++i) {
    ts.emplace_back([&] {
      for (int n = 0; n < 2000; ++n) {
        ReadGuard g(lock);
        readers_inside.fetch_add(1);
        if (updaters_inside.load() != 0) {
          violation = true;
        }
        readers_inside.fetch_sub(1);
      }
    });
  }
  for (int i = 0; i < 2; ++i) {
    ts.emplace_back([&] {
      for (int n = 0; n < 500; ++n) {
        UpdateGuard g(lock);
        if (updaters_inside.fetch_add(1) != 0 || readers_inside.load() != 0) {
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

TEST(SharedReadLock, ReadersDrainBeforeUpdate) {
  SharedReadLock lock;
  lock.AcquireRead();
  std::atomic<bool> updated{false};
  std::thread up([&] {
    lock.AcquireUpdate();
    updated = true;
    lock.ReleaseUpdate();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(updated.load());  // updater waits for the reader
  lock.ReleaseRead();
  up.join();
  EXPECT_TRUE(updated.load());
  EXPECT_GE(lock.update_waits(), 1u);
}

TEST(SharedReadLock, ReaderBlockedDuringUpdateTakesSlowPath) {
  SharedReadLock lock;
  lock.AcquireUpdate();
  std::atomic<bool> entered{false};
  std::thread reader([&] {
    ReadGuard g(lock);
    entered = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(entered.load());  // the writer holds: reader queued
  lock.ReleaseUpdate();
  reader.join();
  EXPECT_TRUE(entered.load());
  EXPECT_EQ(lock.reads(), 1u);
  EXPECT_GE(lock.read_waits(), 1u);  // it entered after at least one sleep
}

// The §6.2 contention shape under stress: a continuous stream of "faulting"
// readers (they re-acquire as fast as they can, like members refaulting
// after shootdowns) races a fixed number of updaters. Writer preference
// must let every updater finish WHILE the reader stream keeps running —
// if the stream could starve updaters this test never terminates — and
// the grant/update counters must come out exact.
TEST(SharedReadLock, UpdatersFinishAgainstContinuousReaderStream) {
  SharedReadLock lock;
  std::atomic<bool> stop{false};
  std::atomic<u64> reader_grants{0};
  constexpr int kReaders = 6;
  constexpr int kUpdaters = 2;
  constexpr int kUpdatesEach = 300;

  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ReadGuard g(lock);
        reader_grants.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> updaters;
  for (int i = 0; i < kUpdaters; ++i) {
    updaters.emplace_back([&] {
      for (int n = 0; n < kUpdatesEach; ++n) {
        UpdateGuard g(lock);
      }
    });
  }
  // All updates complete while the readers are still streaming.
  for (auto& t : updaters) {
    t.join();
  }
  EXPECT_FALSE(stop.load());
  stop = true;
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(lock.updates(), static_cast<u64>(kUpdaters) * kUpdatesEach);
  // Every grant the readers counted is visible in the lock's read count —
  // no acquisition was lost or double-counted.
  EXPECT_EQ(lock.reads(), reader_grants.load());
}

TEST(SharedReadLock, SetNameSurfacesPerLockCounters) {
  SharedReadLock lock;
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

// The lost-wakeup shape: one updater holds the lock, a second waits, and
// readers keep arriving, queued both before and after the second updater.
// A release must wake EVERY sleeper: with one wakeup per release (in either
// queue order), a reader is woken first, goes back to sleep behind the
// waiting updater, and spends the updater's only wakeup while the lock
// sits free.
TEST(SharedReadLock, WaitingUpdaterWokenPastArrivingReaders) {
  SharedReadLock lock;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  auto add_readers = [&](u64 queued) {
    for (int i = 0; i < 2; ++i) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          ReadGuard g(lock);
        }
      });
    }
    while (lock.read_waits() < queued) {
      std::this_thread::yield();
    }
  };
  lock.AcquireUpdate();
  add_readers(2);
  std::atomic<bool> second_done{false};
  std::thread second([&] {
    UpdateGuard g(lock);
    second_done = true;
  });
  while (lock.update_waits() == 0) {
    std::this_thread::yield();
  }
  add_readers(4);
  lock.ReleaseUpdate();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!second_done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(second_done.load()) << "the waiting updater missed its wakeup";
  if (!second_done.load()) {
    // Kick the stranded sleepers so the failure reports instead of hanging.
    lock.AcquireUpdate();
    lock.ReleaseUpdate();
  }
  second.join();
  stop = true;
  for (auto& t : readers) {
    t.join();
  }
}

// Context integration: a context-bearing thread releases its simulated CPU
// while blocked in P().
class RecordingCtx final : public ExecutionContext {
 public:
  void WillBlock() override { ++blocks; }
  void DidWake() override { ++wakes; }
  int blocks = 0;
  int wakes = 0;
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
