// Tests for the runtime lock-discipline validator (sync/lockdep.*).
//
// Every test here is a positive/negative proof of the two checks the
// validator implements:
//   1. acquisition-order cycles (AB/BA inversion across threads or within
//      one thread) are reported the moment the closing edge appears;
//   2. declaring sleep intent (an update-lock acquisition, BlockOn) while
//      holding a spinlock is reported.
// Plus the "clean protocol" case: the kernel's real lock nesting produces
// zero reports.
//
// Compiled into every build; each case skips when the validator is off
// (the hooks compile to nothing), so the default-ctest run stays green
// while the lockdep preset proves the machinery.
#include "sync/lockdep.h"

#include <gtest/gtest.h>

#include <thread>

#include "sync/spinlock.h"
#include "sync/update_lock.h"

namespace sg {
namespace {

class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!lockdep::kEnabled) {
      GTEST_SKIP() << "lockdep off (build with -DSG_LOCKDEP=ON)";
    }
    lockdep::ResetForTest();
  }
  void TearDown() override {
    if (lockdep::kEnabled) {
      lockdep::ResetForTest();
    }
  }
};

TEST_F(LockdepTest, NestedSameOrderIsClean) {
  Spinlock a("test.order_a");
  Spinlock b("test.order_b");
  for (int i = 0; i < 3; ++i) {
    a.Lock();
    b.Lock();
    b.Unlock();
    a.Unlock();
  }
  EXPECT_EQ(lockdep::Reports(), 0u);
}

TEST_F(LockdepTest, BothOrdersReportCycle) {
  Spinlock a("test.cycle_a");
  Spinlock b("test.cycle_b");
  // a -> b recorded...
  a.Lock();
  b.Lock();
  b.Unlock();
  a.Unlock();
  EXPECT_EQ(lockdep::Reports(), 0u);
  // ...then b -> a closes the cycle. Single-threaded on purpose: the graph
  // is over lock *classes*, so the inversion is visible without ever
  // constructing the deadlock itself.
  b.Lock();
  a.Lock();
  a.Unlock();
  b.Unlock();
  EXPECT_EQ(lockdep::Reports(), 1u);
  const std::string report = lockdep::RenderReport();
  EXPECT_NE(report.find("test.cycle_a"), std::string::npos);
  EXPECT_NE(report.find("test.cycle_b"), std::string::npos);
}

TEST_F(LockdepTest, CycleReportedOncePerEdge) {
  Spinlock a("test.once_a");
  Spinlock b("test.once_b");
  a.Lock();
  b.Lock();
  b.Unlock();
  a.Unlock();
  for (int i = 0; i < 5; ++i) {
    b.Lock();
    a.Lock();
    a.Unlock();
    b.Unlock();
  }
  EXPECT_EQ(lockdep::Reports(), 1u);
}

TEST_F(LockdepTest, CrossThreadInversionReports) {
  Spinlock a("test.xthread_a");
  Spinlock b("test.xthread_b");
  {
    // Thread 1 records a -> b; thread 2 (joined, so no actual deadlock
    // risk) records b -> a.
    std::thread t1([&] {
      a.Lock();
      b.Lock();
      b.Unlock();
      a.Unlock();
    });
    t1.join();
    std::thread t2([&] {
      b.Lock();
      a.Lock();
      a.Unlock();
      b.Unlock();
    });
    t2.join();
  }
  EXPECT_EQ(lockdep::Reports(), 1u);
}

TEST_F(LockdepTest, ThreeLockCycleReports) {
  Spinlock a("test.tri_a");
  Spinlock b("test.tri_b");
  Spinlock c("test.tri_c");
  auto pair = [](Spinlock& first, Spinlock& second) {
    first.Lock();
    second.Lock();
    second.Unlock();
    first.Unlock();
  };
  pair(a, b);
  pair(b, c);
  EXPECT_EQ(lockdep::Reports(), 0u);
  pair(c, a);  // closes a -> b -> c -> a
  EXPECT_EQ(lockdep::Reports(), 1u);
}

TEST_F(LockdepTest, SleepUnderSpinlockReports) {
  Spinlock spin("test.sleep_spin");
  UpdateLock lock;
  {
    SpinGuard g(spin);
    UpdateGuard u(lock);  // declares sleep intent while test.sleep_spin is held
  }
  EXPECT_EQ(lockdep::Reports(), 1u);
  EXPECT_NE(lockdep::RenderReport().find("test.sleep_spin"), std::string::npos);
}

TEST_F(LockdepTest, SleepSiteReportedOnce) {
  Spinlock spin("test.sleep_once");
  UpdateLock lock;
  for (int i = 0; i < 3; ++i) {
    SpinGuard g(spin);
    UpdateGuard u(lock);
  }
  EXPECT_EQ(lockdep::Reports(), 1u);
}

TEST_F(LockdepTest, SleepWithNoSpinlockHeldIsClean) {
  UpdateLock lock;
  {
    UpdateGuard u(lock);
  }
  EXPECT_EQ(lockdep::Reports(), 0u);
}

TEST_F(LockdepTest, HeldCountTracksStack) {
  Spinlock a("test.held_a");
  Spinlock b("test.held_b");
  EXPECT_EQ(lockdep::HeldCount(), 0u);
  a.Lock();
  EXPECT_EQ(lockdep::HeldCount(), 1u);
  b.Lock();
  EXPECT_EQ(lockdep::HeldCount(), 2u);
  // Out-of-stack-order release is legal (the validator unwinds the entry
  // wherever it sits).
  a.Unlock();
  EXPECT_EQ(lockdep::HeldCount(), 1u);
  b.Unlock();
  EXPECT_EQ(lockdep::HeldCount(), 0u);
}

TEST_F(LockdepTest, RenderReportListsClasses) {
  Spinlock a("test.render_a");
  a.Lock();
  a.Unlock();
  const std::string report = lockdep::RenderReport();
  EXPECT_NE(report.find("test.render_a"), std::string::npos);
  EXPECT_NE(report.find("reports: 0"), std::string::npos);
}

}  // namespace
}  // namespace sg
