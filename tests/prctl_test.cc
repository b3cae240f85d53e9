// prctl(2) options (§5.2) and their interaction with sproc stack layout.
#include <gtest/gtest.h>

#include <atomic>

#include "api/kernel.h"
#include "api/user_env.h"

namespace sg {
namespace {

void RunAsProcess(Kernel& k, std::function<void(Env&)> body) {
  auto pid = k.Launch([body = std::move(body)](Env& env, long) { body(env); });
  ASSERT_TRUE(pid.ok());
  k.WaitAll();
}

TEST(Prctl, MaxProcsReportsTableLimit) {
  BootParams bp;
  bp.max_procs = 99;
  Kernel k(bp);
  std::atomic<i64> v{0};
  (void)k.Launch([&](Env& env, long) { v = env.Prctl(PR_MAXPROCS); });
  k.WaitAll();
  EXPECT_EQ(v.load(), 99);
}

TEST(Prctl, GetStackSizeDefault) {
  Kernel k;
  std::atomic<i64> v{0};
  (void)k.Launch([&](Env& env, long) { v = env.Prctl(PR_GETSTACKSIZE); });
  k.WaitAll();
  EXPECT_EQ(v.load(), static_cast<i64>(kDefaultStackMaxPages * kPageSize));
}

TEST(Prctl, SetStackSizeRoundsToPagesAndClamps) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    EXPECT_EQ(env.Prctl(PR_SETSTACKSIZE, 10000), static_cast<i64>(3 * kPageSize));
    EXPECT_EQ(env.Prctl(PR_GETSTACKSIZE), static_cast<i64>(3 * kPageSize));
    // Clamped to the hard ceiling.
    EXPECT_EQ(env.Prctl(PR_SETSTACKSIZE, i64{1} << 40),
              static_cast<i64>(kMaxStackMaxPages * kPageSize));
    // Invalid values rejected.
    EXPECT_LT(env.Prctl(PR_SETSTACKSIZE, 0), 0);
    EXPECT_LT(env.Prctl(PR_SETSTACKSIZE, -5), 0);
  });
}

TEST(Prctl, StackSizeInheritedAcrossForkAndSproc) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    ASSERT_GT(env.Prctl(PR_SETSTACKSIZE, 16 * kPageSize), 0);
    std::atomic<i64> via_fork{0};
    std::atomic<i64> via_sproc{0};
    env.Fork([&](Env& c, long) { via_fork = c.Prctl(PR_GETSTACKSIZE); });
    env.WaitChild();
    env.Sproc([&](Env& c, long) { via_sproc = c.Prctl(PR_GETSTACKSIZE); }, PR_SALL);
    env.WaitChild();
    EXPECT_EQ(via_fork.load(), static_cast<i64>(16 * kPageSize));
    EXPECT_EQ(via_sproc.load(), static_cast<i64>(16 * kPageSize));
  });
}

TEST(Prctl, SmallStackChildGetsExactlyConfiguredStack) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    ASSERT_GT(env.Prctl(PR_SETSTACKSIZE, 2 * kPageSize), 0);
    pid_t pid = env.Sproc(
        [](Env& c, long) {
          const vaddr_t base = c.proc().stack_base;
          c.Store32(base, 1);              // inside: ok
          c.Store32(base + kPageSize, 2);  // inside: ok
          // The region is exactly 2 pages (note: one past the top may land
          // in a NEIGHBOR's group-visible stack, so probe the size, and
          // fault below the base where nothing is mapped).
          SharedSpace& ss = c.proc().shaddr->space();
          UpdateGuard g(ss.lock());
          Pregion* pr = ss.locked_layout().Find(base);
          ASSERT_NE(pr, nullptr);
          EXPECT_EQ(pr->region->pages(), 2u);
          g.Release();
          c.Store32(base - kPageSize, 3);  // below the stack: unmapped
          ADD_FAILURE() << "survived stack underflow";
        },
        PR_SADDR);
    int sig = 0;
    EXPECT_EQ(env.WaitChild(nullptr, &sig), pid);
    EXPECT_EQ(sig, kSigSegv);
  });
}

TEST(Prctl, UnknownOptionRejected) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    EXPECT_LT(env.Prctl(12345), 0);
    EXPECT_EQ(env.LastError(), Errno::kEINVAL);
  });
}

}  // namespace
}  // namespace sg
