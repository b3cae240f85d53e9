// Fair-share resource manager (src/rm/): share weights and decayed usage
// at the node level, against one manager's live total and machine-wide
// account, then the kernel-visible contract — PR_SETSHARES / PR_SETRCAP,
// cap breaches surfacing as EAGAIN/ENOMEM at the existing admission
// chokepoints, capacity returning when members/fds/pages go away, and the
// /proc/share/<gid> rm.* lines.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "api/kernel.h"
#include "api/user_env.h"
#include "core/share_mask.h"
#include "proc/signal.h"
#include "rm/rm.h"

namespace sg {
namespace {

// ----- node-level unit tests (no kernel) -----

TEST(RmUnit, HierarchyWeightsBiasPriority) {
  rm::ResourceManager m;
  auto heavy = std::make_unique<rm::GroupNode>(m, 300);
  auto light = std::make_unique<rm::GroupNode>(m, 100);
  // Equal consumption, unequal entitlement: the heavy-shares tenant has
  // consumed less than its entitlement and must come out ahead.
  const u64 t0 = 1'000'000;
  heavy->ChargeCpuAt(10'000'000, t0);
  light->ChargeCpuAt(10'000'000, t0);
  const int ph = heavy->EffectivePriorityAt(0, t0);
  const int pl = light->EffectivePriorityAt(0, t0);
  EXPECT_GT(ph, pl);
  // heavy entitled 3/4 consumed 1/2 -> positive; light entitled 1/4
  // consumed 1/2 -> negative.
  EXPECT_GT(ph, 0);
  EXPECT_LT(pl, 0);
}

TEST(RmUnit, LoneGroupGetsZeroAdjustment) {
  rm::ResourceManager m;
  auto only = std::make_unique<rm::GroupNode>(m, 7);  // any weight
  const u64 t0 = 1'000'000;
  only->ChargeCpuAt(50'000'000, t0);
  // Sole tenant: consumed == total, entitlement ratio 1 — no adjustment,
  // whatever the shares value. Single-tenant workloads are unaffected.
  EXPECT_EQ(only->EffectivePriorityAt(5, t0), 5);
}

TEST(RmUnit, UsageDecaysAndPrioritiesReconverge) {
  rm::ResourceManager m;
  auto a = std::make_unique<rm::GroupNode>(m);
  auto b = std::make_unique<rm::GroupNode>(m);
  const u64 t0 = 1'000'000;
  a->ChargeCpuAt(100'000'000, t0);  // a burned 100ms, b idle
  EXPECT_LT(a->EffectivePriorityAt(0, t0), b->EffectivePriorityAt(0, t0));
  // One half-life halves the account.
  const double u0 = a->DecayedUsageAt(t0);
  const double u1 = a->DecayedUsageAt(t0 + rm::kDecayHalfLifeNs);
  EXPECT_NEAR(u1, u0 / 2.0, u0 * 0.01);
  // Many half-lives later the account is dust (< 1ns): nothing left to
  // arbitrate, both tenants are back at base priority.
  const u64 later = t0 + 60 * rm::kDecayHalfLifeNs;
  EXPECT_EQ(a->EffectivePriorityAt(0, later), 0);
  EXPECT_EQ(b->EffectivePriorityAt(0, later), 0);
}

// The live total of shares moves with SetShares and with node lifetimes:
// re-weighting one of two equal tenants bends it above the other, and once
// the other is gone the survivor holds every share and every nanosecond.
TEST(RmUnit, SetSharesAndNodeLifetimeMoveTheTotal) {
  rm::ResourceManager m;
  rm::GroupNode a(m);
  auto b = std::make_unique<rm::GroupNode>(m);
  const u64 t0 = 1'000'000;
  a.ChargeCpuAt(10'000'000, t0);
  b->ChargeCpuAt(10'000'000, t0);
  EXPECT_EQ(a.EffectivePriorityAt(0, t0), b->EffectivePriorityAt(0, t0));
  EXPECT_EQ(a.SetShares(300), 300u);
  EXPECT_GT(a.EffectivePriorityAt(0, t0), b->EffectivePriorityAt(0, t0));
  b.reset();
  // a alone now: entitled 300/300, and the machine's usage is a's own.
  const u64 t1 = t0 + 60 * rm::kDecayHalfLifeNs;
  a.ChargeCpuAt(10'000'000, t1);
  EXPECT_EQ(a.EffectivePriorityAt(0, t1), 0);
}

TEST(RmUnit, CapChargeUnchargeExact) {
  rm::ResourceManager m;
  auto n = std::make_unique<rm::GroupNode>(m);
  // Cap 0 = unlimited.
  EXPECT_TRUE(n->TryCharge(rm::Resource::kFiles, 1000));
  n->Uncharge(rm::Resource::kFiles, 1000);
  n->SetCap(rm::Resource::kFiles, 3);
  EXPECT_TRUE(n->TryCharge(rm::Resource::kFiles, 2));
  EXPECT_FALSE(n->TryCharge(rm::Resource::kFiles, 2));  // 2+2 > 3
  EXPECT_TRUE(n->TryCharge(rm::Resource::kFiles, 1));   // exactly at cap
  EXPECT_FALSE(n->TryCharge(rm::Resource::kFiles, 1));
  n->Uncharge(rm::Resource::kFiles, 1);  // released capacity is reusable
  EXPECT_TRUE(n->TryCharge(rm::Resource::kFiles, 1));
  EXPECT_EQ(n->used(rm::Resource::kFiles), 3u);
  n->Uncharge(rm::Resource::kFiles, 3);
}

// ----- kernel-level integration -----

void RunAsProcess(Kernel& k, std::function<void(Env&)> body) {
  auto pid = k.Launch([body = std::move(body)](Env& env, long) { body(env); });
  ASSERT_TRUE(pid.ok());
  k.WaitAll();
}

TEST(RmApi, MemberCapBreachAndRecovery) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<bool> release{false};
    env.Sproc(
        [&](Env& c, long) {
          while (!release.load()) {
            c.Yield();
          }
        },
        PR_SALL);
    // Two members; cap the group at exactly that.
    ASSERT_EQ(env.Prctl(PR_SETRCAP, PrRcapArg(PR_RCAP_MEMBERS, 2)), 2);
    // A third admission must bounce with EAGAIN, not crash or over-admit.
    EXPECT_LT(env.Sproc([](Env&, long) {}, PR_SALL), 0);
    EXPECT_EQ(env.LastError(), Errno::kEAGAIN);
    EXPECT_EQ(env.proc().shaddr->refcnt(), 2u);
    // A member's exit returns its slot; admission works again.
    release = true;
    env.WaitChild();
    EXPECT_GT(env.Sproc([](Env&, long) {}, PR_SALL), 0);
    env.WaitChild();
  });
  EXPECT_EQ(k.LiveBlocks(), 0u);
}

TEST(RmApi, JoinGroupRespectsMemberCap) {
  Kernel k;
  std::atomic<pid_t> founder_pid{0};
  std::atomic<bool> done{false};
  auto founder = k.Launch([&](Env& env, long) {
    env.Sproc([](Env&, long) {}, PR_SALL);
    env.WaitChild();
    ASSERT_EQ(env.Prctl(PR_SETRCAP, PrRcapArg(PR_RCAP_MEMBERS, 1)), 1);
    founder_pid = env.Pid();
    while (!done.load()) {
      env.Yield();
    }
  });
  auto joiner = k.Launch([&](Env& env, long) {
    while (founder_pid.load() == 0) {
      env.Yield();
    }
    // The group is full (cap 1, the founder): the dynamic join bounces.
    EXPECT_LT(env.Prctl(PR_JOINGROUP, founder_pid.load()), 0);
    EXPECT_EQ(env.LastError(), Errno::kEAGAIN);
    EXPECT_EQ(env.proc().shaddr, nullptr);
    done = true;
  });
  ASSERT_TRUE(founder.ok() && joiner.ok());
  k.WaitAll();
  EXPECT_EQ(k.LiveBlocks(), 0u);
}

TEST(RmApi, FileCapBreachAndRelease) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    env.Sproc([](Env&, long) {}, PR_SALL);  // form a PR_SFDS group
    env.WaitChild();
    const u64 used = env.proc().shaddr->rm_node()->used(rm::Resource::kFiles);
    ASSERT_EQ(env.Prctl(PR_SETRCAP, PrRcapArg(PR_RCAP_FILES, used + 1)),
              static_cast<i64>(used + 1));
    const int fd = env.Open("/rm-one", kOpenWrite | kOpenCreat);
    ASSERT_GE(fd, 0);
    // At the cap now: open and dup both bounce; pipes (needing 2) too.
    EXPECT_LT(env.Open("/rm-two", kOpenWrite | kOpenCreat), 0);
    EXPECT_EQ(env.LastError(), Errno::kEAGAIN);
    EXPECT_LT(env.Dup(fd), 0);
    EXPECT_EQ(env.LastError(), Errno::kEAGAIN);
    int rd = -1, wr = -1;
    EXPECT_LT(env.Pipe(&rd, &wr), 0);
    EXPECT_EQ(env.LastError(), Errno::kEAGAIN);
    // dup2 onto an OCCUPIED slot replaces (no growth) and must pass.
    const int fd2 = env.Dup2(fd, fd);
    EXPECT_EQ(fd2, fd);
    // Close returns the slot; admission works again.
    EXPECT_EQ(env.Close(fd), 0);
    const int again = env.Open("/rm-three", kOpenWrite | kOpenCreat);
    EXPECT_GE(again, 0);
    env.Close(again);
  });
  EXPECT_EQ(k.LiveBlocks(), 0u);
}

// open(2) resolves and creates its file before it takes the fd bracket, as
// Linux does, and truncates only once the descriptor is installed. So an
// open the fd cap refuses leaves an existing file's bytes alone, while a new
// O_CREAT path stays behind, empty.
TEST(RmApi, FileCapRefusedOpenKeepsBytesAndCreatedPath) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    const int fd = env.Open("/rm-keep", kOpenWrite | kOpenCreat);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(env.WriteStr(fd, "data"), 4);
    env.Sproc([](Env&, long) {}, PR_SALL);  // form a PR_SFDS group
    env.WaitChild();
    const u64 used = env.proc().shaddr->rm_node()->used(rm::Resource::kFiles);
    ASSERT_EQ(env.Prctl(PR_SETRCAP, PrRcapArg(PR_RCAP_FILES, used)), static_cast<i64>(used));
    EXPECT_LT(env.Open("/rm-keep", kOpenWrite | kOpenTrunc), 0);
    EXPECT_EQ(env.LastError(), Errno::kEAGAIN);
    auto kept = k.Stat(env.proc(), "/rm-keep");
    ASSERT_TRUE(kept.ok());
    EXPECT_EQ(kept.value().size, 4u);
    EXPECT_LT(env.Open("/rm-new", kOpenWrite | kOpenCreat), 0);
    EXPECT_EQ(env.LastError(), Errno::kEAGAIN);
    auto made = k.Stat(env.proc(), "/rm-new");
    ASSERT_TRUE(made.ok());
    EXPECT_EQ(made.value().size, 0u);
    EXPECT_EQ(env.Close(fd), 0);
  });
  EXPECT_EQ(k.LiveBlocks(), 0u);
}

TEST(RmApi, PageCapStealsUnderPressureWithSwap) {
  BootParams bp;
  bp.swap_pages = 256;
  Kernel k(bp);
  RunAsProcess(k, [&](Env& env) {
    env.Sproc([](Env&, long) {}, PR_SALL);  // shared VM image group
    env.WaitChild();
    rm::GroupNode* node = env.proc().shaddr->rm_node();
    const u64 resident = node->used(rm::Resource::kPages);
    const u64 cap = resident + 8;
    ASSERT_EQ(env.Prctl(PR_SETRCAP, PrRcapArg(PR_RCAP_PAGES, cap)),
              static_cast<i64>(cap));
    // Touch 32 fresh pages — four times the headroom. With swap behind the
    // pager, faults beyond the cap steal from this same image instead of
    // failing, so every store lands and residency never exceeds the cap.
    const vaddr_t arena = env.Mmap(32 * kPageSize);
    ASSERT_NE(arena, 0u);
    for (u64 i = 0; i < 32; ++i) {
      env.Store32(arena + i * kPageSize, static_cast<u32>(i + 1));
      EXPECT_LE(node->used(rm::Resource::kPages), cap);
    }
    // Stolen pages come back from swap intact.
    for (u64 i = 0; i < 32; ++i) {
      EXPECT_EQ(env.Load32(arena + i * kPageSize), static_cast<u32>(i + 1));
      EXPECT_LE(node->used(rm::Resource::kPages), cap);
    }
  });
  EXPECT_EQ(k.LiveBlocks(), 0u);
}

TEST(RmApi, PageCapWithoutSwapKillsTheToucher) {
  Kernel k;  // swap_pages = 0: nothing to steal into, breach is fatal
  RunAsProcess(k, [&](Env& env) {
    std::atomic<bool> capped{false};
    env.Sproc(
        [&](Env& c, long) {
          while (!capped.load()) {
            c.Yield();
          }
          // Beyond the cap with no swap the fault path has no way out:
          // the store faults like a wild pointer would.
          const vaddr_t arena = c.Mmap(16 * kPageSize);
          for (u64 i = 0; i < 16; ++i) {
            c.Store32(arena + i * kPageSize, 1u);
          }
          ADD_FAILURE() << "stores beyond the page cap should have faulted";
        },
        PR_SALL);
    rm::GroupNode* node = env.proc().shaddr->rm_node();
    ASSERT_EQ(env.Prctl(PR_SETRCAP,
                        PrRcapArg(PR_RCAP_PAGES, node->used(rm::Resource::kPages) + 4)),
              static_cast<i64>(node->used(rm::Resource::kPages) + 4));
    capped = true;
    int sig = 0;
    env.WaitChild(nullptr, &sig);
    EXPECT_EQ(sig, kSigSegv);
  });
  EXPECT_EQ(k.LiveBlocks(), 0u);
}

TEST(RmApi, UnshareVmReturnsPageCapacity) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<int> phase{0};
    env.Sproc(
        [&](Env& c, long) {
          // Touch our shared stack so it holds resident pages, then pull
          // the whole VM image private: those pages leave the group's
          // account.
          c.Store32(c.proc().stack_base, 42);
          phase = 1;
          while (phase.load() != 2) {
            c.Yield();
          }
          ASSERT_GE(c.Prctl(PR_UNSHARE, PR_SADDR), 0);
          phase = 3;
          while (phase.load() != 4) {
            c.Yield();
          }
        },
        PR_SADDR);
    while (phase.load() != 1) {
      env.Yield();
    }
    rm::GroupNode* node = env.proc().shaddr->rm_node();
    const u64 before = node->used(rm::Resource::kPages);
    EXPECT_GT(before, 0u);
    phase = 2;
    while (phase.load() != 3) {
      env.Yield();
    }
    // The member's COW snapshot took the image private; the group account
    // shrank (at minimum the member's stack left).
    EXPECT_LT(node->used(rm::Resource::kPages), before);
    phase = 4;
    env.WaitChild();
  });
  EXPECT_EQ(k.LiveBlocks(), 0u);
}

TEST(RmApi, PrctlReturnConvention) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    // Outside a group every rm prctl is EINVAL.
    EXPECT_LT(env.Prctl(PR_SETSHARES, 200), 0);
    EXPECT_EQ(env.LastError(), Errno::kEINVAL);
    EXPECT_LT(env.Prctl(PR_SETRCAP, PrRcapArg(PR_RCAP_FILES, 4)), 0);
    EXPECT_EQ(env.LastError(), Errno::kEINVAL);

    env.Sproc([](Env&, long) {}, PR_SALL);
    env.WaitChild();
    // Success returns the effect now in force (see share_mask.h).
    EXPECT_EQ(env.Prctl(PR_SETSHARES, 250), 250);
    EXPECT_EQ(env.proc().shaddr->rm_node()->shares(), 250u);
    EXPECT_EQ(env.Prctl(PR_SETSHARES, 0), 1);  // clamped, and says so
    EXPECT_EQ(env.Prctl(PR_SETRCAP, PrRcapArg(PR_RCAP_PAGES, 99)), 99);
    EXPECT_EQ(env.proc().shaddr->rm_node()->cap(rm::Resource::kPages), 99u);
    EXPECT_EQ(env.Prctl(PR_SETRCAP, PrRcapArg(PR_RCAP_PAGES, 0)), 0);  // unlimited
    // Unknown resource selectors, either side of the known ones, and
    // negative packings are EINVAL.
    EXPECT_LT(env.Prctl(PR_SETRCAP, PrRcapArg(9, 4)), 0);
    EXPECT_EQ(env.LastError(), Errno::kEINVAL);
    EXPECT_LT(env.Prctl(PR_SETRCAP, PrRcapArg(0, 4)), 0);
    EXPECT_EQ(env.LastError(), Errno::kEINVAL);
    EXPECT_LT(env.Prctl(PR_SETRCAP, -1), 0);
    EXPECT_EQ(env.LastError(), Errno::kEINVAL);
    EXPECT_LT(env.Prctl(PR_SETSHARES, -5), 0);
    EXPECT_EQ(env.LastError(), Errno::kEINVAL);
  });
}

TEST(RmApi, ProcShareShowsRmLines) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    std::atomic<bool> release{false};
    env.Sproc(
        [&](Env& c, long) {
          while (!release.load()) {
            c.Yield();
          }
        },
        PR_SALL);
    ASSERT_EQ(env.Prctl(PR_SETSHARES, 300), 300);
    ASSERT_EQ(env.Prctl(PR_SETRCAP, PrRcapArg(PR_RCAP_MEMBERS, 5)), 5);
    const int file = env.Open("/rm-ofile", kOpenWrite | kOpenCreat);
    ASSERT_GE(file, 0);
    const std::string path = "/proc/share/" + std::to_string(env.proc().shaddr->id());
    const int fd = env.Open(path, kOpenRead);
    ASSERT_GE(fd, 0);
    std::string text;
    std::byte buf[512];
    for (;;) {
      const i64 n = env.ReadBuf(fd, buf);
      if (n <= 0) {
        break;
      }
      text.append(reinterpret_cast<const char*>(buf), static_cast<size_t>(n));
    }
    // The group's open files are counted once, by its rm node: the ofiles
    // line and rm.used.files both show that count, the two opens included.
    const u64 files = env.proc().shaddr->rm_node()->used(rm::Resource::kFiles);
    EXPECT_GE(files, 2u);
    EXPECT_NE(text.find("ofiles " + std::to_string(files) + "\n"), std::string::npos) << text;
    EXPECT_NE(text.find("rm.used.files " + std::to_string(files) + "\n"), std::string::npos);
    env.Close(fd);
    env.Close(file);
    EXPECT_NE(text.find("rm.shares 300\n"), std::string::npos) << text;
    EXPECT_NE(text.find("rm.usage_ns "), std::string::npos);
    EXPECT_NE(text.find("rm.cap.members 5\n"), std::string::npos);
    EXPECT_NE(text.find("rm.used.members 2\n"), std::string::npos);
    EXPECT_NE(text.find("rm.headroom.members 3\n"), std::string::npos);
    EXPECT_NE(text.find("rm.cap.files 0\n"), std::string::npos);
    EXPECT_NE(text.find("rm.headroom.files -\n"), std::string::npos);  // unlimited
    EXPECT_NE(text.find("rm.used.pages "), std::string::npos);
    release = true;
    env.WaitChild();
  });
}

}  // namespace
}  // namespace sg
