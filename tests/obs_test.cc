// Observability subsystem (obs/): counter registry, per-CPU trace rings,
// and the synthetic /proc filesystem read through the ordinary fd path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "api/kernel.h"
#include "api/user_env.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "sync/lockdep.h"

namespace sg {
namespace {

// Reads the whole of `path` through open/read like any user program would.
std::string CatFile(Env& env, const std::string& path) {
  const int fd = env.Open(path, kOpenRead);
  if (fd < 0) {
    return {};
  }
  std::string out;
  std::byte buf[512];
  for (;;) {
    const i64 n = env.ReadBuf(fd, buf);
    if (n <= 0) {
      break;
    }
    out.append(reinterpret_cast<const char*>(buf), static_cast<size_t>(n));
  }
  env.Close(fd);
  return out;
}

// The value printed on the "name value" line of /proc/stat, or -1.
i64 StatLine(const std::string& text, const std::string& name) {
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    if (line.size() > name.size() + 1 && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::stoll(line.substr(name.size() + 1));
    }
    if (eol == std::string::npos) {
      break;
    }
    pos = eol + 1;
  }
  return -1;
}

TEST(Stats, CountersMonotoneAcrossSprocRun) {
  // The registry is process-global, so sample before/after and require
  // growth — not absolute values (other tests in this binary also count).
  obs::Stats& s = obs::Stats::Global();
  const u64 sys0 = s.CounterValue("sys.entries");
  const u64 sproc0 = s.CounterValue("sys.sproc");
  const u64 faults0 = s.CounterValue("vm.faults");

  Kernel k;
  (void)k.Launch([&](Env& env, long) {
    vaddr_t buf = env.Mmap(kPageSize);
    ASSERT_NE(buf, 0u);
    env.Store32(buf, 7);  // at least one fault
    pid_t pid = env.Sproc([buf](Env& c, long) { c.Store32(buf + 4, 9); }, PR_SALL);
    ASSERT_GT(pid, 0);
    EXPECT_EQ(env.WaitChild(), pid);
  });
  k.WaitAll();

  EXPECT_GT(s.CounterValue("sys.entries"), sys0);
  EXPECT_GT(s.CounterValue("sys.sproc"), sproc0);
  EXPECT_GT(s.CounterValue("vm.faults"), faults0);
}

TEST(Stats, RenderTextListsRegisteredNames) {
  obs::Stats& s = obs::Stats::Global();
  s.counter("test.render_me").Inc(3);
  const std::string text = s.RenderText();
  EXPECT_GE(StatLine(text, "test.render_me"), 3);
}

// Counters shard per thread, so each reader must sum every shard: the
// concurrent increments of 8 threads, on 8 shards, all count.
TEST(Stats, ShardedCounterSumsEveryThreadsIncrements) {
  obs::Stats& s = obs::Stats::Global();
  obs::Counter& c = s.counter("test.sharded_sum");
  constexpr int kThreads = 8;
  constexpr u64 kIncs = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (u64 i = 0; i < kIncs; ++i) {
        c.Inc();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), kThreads * kIncs);
  EXPECT_EQ(s.CounterValue("test.sharded_sum"), kThreads * kIncs);
  EXPECT_EQ(StatLine(s.RenderText(), "test.sharded_sum"), static_cast<i64>(kThreads * kIncs));
}

// A share group's lock counters live in the group (/proc/share/<gid>), so
// forming and reaping groups does not grow the global registry: /proc/stat
// keeps a fixed set of names however many groups ever existed.
TEST(Stats, GroupsLeaveNoRegistryNamesBehind) {
  // Registry names, one line each; histogram bucket lines come and go with
  // the values recorded, so they are not names.
  auto names = [] {
    const std::string text = obs::Stats::Global().RenderText();
    size_t n = 0;
    for (size_t pos = 0; pos < text.size();) {
      size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) {
        eol = text.size();
      }
      if (text.substr(pos, eol - pos).find(".le_2e") == std::string::npos) {
        ++n;
      }
      pos = eol + 1;
    }
    return n;
  };
  Kernel k;
  auto form_and_reap = [&k](int groups) {
    for (int i = 0; i < groups; ++i) {
      (void)k.Launch([](Env& env, long) {
        const pid_t pid = env.Sproc([](Env&, long) {}, PR_SALL);
        ASSERT_GT(pid, 0);
        EXPECT_EQ(env.WaitChild(), pid);
      });
      k.WaitAll();
    }
  };
  form_and_reap(1);  // warm-up: names every group shares register on first use
  const size_t before = names();
  form_and_reap(50);
  EXPECT_LT(names() - before, 50u);
}

TEST(TraceRing, OverflowKeepsNewestOldestFirst) {
  obs::TraceRing ring(8);
  for (u64 i = 0; i < 20; ++i) {
    obs::TraceEvent e;
    e.kind = static_cast<u16>(obs::TraceKind::kPageFault);
    ring.Emit(e);
  }
  EXPECT_EQ(ring.written(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  const std::vector<obs::TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The ring numbers its own events from 1: the 8 survivors are the
  // newest (ticks 13..20), oldest first.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].tick, 13 + i) << "slot " << i;
  }
}

TEST(TraceBuffer, WorkloadEmitsKernelEvents) {
  obs::TraceBuffer& b = obs::TraceBuffer::Global();
  const u64 before = b.TotalWritten();
  Kernel k;
  (void)k.Launch([&](Env& env, long) {
    vaddr_t buf = env.Mmap(kPageSize);
    env.Store32(buf, 1);  // page fault → trace event
  });
  k.WaitAll();
  EXPECT_GT(b.TotalWritten(), before);
}

TEST(Procfs, StatusDistinguishesMemberFromNonMember) {
  Kernel k;
  std::atomic<bool> ok{true};
  (void)k.Launch([&](Env& env, long) {
    std::atomic<bool> gate{false};
    // A share-group member: its status must name the group id.
    pid_t member = env.Sproc(
        [&gate](Env& c, long) {
          while (!gate.load()) {
            c.Yield();
          }
        },
        PR_SALL);
    ASSERT_GT(member, 0);
    ShaddrBlock* blk = env.proc().shaddr;
    ASSERT_NE(blk, nullptr);
    const std::string gid = std::to_string(blk->id());

    // A plain fork child: no group.
    pid_t loner = env.Fork([&gate](Env& c, long) {
      while (!gate.load()) {
        c.Yield();
      }
    });
    ASSERT_GT(loner, 0);

    const std::string member_status =
        CatFile(env, "/proc/" + std::to_string(member) + "/status");
    const std::string loner_status =
        CatFile(env, "/proc/" + std::to_string(loner) + "/status");
    EXPECT_NE(member_status.find("group " + gid + "\n"), std::string::npos)
        << member_status;
    EXPECT_NE(loner_status.find("group -\n"), std::string::npos) << loner_status;

    // The group file lists both members of the share group.
    const std::string group_text = CatFile(env, "/proc/share/" + gid);
    EXPECT_NE(group_text.find("refcnt 2"), std::string::npos) << group_text;
    EXPECT_NE(group_text.find(std::to_string(member)), std::string::npos) << group_text;
    // The group's own lock counters print here.
    EXPECT_NE(group_text.find("lock.updates "), std::string::npos) << group_text;
    EXPECT_NE(group_text.find("lock.update_wait.count "), std::string::npos) << group_text;
    EXPECT_NE(group_text.find("lock.update_wait.avg_ns "), std::string::npos) << group_text;

    gate = true;
    env.WaitChild();
    env.WaitChild();
    if (::testing::Test::HasFailure()) {
      ok = false;
    }
  });
  k.WaitAll();
  EXPECT_TRUE(ok.load());
}

TEST(Procfs, DeadPidDirectoryDisappears) {
  Kernel k;
  (void)k.Launch([&](Env& env, long) {
    pid_t child = env.Fork([](Env&, long) {});
    ASSERT_GT(child, 0);
    ASSERT_EQ(env.WaitChild(), child);
    // After the reap, path resolution re-populates /proc and the dir is gone.
    const int fd = env.Open("/proc/" + std::to_string(child) + "/status", kOpenRead);
    EXPECT_LT(fd, 0);
    // But our own is present.
    const std::string self = CatFile(env, "/proc/" + std::to_string(env.Pid()) + "/status");
    EXPECT_NE(self.find("pid " + std::to_string(env.Pid())), std::string::npos) << self;
  });
  k.WaitAll();
}

TEST(Procfs, ListDirShowsStatAndShare) {
  Kernel k;
  (void)k.Launch([&](Env& env, long) {
    const std::vector<std::string> names = env.ListDir("/proc");
    EXPECT_NE(std::find(names.begin(), names.end(), "stat"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "share"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "lockdep"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), std::to_string(env.Pid())), names.end());
  });
  k.WaitAll();
}

// /proc/lockdep serves the validator's state dump: "lockdep: on" plus the
// class list in a lockdep build, an explanatory one-liner otherwise.
TEST(Procfs, LockdepNodeRendersValidatorState) {
  Kernel k;
  std::string text;
  (void)k.Launch([&](Env& env, long) { text = CatFile(env, "/proc/lockdep"); });
  k.WaitAll();
  if (lockdep::kEnabled) {
    EXPECT_NE(text.find("lockdep: on"), std::string::npos);
    // A named class registered by a lock the boot itself constructs.
    EXPECT_NE(text.find("physmem"), std::string::npos);
  } else {
    EXPECT_NE(text.find("lockdep: off"), std::string::npos);
  }
}

// The acceptance workload: a vm_sync-style run (share group + region
// shrink) must leave nonzero TLB-shootdown IPI and writer-wait-histogram
// entries visible in /proc/stat.
TEST(Procfs, VmSyncWorkloadShowsShootdownsInStat) {
  Kernel k;
  std::string stat_text;
  (void)k.Launch([&](Env& env, long) {
    constexpr int kSiblings = 3;
    std::atomic<int> running{0};
    std::atomic<bool> gate{false};
    for (int i = 0; i < kSiblings; ++i) {
      pid_t pid = env.Sproc(
          [&](Env& c, long) {
            running.fetch_add(1);
            vaddr_t r = c.Mmap(4 * kPageSize);
            ASSERT_NE(r, 0u);
            c.Store32(r, 1);
            c.Munmap(r);  // shrink of the shared space → shootdown (§6.2)
            while (!gate.load()) {
              c.Yield();
            }
          },
          PR_SALL);
      ASSERT_GT(pid, 0);
    }
    while (running.load() < kSiblings) {
      env.Yield();
    }
    gate = true;
    for (int i = 0; i < kSiblings; ++i) {
      env.WaitChild();
    }
    stat_text = CatFile(env, "/proc/stat");
  });
  k.WaitAll();

  EXPECT_GT(StatLine(stat_text, "tlb.shootdown_ipis"), 0) << stat_text;
  EXPECT_GT(StatLine(stat_text, "sharedlock.update_wait_ns.count"), 0) << stat_text;
  EXPECT_GT(StatLine(stat_text, "sys.entries"), 0);
}

}  // namespace
}  // namespace sg
