// sgbench — workload driver of the share-group benchmark (see NOTES.md).
//
//   sgbench --workload fd_share|shm_pool|shm_swap --seed N --seconds S
//           --trace 0|1 [--smoke] [--spans FILE]
//
// A run repeats trials until --seconds have passed (at least kMinTrials).
// Each trial boots a fresh Kernel and forms a three-member share group whose
// members pin their host threads one per core. The members run a fixed,
// seeded number of closed-loop ops, every op is verified, and after WaitAll
// the kernel's tables must be back at their boot values. A trial during
// which the host took a member core away is skipped (see kMaxHostShare).
// --trace 1 alternates untraced trials with traced ones; a traced trial
// records a span per op and per kernel call and yields the per-layer
// metrics. --smoke runs one short traced trial and asserts the structure
// NOTES.md predicts. The last line of stdout is the result JSON.
#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "api/kernel.h"
#include "api/user_env.h"
#include "obs/stats.h"
#include "sync/spinlock.h"  // CpuRelax

namespace sg {
namespace {

constexpr int kMembers = 3;
constexpr int kMinTrials = 3;
constexpr int kExtraSetups = 3;
// How long past --seconds a run keeps trying to measure kMinTrials trials
// while trials are skipped because the host took the member cores.
constexpr u64 kGraceNs = u64{40} * 1000 * 1000 * 1000;
// A member waiting on its peers longer than this is stuck (a peer died or
// deadlocked); the run aborts instead of hanging.
constexpr u64 kWatchdogNs = u64{60} * 1000 * 1000 * 1000;

// ----- time, hashing, placement -----

u64 NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<u64>(ts.tv_sec) * 1000000000ULL + static_cast<u64>(ts.tv_nsec);
}

u64 ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<u64>(ts.tv_sec) * 1000000000ULL + static_cast<u64>(ts.tv_nsec);
}

// splitmix64: every op input is a pure function of (seed, trial, op).
u64 Mix(u64 x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
u64 Hash(u64 a, u64 b) { return Mix(a ^ Mix(b)); }
u64 Hash(u64 a, u64 b, u64 c) { return Mix(a ^ Mix(b ^ Mix(c))); }

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return cpus;
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) {
      cpus.push_back(c);
    }
  }
  return cpus;
}

bool PinSelf(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

template <typename Pred>
void SpinUntil(Pred&& pred, const char* what) {
  const u64 t0 = NowNs();
  u32 spins = 0;
  while (!pred()) {
    CpuRelax();
    if (++spins % 4096 == 0 && NowNs() - t0 > kWatchdogNs) {
      std::fprintf(stderr, "sgbench: stuck waiting for %s\n", what);
      std::_Exit(3);
    }
  }
}

// ----- what the host did with the member cores -----
//
// A trial is only a measurement of this kernel if the member cores ran the
// members. When the hypervisor gives a member core's time to another guest
// (steal) or another process runs on it, a woken member waits for its core,
// the members stop overlapping, fd_share's semaphore hand-offs vanish and
// every metric moves several-fold (NOTES.md). /proc/stat is read around the
// timed loop; a trial in which some member core spent more than
// kMaxHostShare of its time on anything but its member is skipped. The check
// does not depend on the kernel under test.
constexpr double kMaxHostShare = 0.25;

// Per-CPU ticks from /proc/stat: stolen by the hypervisor, busy in this
// guest (any process), and in all.
struct CpuTicks {
  u64 steal = 0;
  u64 busy = 0;
  u64 total = 0;
};

std::vector<CpuTicks> ReadCpuTicks() {
  std::vector<CpuTicks> out;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return out;
  }
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned cpu = 0;
    unsigned long long v[8] = {};  // user nice system idle iowait irq softirq steal
    if (std::strncmp(line, "cpu", 3) != 0 || line[3] < '0' || line[3] > '9' ||
        std::sscanf(line + 3, "%u %llu %llu %llu %llu %llu %llu %llu %llu", &cpu, &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 9) {
      continue;
    }
    if (cpu >= out.size()) {
      out.resize(cpu + 1);
    }
    out[cpu].steal = v[7];
    out[cpu].busy = v[0] + v[1] + v[2] + v[5] + v[6];
    for (unsigned long long x : v) {
      out[cpu].total += x;
    }
  }
  std::fclose(f);
  return out;
}

// ----- workloads -----

enum class Kind { kFdShare, kShmPool, kShmSwap };

struct Spec {
  const char* name;
  Kind kind;
  u64 ops;        // ops per trial, all members together
  u64 smoke_ops;  // ops of the --smoke trial
  u64 array_pages;
  BootParams boot;
};

BootParams Boot(u64 frames, u32 swap_pages) {
  BootParams b;
  b.ncpus = 4;  // >= kMembers: the CPU gate never queues a runnable member
  b.phys_mem_bytes = frames * kPageSize;
  b.swap_pages = swap_pages;
  return b;
}

const Spec kSpecs[] = {
    {"fd_share", Kind::kFdShare, 3 * 16000, 3 * 1000, 0, Boot(4096, 0)},
    // 256 pages: 4x the 64-entry direct-mapped TLB.
    {"shm_pool", Kind::kShmPool, 60000, 6000, 256, Boot(4096, 0)},
    // 2048 pages over 1024 frames, swap on: the fault path runs the pager.
    {"shm_swap", Kind::kShmSwap, 20000, 3000, 2048, Boot(1024, 8192)},
};

// fd_share: a 64-byte request written from, and read back into, buffers on
// the member's private PRDA page (always TLB-resident).
constexpr u32 kReqWords = 16;
constexpr u32 kReqBytes = 4 * kReqWords;
constexpr u32 kReadbacks = 4;
constexpr vaddr_t kWbuf = kPrdaBase + 64;
constexpr vaddr_t kRbuf = kPrdaBase + 128;  // kReadbacks x kReqBytes
constexpr u32 kShareFds = PR_SADDR | PR_SFDS | PR_SUMASK;
constexpr mode_t kUmasks[4] = {022, 027, 077, 002};

// shm_*: each item loads then stores one word on each of 16 seeded pages.
// A member owns word slots [m*kSlots, (m+1)*kSlots) of every page and uses
// slot (its item count % kSlots), so no word is ever touched by two items
// in flight, and each load is checked against the member's own last store.
constexpr u32 kItemPages = 16;
constexpr u32 kSlots = 256;
constexpr u32 kPrefaultWord = 1023;  // outside every member's slots

// ----- tracing -----

enum SpanKind : u16 {
  kOp, kOpen, kClose, kRead, kWrite, kLseek, kUmask, kClaim, kLoad, kStore, kKinds
};
constexpr const char* kKindNames[kKinds] = {"op",    "open",  "close", "read", "write",
                                            "lseek", "umask", "claim", "load", "store"};

// One span: an op (kOp) or a kernel call made by it. A member's spans are
// appended in completion order, so an op's children precede it.
struct Span {
  u64 start_ns;  // since the trial's go
  u32 dur_ns;
  u32 op;
  u16 kind;
};

// ----- counters read around the timed phase -----

constexpr const char* kCounterNames[] = {
    "sys.entries",
    "core.sync_pulls",
    "core.fds.delta_pulled_slots",
    "core.fds.delta_published_slots",
    "core.fupdsema_waits",
    "core.scalar_gen_pulls",
    "sync.sema_sleeps",
    "sync.spin_contended",
    "sharedlock.read_waits",
    "rm.cpu.charged_ns",
    "vm.faults",
    "vm.fault.lockless_hits",
    "vm.fault.retries",
    "vm.fault.fallbacks",
    "vm.lookup_hint_hits",
    "vm.lookup_walks",
    "vm.pager_steals",
    "vm.fault.reclaim_retries",
    "tlb.misses",
    "tlb.flushes",
};
constexpr int kNumCounters = sizeof(kCounterNames) / sizeof(kCounterNames[0]);

struct Counters {
  std::array<double, kNumCounters> c{};
  double ctx_switches = 0;
  double swap_outs = 0;
  double swap_ins = 0;
  double update_wait_count = 0;
  double update_wait_ns = 0;

  double get(std::string_view name) const {
    for (int i = 0; i < kNumCounters; ++i) {
      if (name == kCounterNames[i]) {
        return c[static_cast<size_t>(i)];
      }
    }
    std::fprintf(stderr, "sgbench: unknown counter %.*s\n", static_cast<int>(name.size()),
                 name.data());
    std::abort();
  }
};

Counters ReadCounters(Kernel& k) {
  obs::Stats& s = obs::Stats::Global();
  Counters out;
  for (int i = 0; i < kNumCounters; ++i) {
    out.c[static_cast<size_t>(i)] = static_cast<double>(s.CounterValue(kCounterNames[i]));
  }
  out.ctx_switches = static_cast<double>(k.sched().ContextSwitches());
  if (k.swap() != nullptr) {
    out.swap_outs = static_cast<double>(k.swap()->outs());
    out.swap_ins = static_cast<double>(k.swap()->ins());
  }
  obs::LatencyHisto& h = s.histo("sharedlock.update_wait_ns");
  out.update_wait_count = static_cast<double>(h.count());
  out.update_wait_ns = static_cast<double>(h.sum_ns());
  return out;
}

Counters Delta(const Counters& a, const Counters& b) {
  Counters d;
  for (size_t i = 0; i < d.c.size(); ++i) {
    d.c[i] = b.c[i] - a.c[i];
  }
  d.ctx_switches = b.ctx_switches - a.ctx_switches;
  d.swap_outs = b.swap_outs - a.swap_outs;
  d.swap_ins = b.swap_ins - a.swap_ins;
  d.update_wait_count = b.update_wait_count - a.update_wait_count;
  d.update_wait_ns = b.update_wait_ns - a.update_wait_ns;
  return d;
}

void Accumulate(Counters& into, const Counters& d) {
  for (size_t i = 0; i < into.c.size(); ++i) {
    into.c[i] += d.c[i];
  }
  into.ctx_switches += d.ctx_switches;
  into.swap_outs += d.swap_outs;
  into.swap_ins += d.swap_ins;
  into.update_wait_count += d.update_wait_count;
  into.update_wait_ns += d.update_wait_ns;
}

// The kernel tables that must return to their boot values after WaitAll.
constexpr const char* kTableNames[] = {"free frames", "open files",   "inodes",
                                       "procs",       "share blocks", "free swap slots"};
using Tables = std::array<u64, std::size(kTableNames)>;

Tables ReadTables(Kernel& k) {
  return {k.mem().FreeFrames(),
          k.vfs().files().Count(),
          k.vfs().inodes().Count(),
          k.procs().Count(),
          k.LiveBlocks(),
          k.swap() != nullptr ? k.swap()->SlotsFree() : 0};
}

// ----- one trial -----

struct MemberOut {
  u64 ops = 0;
  u64 failed = 0;
  u64 end_ns = 0;
  u64 cpu_ns = 0;
  std::vector<u32> lat_ns;
  std::vector<Span> spans;
  std::vector<u32> shadow;  // shm_*: this member's last store to each of its words
};

struct Trial {
  const Spec* spec = nullptr;
  u64 seed = 0;  // per-trial input seed
  bool traced = false;
  u64 ops = 0;
  std::array<int, kMembers> cores{};

  // Start/stop protocol (host memory, outside the timed loop).
  std::atomic<bool> shared_ready{false};  // the leader finished the group's setup
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  std::atomic<bool> release{false};
  u64 go_ns = 0;
  Counters before, after;
  std::vector<CpuTicks> ticks_before, ticks_after;

  vaddr_t array = 0;   // shm_*: the shared array
  vaddr_t cursor = 0;  // shm_*: the shared item cursor
  std::array<MemberOut, kMembers> out;
  std::string error;  // teardown failure (leader thread only)
  bool members_ok = true;
};

// Times one kernel call as a child span of `op` when tracing.
template <bool kTraced, typename F>
auto Call(MemberOut& o, u64 go_ns, SpanKind kind, u32 op, F&& f) {
  if constexpr (!kTraced) {
    return f();
  } else {
    const u64 t0 = NowNs();
    auto r = f();
    const u64 t1 = NowNs();
    o.spans.push_back(Span{t0 - go_ns, static_cast<u32>(t1 - t0), op, kind});
    return r;
  }
}

std::string FilePath(int m) { return "/fd" + std::to_string(m); }

u32 ReqWord(u64 opseed, u32 j) { return static_cast<u32>(Hash(opseed, 1000 + j)); }

template <bool kTraced>
void FdShareLoop(Env& env, Trial& t, int m) {
  MemberOut& o = t.out[static_cast<size_t>(m)];
  const u64 n = t.ops / kMembers;
  const std::string path = FilePath(m);
  for (u64 k = 0; k < n; ++k) {
    const u32 op = static_cast<u32>(static_cast<u64>(m) * n + k);
    const u64 opseed = Hash(t.seed, static_cast<u64>(m), k);
    const u64 t0 = NowNs();
    bool ok = true;
    const int fd = Call<kTraced>(o, t.go_ns, kOpen, op,
                                 [&] { return env.Open(path, kOpenRdwr | kOpenTrunc); });
    if (fd < 0) {
      ok = false;
    } else {
      for (u32 j = 0; j < kReqWords; ++j) {
        env.Store32(kWbuf + 4 * j, ReqWord(opseed, j));
      }
      ok &= Call<kTraced>(o, t.go_ns, kWrite, op,
                          [&] { return env.Write(fd, kWbuf, kReqBytes); }) == kReqBytes;
      for (u32 r = 0; r < kReadbacks; ++r) {
        const u32 first = static_cast<u32>(Hash(opseed, r) % kReqWords);
        const i64 off = 4 * static_cast<i64>(first);
        const vaddr_t buf = kRbuf + static_cast<vaddr_t>(r) * kReqBytes;
        ok &= Call<kTraced>(o, t.go_ns, kLseek, op, [&] { return env.Lseek(fd, off); }) == off;
        ok &= Call<kTraced>(o, t.go_ns, kRead, op,
                            [&] { return env.Read(fd, buf, kReqBytes - static_cast<u64>(off)); }) ==
              kReqBytes - off;
        for (u32 j = first; j < kReqWords; ++j) {
          ok &= env.Load32(buf + 4 * (j - first)) == ReqWord(opseed, j);
        }
      }
      if (opseed % 16 == 0) {
        const mode_t prev = Call<kTraced>(o, t.go_ns, kUmask, op,
                                          [&] { return env.Umask(kUmasks[(opseed >> 8) % 4]); });
        ok &= std::find(std::begin(kUmasks), std::end(kUmasks), prev) != std::end(kUmasks);
      }
      ok &= Call<kTraced>(o, t.go_ns, kClose, op, [&] { return env.Close(fd); }) == 0;
    }
    const u64 t1 = NowNs();
    o.lat_ns.push_back(static_cast<u32>(t1 - t0));
    if constexpr (kTraced) {
      o.spans.push_back(Span{t0 - t.go_ns, static_cast<u32>(t1 - t0), op, kOp});
    }
    ++o.ops;
    o.failed += ok ? 0 : 1;
  }
}

template <bool kTraced>
void ShmLoop(Env& env, Trial& t, int m) {
  MemberOut& o = t.out[static_cast<size_t>(m)];
  const u64 pages = t.spec->array_pages;
  for (u64 k = 0;; ++k) {
    const u64 t0 = NowNs();
    const u32 item = env.FetchAdd32(t.cursor, 1);
    if (item >= t.ops) {
      break;  // the pool is drained; this claim is not an op
    }
    if constexpr (kTraced) {
      o.spans.push_back(Span{t0 - t.go_ns, static_cast<u32>(NowNs() - t0), item, kClaim});
    }
    const u64 slot = k % kSlots;
    const vaddr_t word = 4 * (static_cast<u64>(m) * kSlots + slot);
    bool ok = true;
    u64 x = Hash(t.seed, item);
    for (u32 j = 0; j < kItemPages; ++j) {
      x = Mix(x);
      const u64 page = x % pages;
      const u32 value = static_cast<u32>(x >> 32) | 1;
      const vaddr_t va = t.array + page * kPageSize + word;
      u32& expect = o.shadow[page * kSlots + slot];
      ok &= Call<kTraced>(o, t.go_ns, kLoad, item, [&] { return env.Load32(va); }) == expect;
      Call<kTraced>(o, t.go_ns, kStore, item, [&] {
        env.Store32(va, value);
        return 0;
      });
      expect = value;
    }
    const u64 t1 = NowNs();
    o.lat_ns.push_back(static_cast<u32>(t1 - t0));
    if constexpr (kTraced) {
      o.spans.push_back(Span{t0 - t.go_ns, static_cast<u32>(t1 - t0), item, kOp});
    }
    ++o.ops;
    o.failed += ok ? 0 : 1;
  }
}

template <bool kTraced>
void RunLoop(Env& env, Trial& t, int m) {
  if (t.spec->kind == Kind::kFdShare) {
    FdShareLoop<kTraced>(env, t, m);
  } else {
    ShmLoop<kTraced>(env, t, m);
  }
}

// Every member, the leader included: pin, warm up, meet at the start line,
// run the timed loop, meet again so counters are read before anyone exits.
void Member(Env& env, Trial& t, int m) {
  if (m != 0 && !PinSelf(t.cores[static_cast<size_t>(m)])) {
    std::fprintf(stderr, "sgbench: cannot pin member %d\n", m);
    std::_Exit(3);
  }
  SpinUntil([&] { return t.shared_ready.load(std::memory_order_acquire); }, "group setup");
  MemberOut& o = t.out[static_cast<size_t>(m)];
  // Allocate and fault in what the member touches before the clock starts:
  // its PRDA buffers (fd_share), or its shadow of the array and the
  // cursor's translation (shm_*). Spans per op: every kernel call plus the
  // op itself.
  const bool fd = t.spec->kind == Kind::kFdShare;
  const u64 max_ops = fd ? t.ops / kMembers : t.ops;
  o.lat_ns.reserve(max_ops);
  if (t.traced) {
    o.spans.reserve(max_ops * (fd ? 2 * kReadbacks + 5 : 2 * kItemPages + 2));
  }
  if (fd) {
    for (u32 i = 0; i < (1 + kReadbacks) * kReqWords; ++i) {
      env.Store32(kWbuf + 4 * i, 0);
    }
  } else {
    o.shadow.assign(t.spec->array_pages * kSlots, 0);
    (void)env.AtomicRead32(t.cursor);
  }

  t.ready.fetch_add(1, std::memory_order_acq_rel);
  if (m == 0) {
    SpinUntil([&] { return t.ready.load(std::memory_order_acquire) == kMembers; }, "ready");
    t.before = ReadCounters(env.kernel());
    t.ticks_before = ReadCpuTicks();
    t.go_ns = NowNs();
    t.go.store(true, std::memory_order_release);
  } else {
    SpinUntil([&] { return t.go.load(std::memory_order_acquire); }, "go");
  }
  const u64 cpu0 = ThreadCpuNs();
  if (t.traced) {
    RunLoop<true>(env, t, m);
  } else {
    RunLoop<false>(env, t, m);
  }
  o.end_ns = NowNs();
  o.cpu_ns = ThreadCpuNs() - cpu0;
  t.done.fetch_add(1, std::memory_order_acq_rel);
  if (m == 0) {
    SpinUntil([&] { return t.done.load(std::memory_order_acquire) == kMembers; }, "done");
    t.after = ReadCounters(env.kernel());
    t.ticks_after = ReadCpuTicks();
    t.release.store(true, std::memory_order_release);
  } else {
    SpinUntil([&] { return t.release.load(std::memory_order_acquire); }, "release");
  }
}

// The first process: sets up the group's shared state, sprocs the other
// members, runs as member 0, reaps the others and cleans up.
void Leader(Env& env, Trial& t) {
  if (!PinSelf(t.cores[0])) {
    std::fprintf(stderr, "sgbench: cannot pin member 0\n");
    std::_Exit(3);
  }
  const bool fd = t.spec->kind == Kind::kFdShare;
  if (fd) {
    env.Umask(kUmasks[0]);
    for (int m = 0; m < kMembers; ++m) {
      const int f = env.Open(FilePath(m), kOpenRdwr | kOpenCreat, 0644);
      if (f < 0 || env.Close(f) != 0) {
        std::fprintf(stderr, "sgbench: cannot create %s\n", FilePath(m).c_str());
        std::_Exit(3);
      }
    }
  }
  for (int m = 1; m < kMembers; ++m) {
    const pid_t pid =
        env.Sproc([&t](Env& e, long idx) { Member(e, t, static_cast<int>(idx)); },
                  fd ? kShareFds : PR_SADDR, m);
    if (pid < 0) {
      std::fprintf(stderr, "sgbench: sproc failed: %s\n", ErrnoName(env.LastError()));
      std::_Exit(3);
    }
  }
  if (!fd) {
    // Mapped after the group exists, so the array is born in the shared
    // image; pre-faulted page by page (shm_swap already swaps here).
    t.array = env.Mmap(t.spec->array_pages * kPageSize);
    t.cursor = env.Mmap(kPageSize);
    if (t.array == 0 || t.cursor == 0) {
      std::fprintf(stderr, "sgbench: mmap failed: %s\n", ErrnoName(env.LastError()));
      std::_Exit(3);
    }
    for (u64 p = 0; p < t.spec->array_pages; ++p) {
      env.Store32(t.array + p * kPageSize + 4 * kPrefaultWord, 0);
    }
    env.Store32(t.cursor, 0);
  }
  t.shared_ready.store(true, std::memory_order_release);
  Member(env, t, 0);
  for (int m = 1; m < kMembers; ++m) {
    int status = 0;
    int sig = 0;
    if (env.WaitChild(&status, &sig) < 0 || status != 0 || sig != 0) {
      t.members_ok = false;
    }
  }
  if (fd) {
    for (int m = 0; m < kMembers; ++m) {
      if (env.Unlink(FilePath(m)) != 0) {
        t.error = "cannot unlink " + FilePath(m);
      }
    }
  }
}

u64 Percentile(std::vector<u32>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  const size_t idx = std::min(v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// What one trial measured.
struct TrialResult {
  bool traced = false;
  std::string why;  // empty when members exited cleanly and tables returned to boot values
  double setup_s = 0;
  double wall_s = 0;
  u64 ops = 0;
  u64 failed = 0;
  double cpu_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double host_share = 0;  // largest share of a member core's time not spent on its member
  std::vector<double> extra_setup_s;  // set-ups without a timed loop, run before this trial
  Counters delta;
  // Traced trials only.
  std::array<double, kKinds> kind_p50_us{};
  std::array<double, kKinds> kind_p99_us{};
  double access_p50_us = 0;
  double access_p99_us = 0;
  double child_ns = 0;  // summed kernel-call span time
  double op_ns = 0;     // summed op span time
  std::string nest_error;
};

// Checks span structure and fills the span-derived fields of `r`.
void AnalyzeSpans(const Trial& t, TrialResult& r) {
  std::array<std::vector<u32>, kKinds> by_kind;
  std::vector<u32> access;
  for (const MemberOut& o : t.out) {
    std::vector<const Span*> pending;
    for (const Span& s : o.spans) {
      by_kind[s.kind].push_back(s.dur_ns);
      if (s.kind == kLoad || s.kind == kStore) {
        access.push_back(s.dur_ns);
      }
      if (s.kind != kOp) {
        pending.push_back(&s);
        continue;
      }
      // `s` is the op that owns every pending child: they must share its
      // id, lie inside it in order without overlapping, and leave it a
      // non-negative self time.
      u64 prev_end = s.start_ns;
      u64 children = 0;
      for (const Span* c : pending) {
        if (r.nest_error.empty() &&
            (c->op != s.op || c->start_ns < prev_end ||
             c->start_ns + c->dur_ns > s.start_ns + s.dur_ns)) {
          r.nest_error = "span of " + std::string(kKindNames[c->kind]) + " escapes op " +
                         std::to_string(s.op);
        }
        prev_end = c->start_ns + c->dur_ns;
        children += c->dur_ns;
      }
      if (children > s.dur_ns && r.nest_error.empty()) {
        r.nest_error = "negative self time in op " + std::to_string(s.op);
      }
      r.child_ns += static_cast<double>(children);
      r.op_ns += static_cast<double>(s.dur_ns);
      pending.clear();
    }
    if (!pending.empty() && r.nest_error.empty()) {
      r.nest_error = "kernel-call spans without an op";
    }
  }
  for (size_t k = 0; k < kKinds; ++k) {
    r.kind_p50_us[k] = static_cast<double>(Percentile(by_kind[k], 0.50)) / 1e3;
    r.kind_p99_us[k] = static_cast<double>(Percentile(by_kind[k], 0.99)) / 1e3;
  }
  r.access_p50_us = static_cast<double>(Percentile(access, 0.50)) / 1e3;
  r.access_p99_us = static_cast<double>(Percentile(access, 0.99)) / 1e3;
}

// Writes the first `max_ops` ops of every member's spans as TSV.
void DumpSpans(const Trial& t, const std::string& path, u64 max_ops) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "sgbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "member\top\tname\tstart_ns\tend_ns\n");
  for (size_t m = 0; m < t.out.size(); ++m) {
    u64 ops = 0;
    for (const Span& s : t.out[m].spans) {
      if (ops >= max_ops) {
        break;
      }
      std::fprintf(f, "%zu\t%u\t%s\t%llu\t%llu\n", m, s.op, kKindNames[s.kind],
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.start_ns + s.dur_ns));
      ops += s.kind == kOp ? 1 : 0;
    }
  }
  std::fclose(f);
}

TrialResult RunTrial(const Spec& spec, const std::array<int, kMembers>& cores, u64 seed,
                     u64 ops, bool traced, const std::string& spans_path) {
  Trial t;
  t.spec = &spec;
  t.seed = seed;
  t.traced = traced;
  t.ops = ops;
  t.cores = cores;
  TrialResult r;
  r.traced = traced;

  const u64 setup0 = NowNs();
  Kernel k(spec.boot);
  const Tables boot = ReadTables(k);
  if (!k.Launch([&t](Env& env, long) { Leader(env, t); }).ok()) {
    std::fprintf(stderr, "sgbench: launch failed\n");
    std::_Exit(3);
  }
  k.WaitAll();
  const Tables end = ReadTables(k);

  r.setup_s = static_cast<double>(t.go_ns - setup0) / 1e9;
  u64 last_end = t.go_ns;
  std::vector<u32> lat;
  lat.reserve(ops);
  double cpu_ns = 0;
  for (const MemberOut& o : t.out) {
    r.ops += o.ops;
    r.failed += o.failed;
    last_end = std::max(last_end, o.end_ns);
    cpu_ns += static_cast<double>(o.cpu_ns);
    lat.insert(lat.end(), o.lat_ns.begin(), o.lat_ns.end());
  }
  r.wall_s = static_cast<double>(last_end - t.go_ns) / 1e9;
  r.cpu_s = cpu_ns / 1e9;
  r.p50_us = static_cast<double>(Percentile(lat, 0.50)) / 1e3;
  r.p99_us = static_cast<double>(Percentile(lat, 0.99)) / 1e3;
  r.delta = Delta(t.before, t.after);
  const double ticks_per_ns = static_cast<double>(sysconf(_SC_CLK_TCK)) / 1e9;
  for (size_t m = 0; m < kMembers; ++m) {
    const size_t c = static_cast<size_t>(cores[m]);
    if (c >= t.ticks_before.size() || c >= t.ticks_after.size()) {
      continue;  // no /proc/stat: nothing to check against
    }
    const CpuTicks& a = t.ticks_before[c];
    const CpuTicks& b = t.ticks_after[c];
    const double own = static_cast<double>(t.out[m].cpu_ns) * ticks_per_ns;
    const double other = std::max(0.0, static_cast<double>(b.busy - a.busy) - own);
    r.host_share = std::max(r.host_share, (static_cast<double>(b.steal - a.steal) + other) /
                                              static_cast<double>(std::max<u64>(b.total - a.total, 1)));
  }
  if (r.ops != ops) {
    r.why += "completed " + std::to_string(r.ops) + " of " + std::to_string(ops) + " ops; ";
  }
  if (!t.members_ok) {
    r.why += "a member exited abnormally; ";
  }
  if (!t.error.empty()) {
    r.why += t.error + "; ";
  }
  for (size_t i = 0; i < boot.size(); ++i) {
    if (end[i] != boot[i]) {
      r.why += std::string(kTableNames[i]) + " " + std::to_string(boot[i]) + " at boot, " +
               std::to_string(end[i]) + " after teardown; ";
    }
  }
  if (traced) {
    AnalyzeSpans(t, r);
    if (!spans_path.empty()) {
      DumpSpans(t, spans_path, 2000);
    }
  }
  return r;
}

// ----- metrics -----

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double PerOp(double v, double ops) { return ops > 0 ? v / ops : 0; }
double Frac(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> EndToEnd(const std::vector<TrialResult>& trials) {
  std::vector<double> tput, p50, p99, cpu, setup;
  for (const TrialResult& r : trials) {
    tput.push_back(static_cast<double>(r.ops) / r.wall_s);
    p50.push_back(r.p50_us);
    p99.push_back(r.p99_us);
    cpu.push_back(r.cpu_s * 1e6 / static_cast<double>(r.ops));
    setup.push_back(r.setup_s);
    setup.insert(setup.end(), r.extra_setup_s.begin(), r.extra_setup_s.end());
  }
  return {{"ops_per_s", Median(tput), "1/s"},
          {"latency_p50_us", Median(p50), "us"},
          {"latency_p99_us", Median(p99), "us"},
          {"cpu_us_per_op", Median(cpu), "us"},
          {"setup_s", Median(setup), "s"}};
}

std::vector<Metric> PerLayer(const std::vector<TrialResult>& trials) {
  Counters c;
  double ops = 0;
  double child_ns = 0;
  double op_ns = 0;
  std::vector<double> traced_tput, plain_tput, access50, access99;
  std::array<std::vector<double>, kKinds> k50, k99;
  for (const TrialResult& r : trials) {
    const double tput = static_cast<double>(r.ops) / r.wall_s;
    if (!r.traced) {
      plain_tput.push_back(tput);
      continue;
    }
    traced_tput.push_back(tput);
    Accumulate(c, r.delta);
    ops += static_cast<double>(r.ops);
    child_ns += r.child_ns;
    op_ns += r.op_ns;
    access50.push_back(r.access_p50_us);
    access99.push_back(r.access_p99_us);
    for (size_t k = 0; k < kKinds; ++k) {
      k50[k].push_back(r.kind_p50_us[k]);
      k99[k].push_back(r.kind_p99_us[k]);
    }
  }
  const auto per_op = [&](const char* counter) { return PerOp(c.get(counter), ops); };
  std::vector<Metric> m = {
      {"api.syscalls_per_op", per_op("sys.entries"), "count/op"},
  };
  for (SpanKind k : {kOpen, kClose, kRead, kWrite, kLseek, kUmask}) {
    m.push_back({std::string("api.") + kKindNames[k] + "_us_p50", Median(k50[k]), "us"});
    m.push_back({std::string("api.") + kKindNames[k] + "_us_p99", Median(k99[k]), "us"});
  }
  const double faults = c.get("vm.faults");
  const double hints = c.get("vm.lookup_hint_hits");
  const std::vector<Metric> rest = {
      {"api.kernel_frac", Frac(child_ns, op_ns), "ratio"},
      {"core.sync_pulls_per_op", per_op("core.sync_pulls"), "count/op"},
      {"core.fd_pulled_slots_per_op", per_op("core.fds.delta_pulled_slots"), "count/op"},
      {"core.fd_published_slots_per_op", per_op("core.fds.delta_published_slots"), "count/op"},
      {"core.fupdsema_waits_per_op", per_op("core.fupdsema_waits"), "count/op"},
      {"core.scalar_pulls_per_op", per_op("core.scalar_gen_pulls"), "count/op"},
      {"sync.sema_sleeps_per_op", per_op("sync.sema_sleeps"), "count/op"},
      {"sync.spin_contended_per_op", per_op("sync.spin_contended"), "count/op"},
      {"sync.sharedlock_read_waits_per_op", per_op("sharedlock.read_waits"), "count/op"},
      {"sync.sharedlock_update_wait_us_mean", Frac(c.update_wait_ns, c.update_wait_count) / 1e3,
       "us"},
      {"proc.context_switches_per_op", PerOp(c.ctx_switches, ops), "count/op"},
      {"rm.cpu_charged_us_per_op", per_op("rm.cpu.charged_ns") / 1e3, "us/op"},
      {"vm.faults_per_op", PerOp(faults, ops), "count/op"},
      {"vm.lockless_frac", Frac(c.get("vm.fault.lockless_hits"), faults), "ratio"},
      {"vm.fault_retries_per_op", per_op("vm.fault.retries"), "count/op"},
      {"vm.fault_fallbacks_per_op", per_op("vm.fault.fallbacks"), "count/op"},
      {"vm.lookup_hint_frac", Frac(hints, hints + c.get("vm.lookup_walks")), "ratio"},
      {"vm.access_us_p50", Median(access50), "us"},
      {"vm.access_us_p99", Median(access99), "us"},
      {"vm.pager_steals_per_op", per_op("vm.pager_steals"), "count/op"},
      {"vm.reclaim_retries_per_op", per_op("vm.fault.reclaim_retries"), "count/op"},
      {"hw.tlb_misses_per_op", per_op("tlb.misses"), "count/op"},
      {"hw.tlb_flushes_per_op", per_op("tlb.flushes"), "count/op"},
      {"hw.swap_outs_per_op", PerOp(c.swap_outs, ops), "count/op"},
      {"hw.swap_ins_per_op", PerOp(c.swap_ins, ops), "count/op"},
      {"bench.trace_overhead_frac",
       plain_tput.empty() ? 0 : 1 - Median(traced_tput) / Median(plain_tput), "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

double Find(const std::vector<Metric>& ms, std::string_view name) {
  for (const Metric& m : ms) {
    if (m.name == name) {
      return m.value;
    }
  }
  std::fprintf(stderr, "sgbench: no metric %.*s\n", static_cast<int>(name.size()), name.data());
  std::abort();
}

// --smoke: one short traced trial; asserts the structure NOTES.md predicts.
int Smoke(const Spec& spec, const std::array<int, kMembers>& cores, u64 seed) {
  const TrialResult r = RunTrial(spec, cores, Hash(seed, 0), spec.smoke_ops, true, "");
  const std::vector<Metric> m = PerLayer({r});
  int bad = 0;
  const auto expect = [&](bool cond, const std::string& what) {
    std::printf("smoke %s: %s %s\n", spec.name, cond ? "ok  " : "FAIL", what.c_str());
    bad += cond ? 0 : 1;
  };
  expect(r.why.empty(), "members exit cleanly and tables return to boot values" +
                   (r.why.empty() ? "" : " (" + r.why + ")"));
  expect(r.failed == 0, "zero failed ops (" + std::to_string(r.failed) + ")");
  expect(r.nest_error.empty(), "spans nest inside their ops with self time >= 0" +
                                   (r.nest_error.empty() ? "" : " (" + r.nest_error + ")"));
  const auto v = [&](const char* name) { return Find(m, name); };
  const auto show = [&](const char* name) {
    return std::string(name) + "=" + std::to_string(v(name));
  };
  switch (spec.kind) {
    case Kind::kFdShare:
      expect(v("vm.faults_per_op") < 0.01, show("vm.faults_per_op") + " ~ 0");
      expect(std::fabs(v("core.fd_published_slots_per_op") - 2) < 0.05,
             show("core.fd_published_slots_per_op") + " ~ 2");
      break;
    case Kind::kShmPool:
      for (const Metric& x : m) {
        if (x.name.rfind("core.", 0) == 0) {
          expect(x.value == 0, x.name + "=" + std::to_string(x.value) + " == 0");
        }
      }
      expect(v("hw.swap_outs_per_op") == 0, show("hw.swap_outs_per_op") + " == 0");
      expect(v("vm.lockless_frac") >= 0.99, show("vm.lockless_frac") + " >= 0.99");
      break;
    case Kind::kShmSwap:
      expect(v("hw.swap_outs_per_op") > 0, show("hw.swap_outs_per_op") + " > 0");
      break;
  }
  return bad == 0 ? 0 : 1;
}

// A perf number from an instrumented build is not a perf number.
const char* InstrumentedBuild() {
#if defined(SG_INJECT_ENABLED) || defined(SG_LOCKDEP_ENABLED)
  return "injection points or lockdep";
#else
  const std::string_view flags = SGBENCH_CXX_FLAGS;
  return flags.find("-fsanitize") != std::string_view::npos ? "a sanitizer" : nullptr;
#endif
}

int Usage() {
  std::fprintf(stderr,
               "usage: sgbench --workload fd_share|shm_pool|shm_swap --seed N --seconds S "
               "--trace 0|1 [--smoke] [--spans FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  u64 seed = 0;
  double seconds = 0;
  int trace = -1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--spans" && has_value) {
      spans_path = argv[++i];
    } else {
      return Usage();
    }
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (workload == s.name) {
      spec = &s;
    }
  }
  if (spec == nullptr || (!smoke && (seconds <= 0 || (trace != 0 && trace != 1)))) {
    return Usage();
  }
  if (const char* why = InstrumentedBuild(); why != nullptr) {
    std::fprintf(stderr, "sgbench: refusing to measure a build with %s\n", why);
    return 2;
  }
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < kMembers + 1) {
    std::fprintf(stderr,
                 "sgbench: %zu usable cores; need %d (one per member plus one for the rest) "
                 "rather than oversubscribe\n",
                 cpus.size(), kMembers + 1);
    return 2;
  }
  // Members on the last kMembers cores; the harness thread on the first.
  std::array<int, kMembers> cores{};
  for (int m = 0; m < kMembers; ++m) {
    cores[static_cast<size_t>(m)] = cpus[cpus.size() - kMembers + static_cast<size_t>(m)];
  }
  if (!PinSelf(cpus[0])) {
    std::fprintf(stderr, "sgbench: cannot pin the harness thread\n");
    return 2;
  }
  if (smoke) {
    return Smoke(*spec, cores, seed);
  }

  std::printf("sgbench workload=%s seed=%llu trace=%d members=%d cores=%d,%d,%d harness_core=%d "
              "usable_cores=%zu ops_per_trial=%llu build_type=%s cxx_flags=\"%s\"\n",
              spec->name, static_cast<unsigned long long>(seed), trace, kMembers, cores[0],
              cores[1], cores[2], cpus[0], cpus.size(), static_cast<unsigned long long>(spec->ops),
              SGBENCH_BUILD_TYPE, SGBENCH_CXX_FLAGS);
  std::printf(
      "trial traced host_share setup_ms wall_ms ops failed ops_per_s p50_us p99_us cpu_us_per_op\n");
  std::vector<TrialResult> trials;
  bool correct = true;
  u64 skipped = 0;
  const size_t min_trials = kMinTrials * (trace == 1 ? 2u : 1u);
  const u64 deadline = NowNs() + static_cast<u64>(seconds * 1e9);
  while (trials.size() < min_trials || NowNs() < deadline) {
    if (NowNs() > deadline + kGraceNs) {
      std::fprintf(stderr,
                   "sgbench: the host kept taking the member cores away (%llu trials skipped, "
                   "%zu measured); refusing to report\n",
                   static_cast<unsigned long long>(skipped), trials.size());
      return 4;
    }
    // Trial inputs depend on the trial's index, not on how many were
    // skipped. The traced run alternates plain and traced trials: the
    // plain ones give the untraced throughput that sizes the trace overhead.
    const u64 i = trials.size();
    const bool traced = trace == 1 && i % 2 == 1;
    // Set-up time varies several-fold from one set-up to the next (host
    // thread creation and placement), so an untraced run also sets up and
    // tears down kExtraSetups groups with no timed loop before each trial,
    // and setup_s is the median over all of them.
    std::vector<double> extra_setup_s;
    for (int k = 0; trace == 0 && k < kExtraSetups; ++k) {
      const TrialResult e = RunTrial(*spec, cores, Hash(seed, i), 0, false, "");
      if (!e.why.empty()) {
        std::printf("setup-only BAD: %s\n", e.why.c_str());
        correct = false;
      }
      extra_setup_s.push_back(e.setup_s);
    }
    TrialResult r = RunTrial(*spec, cores, Hash(seed, i), spec->ops, traced,
                             traced ? spans_path : "");
    r.extra_setup_s = std::move(extra_setup_s);
    const bool host_took_cores = r.host_share > kMaxHostShare;
    std::printf("%s %d %.3f %.3f %.3f %llu %llu %.1f %.3f %.3f %.3f%s%s%s\n",
                host_took_cores ? "skip" : std::to_string(i).c_str(), traced ? 1 : 0,
                r.host_share, r.setup_s * 1e3, r.wall_s * 1e3,
                static_cast<unsigned long long>(r.ops), static_cast<unsigned long long>(r.failed),
                static_cast<double>(r.ops) / r.wall_s, r.p50_us, r.p99_us,
                r.cpu_s * 1e6 / static_cast<double>(r.ops), r.why.empty() ? "" : " BAD: ",
                r.why.c_str(), r.nest_error.empty() ? "" : (" SPANS: " + r.nest_error).c_str());
    if (host_took_cores && r.why.empty() && r.failed == 0 && r.nest_error.empty()) {
      ++skipped;
      continue;
    }
    correct &= r.why.empty() && r.failed == 0 && r.nest_error.empty();
    trials.push_back(std::move(r));
  }
  u64 attempted = 0;
  u64 failed = 0;
  for (const TrialResult& r : trials) {
    attempted += r.ops;
    failed += r.failed;
  }
  const std::vector<Metric> metrics = trace == 1 ? PerLayer(trials) : EndToEnd(trials);
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %14.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("skipped_trials %llu\n", static_cast<unsigned long long>(skipped));
  std::printf("failed_share %.6f (%llu of %llu ops)\n",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0,
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace sg

int main(int argc, char** argv) { return sg::Main(argc, argv); }
