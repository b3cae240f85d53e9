// Kernel statistics registry — the counter/gauge/histogram layer the rest
// of the kernel is instrumented with.
//
// The paper's §7 analysis is qualitative ("overhead ... is negligible
// except when detaching or shrinking regions") because the 1988 kernel had
// no built-in way to measure itself. This registry closes that gap: every
// hot path (update lock, TLB shootdown, fault/COW, sync-bit
// propagation, syscall entry) increments a named counter, and /proc/stat
// renders the whole registry for user processes.
//
// Design constraints:
//   * The update path is one relaxed atomic increment of the caller's own
//     shard. Name lookup happens ONCE per call site (function-local static
//     reference in the SG_OBS_* macros), so it stays off the critical path.
//   * Registered objects have stable addresses for the life of the
//     process (the registry is a leaked singleton), so cached references
//     never dangle — including during static destruction.
//   * Depends only on base/: every layer from sync/ up may include this.
#ifndef SRC_OBS_STATS_H_
#define SRC_OBS_STATS_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "base/thread_slot.h"
#include "base/types.h"

namespace sg {
namespace obs {

// Monotonically increasing event count, one cache-line shard per ThreadSlot():
// members counting at once write no shared line, and value() sums the shards.
class Counter {
 public:
  void Inc(u64 n = 1) { shards_[ThreadSlot()].v.fetch_add(n, std::memory_order_relaxed); }
  u64 value() const {
    u64 sum = 0;
    for (const Shard& s : shards_) {
      sum += s.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<u64> v{0};
  };
  std::array<Shard, kThreadSlots> shards_{};
};

// Instantaneous level (live processes, live share blocks).
class Gauge {
 public:
  void Set(i64 v) { v_.store(v, std::memory_order_relaxed); }
  void Add(i64 d) { v_.fetch_add(d, std::memory_order_relaxed); }
  i64 value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<i64> v_{0};
};

// Log2-bucketed latency histogram (nanoseconds). Bucket i counts samples
// with value < 2^i ns; the last bucket is open-ended. Lock-free: Record is
// three relaxed increments.
class LatencyHisto {
 public:
  static constexpr u32 kBuckets = 40;  // 2^39 ns ≈ 9 minutes: plenty

  void Record(u64 ns) {
    u32 b = 0;
    while (b + 1 < kBuckets && (u64{1} << b) <= ns) {
      ++b;
    }
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  u64 count() const { return count_.load(std::memory_order_relaxed); }
  u64 sum_ns() const { return sum_ns_.load(std::memory_order_relaxed); }
  u64 bucket(u32 i) const { return buckets_[i].load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<u64>, kBuckets> buckets_{};
  std::atomic<u64> count_{0};
  std::atomic<u64> sum_ns_{0};
};

// The system-wide registry. Lookup by name is mutex-guarded and intended
// to run once per call site; the returned references are stable forever.
class Stats {
 public:
  // The leaked global instance (never destroyed: cached references in
  // instrumented code must outlive every static destructor).
  static Stats& Global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHisto& histo(std::string_view name);

  // Value of a counter if it exists, else 0 (tests, /proc readers).
  u64 CounterValue(std::string_view name) const;
  u64 HistoCount(std::string_view name) const;

  // Renders every registered stat as "name value" lines, sorted by name.
  // Histograms expand to .count/.sum_ns/.avg_ns plus one line per nonzero
  // bucket. This is the body of /proc/stat.
  std::string RenderText() const;

 private:
  Stats() = default;

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_ SG_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_ SG_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHisto>, std::less<>> histos_ SG_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace sg

// Increment the named counter. The registry lookup runs once per call site
// (thread-safe static-local init); afterwards this is one relaxed fetch_add.
#define SG_OBS_INC(name) SG_OBS_ADD(name, 1)

#define SG_OBS_ADD(name, n)                                                          \
  do {                                                                               \
    static ::sg::obs::Counter& sg_obs_counter_ =                                     \
        ::sg::obs::Stats::Global().counter(name);                                    \
    sg_obs_counter_.Inc(n);                                                          \
  } while (0)

// Per-syscall entry counter ("sys.open", "sys.sproc", ...).
#define SG_OBS_SYSCALL(name) SG_OBS_INC("sys." name)

#endif  // SRC_OBS_STATS_H_
