#include "obs/trace.h"

#include <algorithm>

#include "base/check.h"

namespace sg {
namespace obs {

TraceContext& CurrentTraceContext() {
  thread_local TraceContext ctx;
  return ctx;
}

TraceRing::TraceRing(u32 capacity) : cap_(capacity), slots_(new Slot[capacity]) {
  SG_CHECK(capacity > 0);
}

void TraceRing::Emit(const TraceEvent& e) {
  const u64 n = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[n % cap_];
  s.tick.store(n + 1, std::memory_order_relaxed);
  s.arg0.store(e.arg0, std::memory_order_relaxed);
  s.arg1.store(e.arg1, std::memory_order_relaxed);
  s.pid.store(e.pid, std::memory_order_relaxed);
  s.cpu.store(e.cpu, std::memory_order_relaxed);
  s.kind.store(e.kind, std::memory_order_release);  // kind last: publishes the slot
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  const u64 w = written();
  const u64 n = std::min<u64>(w, cap_);
  std::vector<TraceEvent> out;
  out.reserve(n);
  // Oldest live event sits at w % cap_ once wrapped, else at 0.
  const u64 start = w > cap_ ? w % cap_ : 0;
  for (u64 k = 0; k < n; ++k) {
    const Slot& s = slots_[(start + k) % cap_];
    TraceEvent e;
    e.kind = s.kind.load(std::memory_order_acquire);
    if (e.kind == static_cast<u16>(TraceKind::kNone)) {
      continue;  // slot claimed but not yet published
    }
    e.tick = s.tick.load(std::memory_order_relaxed);
    e.arg0 = s.arg0.load(std::memory_order_relaxed);
    e.arg1 = s.arg1.load(std::memory_order_relaxed);
    e.pid = s.pid.load(std::memory_order_relaxed);
    e.cpu = s.cpu.load(std::memory_order_relaxed);
    out.push_back(e);
  }
  return out;
}

void TraceRing::Reset() {
  head_.store(0, std::memory_order_relaxed);
  for (u32 i = 0; i < cap_; ++i) {
    slots_[i].kind.store(0, std::memory_order_relaxed);
  }
}

TraceBuffer::TraceBuffer() {
  rings_.reserve(kMaxCpus + 1);
  for (u32 i = 0; i < kMaxCpus + 1; ++i) {
    rings_.push_back(std::make_unique<TraceRing>(kRingCapacity));
  }
}

TraceBuffer& TraceBuffer::Global() {
  static TraceBuffer* g = new TraceBuffer();  // leaked: see Stats::Global()
  return *g;
}

TraceRing& TraceBuffer::ring(i32 cpu) {
  const u32 i = (cpu < 0 || cpu >= static_cast<i32>(kMaxCpus)) ? kOffCpu : static_cast<u32>(cpu);
  return *rings_[i];
}

void TraceBuffer::Emit(TraceKind kind, u64 arg0, u64 arg1) {
  const TraceContext& ctx = CurrentTraceContext();
  TraceEvent e;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.pid = ctx.pid;
  e.cpu = static_cast<i16>(ctx.cpu);
  e.kind = static_cast<u16>(kind);
  ring(ctx.cpu).Emit(e);
}

u64 TraceBuffer::TotalWritten() const {
  u64 n = 0;
  for (const auto& r : rings_) {
    n += r->written();
  }
  return n;
}

void TraceBuffer::Reset() {
  for (const auto& r : rings_) {
    r->Reset();
  }
}

}  // namespace obs
}  // namespace sg
