// SeqCount — a sequence counter for optimistic, lockless readers (the
// Linux seqcount_t idiom, here backing the per-group VM layout: see
// DESIGN.md §4h).
//
// Writers are ALREADY serialized by some external lock (for the VM layout,
// the group's UpdateLock); the counter only publishes "a layout mutation
// is in progress / has happened" to readers that hold no lock at all. The
// value is even when the layout is stable and odd while a write section is
// open:
//
//   writer:  WriteBegin();  ...mutate + republish...  WriteEnd();
//   reader:  u64 s;
//            if (!TryReadBegin(&s)) fall back;      // writer active now
//            ...lockless reads of published state...
//            if (!ReadValidate(s)) retry/fall back; // a writer intervened
//
// Unlike the classic seqlock, readers here never dereference racily-written
// plain data: everything they touch is either an atomically published
// snapshot pointer (SharedSpace::layout()), a PTE word read atomically from
// a table whose resizers drain readers first, or state guarded by a finer
// lock (region page tables, TLBs). The counter is therefore a pure logical
// validity check — its memory-ordering obligations are modest, and the
// seq_cst RMWs below are chosen for auditability, not necessity (the
// dangerous interleavings are all mediated by the TLB/page-table locks; see
// the §4h proof sketch).
//
// Write sections are registered with lockdep as a spin-class lock: they
// are short, never sleep, and every blocking primitive called while one is
// open is a protocol violation a storm run will report.
#ifndef SRC_SYNC_SEQCOUNT_H_
#define SRC_SYNC_SEQCOUNT_H_

#include <atomic>

#include "base/check.h"
#include "base/thread_annotations.h"
#include "base/types.h"
#include "sync/lockdep.h"

namespace sg {

class SG_CAPABILITY("seqcount") SeqCount {
 public:
  // `name` keys the lockdep class (string literal; all counters created
  // under one name share ordering state).
  explicit SeqCount(const char* name) {
    if (lockdep::kEnabled) {
      class_ = lockdep::RegisterClass(name, lockdep::Kind::kSpin);
    }
  }
  SeqCount(const SeqCount&) = delete;
  SeqCount& operator=(const SeqCount&) = delete;

  // ----- writer side (callers hold the external update lock) -----

  void WriteBegin() SG_ACQUIRE() {
    const u64 prev = seq_.fetch_add(1, std::memory_order_seq_cst);
    SG_CHECK((prev & 1) == 0);  // write sections never nest
    lockdep::OnAcquire(class_, this);
  }

  void WriteEnd() SG_RELEASE() {
    lockdep::OnRelease(class_, this);
    const u64 prev = seq_.fetch_add(1, std::memory_order_seq_cst);
    SG_CHECK((prev & 1) == 1);  // unbalanced WriteEnd
  }

  // ----- reader side (no lock held) -----

  // Snapshots the counter into `*s`. False if a write section is open
  // right now — the caller should fall back to the locked path rather
  // than spin (the writer holds a blocking lock and may be slow).
  bool TryReadBegin(u64* s) const {
    const u64 v = seq_.load(std::memory_order_seq_cst);
    *s = v;
    return (v & 1) == 0;
  }

  // True iff no write section began since `s` was snapshotted: everything
  // read in between belongs to one stable layout.
  bool ReadValidate(u64 s) const {
    return seq_.load(std::memory_order_seq_cst) == s;
  }

  // Current raw value (diagnostics, and generation stamps taken while the
  // external update lock is held — the counter is frozen then, so the
  // value doubles as a layout generation number).
  u64 value() const { return seq_.load(std::memory_order_seq_cst); }

 private:
  std::atomic<u64> seq_{0};
  lockdep::ClassId class_ = 0;
};

// RAII write section.
class SG_SCOPED_CAPABILITY SeqWriter {
 public:
  explicit SeqWriter(SeqCount& sc) SG_ACQUIRE(sc) : sc_(sc) { sc_.WriteBegin(); }
  ~SeqWriter() SG_RELEASE() { sc_.WriteEnd(); }
  SeqWriter(const SeqWriter&) = delete;
  SeqWriter& operator=(const SeqWriter&) = delete;

 private:
  SeqCount& sc_;
};

}  // namespace sg

#endif  // SRC_SYNC_SEQCOUNT_H_
