// sgcheck fixture: R1 sleep-in-atomic — positives and near-miss negatives.
// Not compiled; parsed only by sgcheck (types are stand-ins for the repo's).

namespace fix {

class Semaphore {
 public:
  void P();
  void V();
};

class Sleeper {
 public:
  // Transitively blocking helpers: DoSleep -> NestedSleep -> sem_.P().
  void NestedSleep() { sem_.P(); }
  void DoSleep() { NestedSleep(); }

  // VIOLATION: blocking root directly under a SpinGuard.
  void DirectUnderSpin() {
    SpinGuard g(lock_);
    sem_.P();
  }

  // VIOLATION: transitive sleep under a SpinGuard (diagnosed with a chain).
  void TransitiveUnderSpin() {
    SpinGuard g(lock_);
    DoSleep();
  }

  // NEGATIVE: the sleep happens after the guard's scope closes.
  void SleepAfterGuard() {
    {
      SpinGuard g(lock_);
      counter_ = counter_ + 1;
    }
    DoSleep();
  }

  // VIOLATION: explicit Lock()/Unlock() pair with a sleep inside.
  void ExplicitPair() {
    lock_.Lock();
    sem_.P();
    lock_.Unlock();
  }

  // NEGATIVE: sleep after the explicit Unlock().
  void SleepAfterUnlock() {
    lock_.Lock();
    counter_ = 2;
    lock_.Unlock();
    sem_.P();
  }

  // VIOLATION: SG_REQUIRES(lock_) runs the whole body spinlock-held.
  void RequiresSpin() SG_REQUIRES(lock_) { sem_.P(); }

  // NEGATIVE: rlock_ is a SharedReadLock, not a spinlock — holders may sleep.
  void RequiresShared() SG_REQUIRES(rlock_) { sem_.P(); }

 private:
  Spinlock lock_;
  SharedReadLock rlock_;
  Semaphore sem_;
  int counter_ SG_GUARDED_BY(lock_) = 0;
};

class SeqUser {
 public:
  // VIOLATION: blocking inside a seqcount read window.
  int ReadPath() {
    for (;;) {
      u32 s = 0;
      if (!seq_.TryReadBegin(&s)) continue;
      sem_.P();
      if (seq_.ReadValidate(s)) return 1;
    }
  }

  // NEGATIVE: a seqcount WRITE section may sleep — readers fail validation
  // and take the lock path (a latency cost, not a correctness one).
  void WritePath() {
    SeqWriter w(seq_);
    sem_.P();
  }

 private:
  SeqCount seq_;
  Semaphore sem_;
};

class EpochUser {
 public:
  // VIOLATION: blocking while epoch-pinned (the graveyard cannot advance).
  void Pinned() {
    EpochGuard eg;
    sem_.P();
  }

  // NEGATIVE: blocking after the pin's scope ends.
  void PinnedThenSleep() {
    {
      EpochGuard eg;
      touched_ = 1;
    }
    sem_.P();
  }

 private:
  Semaphore sem_;
  int touched_ = 0;
};

// Callables run under a lock no guard around them shows: a table row's copy
// function, which PullScalar runs under rupdlock_, and a lambda handed to
// UpdateScalar, directly or through a forwarder.
struct Proc {
  int mask = 0;
};

struct SyncRow {
  void (*to_member)(Proc&);
};

const SyncRow kSyncTable[2] = {
    // NEGATIVE: the row copies a field.
    {[](Proc& p) { p.mask = 1; }},
    // VIOLATION: the row sleeps under rupdlock_.
    {[](Proc& p) { Sleeper::DoSleep(); }},
};

class Block {
 public:
  void PullScalar(Proc& p, int r) {
    SpinGuard g(rupdlock_);
    kSyncTable[r].to_member(p);
  }

  template <typename Fn>
  void UpdateScalar(Proc& p, Fn&& change) {
    SpinGuard g(rupdlock_);
    change(p);
  }

  template <typename Fn>
  void ChangeScalar(Proc& p, Fn&& change) {
    UpdateScalar(p, change);
  }

  // NEGATIVE: the lambda only writes the member's copy.
  void SetMask(Proc& p) {
    UpdateScalar(p, [](Proc& q) { q.mask = 2; });
  }

  // VIOLATION: the lambda sleeps under rupdlock_.
  void SetDir(Proc& p) {
    UpdateScalar(p, [](Proc& q) { Sleeper::DoSleep(); });
  }

  // VIOLATION: the same, through a forwarder.
  void SetDirForwarded(Proc& p) {
    ChangeScalar(p, [](Proc& q) { Sleeper::DoSleep(); });
  }

  // NEGATIVE: an argument computed before the call runs unlocked.
  void SetMaskFrom(Proc& p) {
    UpdateScalar(p, Pick(sem_.P()));
  }

 private:
  Spinlock rupdlock_;
  Semaphore sem_;
};

}  // namespace fix
