// Clang Thread Safety Analysis attribute macros (SG_-prefixed, following
// the abseil convention). The paper's §6 correctness story is a lock
// *protocol* — the update lock above s_listlock, s_rupdlock/s_fupdsema
// single-threading resource updates, spinlock holders never sleeping —
// and these macros let the compiler check the static half of it: capability
// types on the sync/ primitives, GUARDED_BY on the protected state, and
// REQUIRES on the functions that assume a lock is held.
//
// On clang, `cmake --preset tsa` turns the annotations into hard errors
// (-Wthread-safety -Werror, applied to src/ — test code deliberately
// abuses the primitives and is exempt). On every other compiler the macros
// expand to nothing, so the default gcc build is byte-identical with or
// without them. The dynamic half of the protocol (actual acquisition
// order, sleep-under-spinlock at runtime) is checked by sync/lockdep.h.
#ifndef SRC_BASE_THREAD_ANNOTATIONS_H_
#define SRC_BASE_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define SG_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define SG_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

// ----- capability (lock) types -----

// Marks a class as a capability: something that can be held, and whose
// holding other annotations can reference. The string names the kind in
// diagnostics ("spinlock", "update_lock", "mutex").
#define SG_CAPABILITY(x) SG_THREAD_ANNOTATION_(capability(x))

// Marks an RAII class whose constructor acquires and destructor releases.
#define SG_SCOPED_CAPABILITY SG_THREAD_ANNOTATION_(scoped_lockable)

// ----- data annotations -----

// The field may only be accessed while holding the given capability.
#define SG_GUARDED_BY(x) SG_THREAD_ANNOTATION_(guarded_by(x))

// The pointed-to data (not the pointer itself) is protected by `x`.
#define SG_PT_GUARDED_BY(x) SG_THREAD_ANNOTATION_(pt_guarded_by(x))

// ----- function annotations -----

// Caller must hold the capability.
#define SG_REQUIRES(...) \
  SG_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

// The function acquires the capability (and holds it on return).
#define SG_ACQUIRE(...) \
  SG_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

// The function releases the capability (caller must hold it on entry).
#define SG_RELEASE(...) \
  SG_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

// The function tries to acquire and reports success via its return value.
#define SG_TRY_ACQUIRE(...) \
  SG_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// Caller must NOT hold the capability (anti-deadlock for self-locking APIs).
#define SG_EXCLUDES(...) SG_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// The function returns a reference to the named capability (lets the
// analysis see through accessors like SharedSpace::lock()).
#define SG_RETURN_CAPABILITY(x) SG_THREAD_ANNOTATION_(lock_returned(x))

// Documented lock-ordering edges, checked statically by clang.
#define SG_ACQUIRED_BEFORE(...) \
  SG_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define SG_ACQUIRED_AFTER(...) \
  SG_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

// Escape hatch for functions whose locking the analysis cannot model
// (conditional guards over an optional shared space, lock handoff).
// Every use must carry a comment saying WHY the analysis is suppressed.
#define SG_NO_THREAD_SAFETY_ANALYSIS \
  SG_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // SRC_BASE_THREAD_ANNOTATIONS_H_
