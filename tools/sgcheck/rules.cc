#include "rules.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>

namespace sgcheck {

const std::set<std::string> kKnownRules = {
    "sleep-in-atomic", "guard-escape",     "seqcount-bracket",
    "guarded-fields",  "spin-internals",   "ofile-private",
    "pregions-private", "inject-registry", "suppression",
};

namespace {

// Names that block (or may block) the calling thread. This is the transitive
// root set for R1; anything that reaches one of these by name may sleep.
// lockdep::MaySleep is the repo's own dynamic marker, so honoring it keeps
// the static and dynamic tools in agreement.
const std::set<std::string> kBlockingRoots = {
    "MaySleep",        "BlockOn",       "FinishSleep",   "DidWake",
    "wait",            "wait_for",      "wait_until",    "sleep_for",
    "sleep_until",     "P",             "Arrive",        "AcquireUpdate",
    "AwaitQuiescent",  "WriteBack",     "MutexLock",
};

// Callables that run under a spinlock no guard around them shows, so name
// resolution cannot see it: the kSyncTable rows' copy functions, which
// PullScalar and UpdateScalar call under rupdlock_, and a lambda passed to
// UpdateScalar, which runs it there. A function that passes a parameter of
// its own on to one of these joins them (ChangeScalar forwards its callable
// to UpdateScalar).
struct LockedCallable {
  std::string lock;
  std::string what;
};
const std::map<std::string, LockedCallable> kLockedCallables = {
    {"kSyncTable", {"rupdlock_", "a kSyncTable row's copy function"}},
    {"UpdateScalar", {"rupdlock_", "a lambda passed to UpdateScalar"}},
};

bool StartsWith(const std::string& s, const char* pre) {
  return s.rfind(pre, 0) == 0;
}

bool Allowed(const Program& prog, const Diag& d) {
  for (const SourceFile& f : prog.files) {
    if (f.path != d.file) continue;
    auto it = f.allows.find(d.line);
    return it != f.allows.end() && it->second.count(d.rule) > 0;
  }
  return false;
}

const Token& T(const SourceFile& f, size_t si) { return f.toks[f.sig[si]]; }

bool SigIs(const SourceFile& f, size_t si, Tok k, const char* text) {
  return si < f.sig.size() && T(f, si).kind == k && T(f, si).text == text;
}

// ---------------------------------------------------------------------------
// Token rules (the absorbed lint.sh greps, now over real tokens — so they
// don't fire inside comments or string literals the way grep did not care
// about).
// ---------------------------------------------------------------------------

void TokenRules(const Program& prog, const Options& opt,
                const std::set<std::string>& registry, bool have_registry,
                std::vector<Diag>& out) {
  const bool fixture = opt.repo.empty();
  for (const SourceFile& f : prog.files) {
    const std::string& rel = f.rel;
    const bool in_src = StartsWith(rel, "src/");
    const bool spin_scope = fixture || (in_src && !StartsWith(rel, "src/sync/"));
    const bool ofile_scope =
        fixture || (in_src && rel != "src/core/shaddr.h" && rel != "src/core/shaddr.cc");
    const bool pregions_scope = fixture || !StartsWith(rel, "src/vm/");
    const bool inject_scope =
        have_registry && (fixture || (in_src && !StartsWith(rel, "src/inject/")));

    for (size_t i = 0; i < f.sig.size(); ++i) {
      const Token& t = T(f, i);
      if (t.kind != Tok::kIdent) continue;

      if (spin_scope && t.text == "flag_" &&
          (SigIs(f, i + 1, Tok::kPunct, ".") || SigIs(f, i + 1, Tok::kPunct, "->")) &&
          i + 2 < f.sig.size() && T(f, i + 2).kind == Tok::kIdent &&
          (T(f, i + 2).text == "store" || T(f, i + 2).text == "exchange")) {
        out.push_back(Diag{f.path, t.line, "spin-internals",
                           "direct poke at Spinlock internals (flag_." +
                               T(f, i + 2).text +
                               ") — only src/sync/ may touch the lock word"});
      }

      if (ofile_scope && t.text == "ofile_") {
        out.push_back(Diag{f.path, t.line, "ofile-private",
                           "'ofile_' is private to src/core/shaddr.{h,cc} — go "
                           "through the SharedAddressSpace API"});
      }

      if (pregions_scope && t.text == "pregions" && i > 0 &&
          (SigIs(f, i - 1, Tok::kPunct, ".") || SigIs(f, i - 1, Tok::kPunct, "->")) &&
          SigIs(f, i + 1, Tok::kPunct, "(") && SigIs(f, i + 2, Tok::kPunct, ")")) {
        out.push_back(Diag{f.path, t.line, "pregions-private",
                           "raw pregions() access outside src/vm/ — use the "
                           "snapshot/lookup API so the seqcount protocol holds"});
      }

      if (inject_scope &&
          (t.text == "SG_INJECT_POINT" || t.text == "SG_INJECT_FAULT") &&
          SigIs(f, i + 1, Tok::kPunct, "(") && i + 2 < f.sig.size() &&
          T(f, i + 2).kind == Tok::kString) {
        const std::string& lit = T(f, i + 2).text;
        std::string name = lit.size() >= 2 ? lit.substr(1, lit.size() - 2) : lit;
        if (!registry.count(name)) {
          out.push_back(Diag{f.path, t.line, "inject-registry",
                             t.text + "(\"" + name +
                                 "\") is not listed in tools/inject_points.txt — "
                                 "register it so storm replays stay exhaustive"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R1: sleep-in-atomic.
// ---------------------------------------------------------------------------

void SleepInAtomic(Program& prog, std::vector<Diag>& out) {
  std::multimap<std::string, size_t> by_name;
  for (size_t i = 0; i < prog.funcs.size(); ++i) {
    by_name.emplace(prog.funcs[i].name, i);
  }

  // Fixpoint: a function may block if any call in its body is a blocking
  // root or resolves (by name) to a function already known to block.
  bool changed = true;
  while (changed) {
    changed = false;
    for (FunctionInfo& fn : prog.funcs) {
      if (fn.may_block) continue;
      for (const CallSite& c : fn.calls) {
        bool blocks = kBlockingRoots.count(c.callee) > 0;
        if (!blocks) {
          auto [lo, hi] = by_name.equal_range(c.callee);
          for (auto it = lo; it != hi; ++it) {
            if (prog.funcs[it->second].may_block) {
              blocks = true;
              break;
            }
          }
        }
        if (blocks) {
          fn.may_block = true;
          fn.block_via = c.callee;
          fn.block_line = c.line;
          changed = true;
          break;
        }
      }
    }
  }

  auto chain_for = [&](const std::string& callee) {
    std::string chain = callee;
    std::string cur = callee;
    for (int depth = 0; depth < 8; ++depth) {
      if (kBlockingRoots.count(cur)) break;
      const FunctionInfo* next = nullptr;
      auto [lo, hi] = by_name.equal_range(cur);
      for (auto it = lo; it != hi; ++it) {
        if (prog.funcs[it->second].may_block) {
          next = &prog.funcs[it->second];
          break;
        }
      }
      if (next == nullptr || next->block_via.empty() || next->block_via == cur) break;
      cur = next->block_via;
      chain += " -> " + cur;
    }
    return chain;
  };

  // Forwarders of a locked callable, to a fixpoint.
  std::map<std::string, LockedCallable> locked = kLockedCallables;
  for (changed = true; changed;) {
    changed = false;
    for (const FunctionInfo& fn : prog.funcs) {
      if (locked.count(fn.name)) continue;
      for (const CallSite& c : fn.calls) {
        auto it = locked.find(c.callee);
        if (it == locked.end()) continue;
        const bool forwards = std::any_of(c.args.begin(), c.args.end(), [&](const std::string& a) {
          return std::find(fn.params.begin(), fn.params.end(), a) != fn.params.end();
        });
        if (forwards) {
          locked[fn.name] = {it->second.lock, "a lambda passed to " + fn.name +
                                                  ", which hands it to " + c.callee};
          changed = true;
          break;
        }
      }
    }
  }

  // R1 regions per the protocol: spinlock held, seqcount read window,
  // epoch pin. A seqcount WRITE section may sleep (readers fail validation
  // and take the lock path — a latency cost, not a correctness one), so it
  // is bracket-checked by R3 but not sleep-checked here. A call inside a
  // locked callable runs with its lock held.
  constexpr unsigned kR1Mask = kCtxSpin | kCtxSeqRead | kCtxEpoch;
  for (const FunctionInfo& fn : prog.funcs) {
    if (!prog.files[fn.file_idx].full) continue;
    for (CallSite c : fn.calls) {
      if (auto it = locked.find(c.lambda_of); it != locked.end() && (c.ctx & kR1Mask) == 0) {
        c.ctx |= kCtxSpin;
        c.ctx_desc = "spinlock-held section (" + it->second.what + ", run under '" +
                     it->second.lock + "')";
      }
      if ((c.ctx & kR1Mask) == 0) continue;
      bool blocks = kBlockingRoots.count(c.callee) > 0;
      if (!blocks) {
        auto [lo, hi] = by_name.equal_range(c.callee);
        for (auto it = lo; it != hi; ++it) {
          if (prog.funcs[it->second].may_block) {
            blocks = true;
            break;
          }
        }
      }
      if (!blocks) continue;
      const std::string chain = chain_for(c.callee);
      std::string msg = "'" + c.callee + "' may block inside " + c.ctx_desc;
      if (chain != c.callee) msg += " (chain: " + chain + ")";
      out.push_back(Diag{fn.file, c.line, "sleep-in-atomic", std::move(msg)});
    }
  }
}

// ---------------------------------------------------------------------------
// R4: guarded-fields.
// ---------------------------------------------------------------------------

// Capability types: lock words themselves, never data they protect.
const std::set<std::string> kCapabilityTypes = {
    "Spinlock", "Mutex",  "UpdateLock", "SharedReadLock", "Semaphore", "SeqCount",
    "Barrier",  "mutex",  "condition_variable", "condition_variable_any",
    "shared_mutex", "once_flag",
};

// Internally-synchronized observability types (their own atomics inside).
const std::set<std::string> kSelfSyncTypes = {
    "Counter", "Gauge", "LatencyHisto", "TraceRing", "Stats", "StatRegistry",
};

void GuardedFields(const Program& prog, std::vector<Diag>& out) {
  std::multimap<std::string, const ClassInfo*> by_name;
  for (const ClassInfo& c : prog.classes) by_name.emplace(c.name, &c);

  // FieldOk with depth-limited composition: a field of an unannotated
  // aggregate type is fine when every field of that aggregate is fine
  // (covers EpochSlot-style structs-of-atomics).
  std::function<bool(const FieldInfo&, int)> field_ok =
      [&](const FieldInfo& fi, int depth) -> bool {
    if (fi.annotated || fi.atomic_ || fi.konst || fi.ref) return true;
    if (kCapabilityTypes.count(fi.type_last)) return true;
    if (kSelfSyncTypes.count(fi.type_last)) return true;
    // By-value composition of another protocol struct: it carries its own
    // capabilities, so the outer class has nothing to annotate.
    {
      auto [lo, hi] = by_name.equal_range(fi.type_last);
      for (auto it = lo; it != hi; ++it) {
        if (it->second->has_guarded) return true;
      }
    }
    if (depth < 2) {
      auto [lo, hi] = by_name.equal_range(fi.type_last);
      for (auto it = lo; it != hi; ++it) {
        const ClassInfo* inner = it->second;
        if (inner->fields.empty()) continue;
        bool all = true;
        for (const FieldInfo& f2 : inner->fields) {
          if (!field_ok(f2, depth + 1)) {
            all = false;
            break;
          }
        }
        if (all) return true;
      }
    }
    return false;
  };

  for (const ClassInfo& c : prog.classes) {
    if (!c.has_guarded) continue;
    for (const FieldInfo& fi : c.fields) {
      if (field_ok(fi, 0)) continue;
      out.push_back(Diag{
          c.file, fi.line, "guarded-fields",
          "field '" + fi.name + "' of protocol struct '" + c.name +
              "' has no SG_GUARDED_BY and is not atomic/const/a capability — "
              "annotate it or suppress with a reason"});
    }
  }
}

}  // namespace

void RunRules(Program& prog, const Options& opt, std::vector<Diag>& out) {
  // Inject-point registry.
  std::set<std::string> registry;
  bool have_registry = false;
  if (!opt.inject_registry.empty()) {
    std::ifstream in(opt.inject_registry);
    if (in) {
      have_registry = true;
      std::string line;
      while (std::getline(in, line)) {
        const size_t hash = line.find('#');
        if (hash != std::string::npos) line = line.substr(0, hash);
        size_t b = line.find_first_not_of(" \t\r");
        if (b == std::string::npos) continue;
        size_t e = line.find_last_not_of(" \t\r");
        registry.insert(line.substr(b, e - b + 1));
      }
    } else {
      out.push_back(Diag{opt.inject_registry, 0, "inject-registry",
                         "cannot read inject-point registry"});
    }
  }

  std::vector<Diag> raw;
  TokenRules(prog, opt, registry, have_registry, raw);
  SleepInAtomic(prog, raw);
  GuardedFields(prog, raw);
  for (const Diag& d : prog.lexical) raw.push_back(d);

  for (Diag& d : raw) {
    if (!Allowed(prog, d)) out.push_back(std::move(d));
  }
  std::sort(out.begin(), out.end(), [](const Diag& a, const Diag& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.msg < b.msg;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Diag& a, const Diag& b) {
                          return a.file == b.file && a.line == b.line &&
                                 a.rule == b.rule && a.msg == b.msg;
                        }),
            out.end());
}

}  // namespace sgcheck
