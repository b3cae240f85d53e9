// sgcheck parser — a function-scope C++ parser over the lexer's tokens.
//
// This is NOT a C++ front end. It recovers exactly the structure the
// protocol rules need and nothing more:
//
//   * classes and their data members (for the annotation-coverage audit and
//     for typing lock receivers like `acclck_.Lock()`),
//   * method declarations carrying SG_REQUIRES(<spinlock>) (so a definition
//     in a .cc inherits the "caller holds the spinlock" context),
//   * function definitions with their body token ranges,
//   * per-body: every call site, tagged with the no-sleep contexts open at
//     that point (spinlock held, seqcount write section, seqcount read
//     window, epoch-pinned section),
//   * lexical findings for the guard-escape and seqcount-bracket rules,
//     which need scope-accurate bookkeeping only the walker has.
//
// Known conservatisms (see DESIGN.md §4i): contexts are lexical, so an
// explicit `x.Unlock()` anywhere closes the section — early-release
// branches leave the remainder of the function unchecked (prefer RAII
// guards, which track scope exactly); calls through function pointers,
// templates instantiated with callable parameters, and virtual dispatch
// resolve by name only. So each call site also records the call whose
// lambda argument encloses it, or the namespace-scope table whose
// initializer does, and its bare-identifier arguments: R1 resolves callables
// run under a lock from those (rules.cc).
#ifndef TOOLS_SGCHECK_PARSER_H_
#define TOOLS_SGCHECK_PARSER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace sgcheck {

// No-sleep context kinds (bitmask).
enum Ctx : unsigned {
  kCtxSpin = 1u << 0,      // spinlock held (SpinGuard or explicit Lock())
  kCtxSeqWrite = 1u << 1,  // SeqCount write section (SeqWriter / WriteBegin)
  kCtxSeqRead = 1u << 2,   // seqcount read window (TryReadBegin..ReadValidate)
  kCtxEpoch = 1u << 3,     // EpochGuard-pinned section
};

struct Diag {
  std::string file;
  int line = 0;
  std::string rule;
  std::string msg;
};

struct CallSite {
  std::string callee;    // unqualified name
  int line = 0;
  unsigned ctx = 0;      // contexts open at the call
  std::string ctx_desc;  // e.g. "spinlock 'acclck_' held since line 12"
  std::string lambda_of;  // call (or table) whose lambda encloses this call
  std::vector<std::string> args;  // arguments that are one bare identifier
};

struct FieldInfo {
  std::string name;
  std::string type_last;  // last identifier of the type ("Spinlock", "vector")
  std::string decl;       // joined declaration text (diagnostic aid)
  int line = 0;
  bool annotated = false;  // SG_GUARDED_BY / SG_PT_GUARDED_BY present
  bool atomic_ = false;    // std::atomic<...> (or contains `atomic`)
  bool konst = false;      // const object (not a pointer-to-const)
  bool ref = false;        // reference member (binding fixed at construction)
};

struct ClassInfo {
  std::string name;
  std::string file;
  int line = 0;
  std::vector<FieldInfo> fields;
  bool has_guarded = false;  // declares >= 1 GUARDED_BY field => protocol struct
};

struct FunctionInfo {
  std::string name;  // unqualified
  std::string qual;  // Class::name when known
  std::string file;
  int line = 0;
  int file_idx = -1;
  size_t body_begin = 0, body_end = 0;  // sig-token index range of the body
  std::vector<std::string> requires_args;  // SG_REQUIRES(...) idents from the head
  std::vector<std::string> params;         // parameter names
  bool table = false;  // a namespace-scope initializer holding lambdas, not a function
  std::vector<CallSite> calls;

  // Filled by the sleep-in-atomic fixpoint in rules.cc.
  bool may_block = false;
  std::string block_via;  // callee name that makes this function blocking
  int block_line = 0;
};

struct SourceFile {
  std::string path;  // as given on the command line / discovered
  std::string rel;   // repo-relative path (directory scoping)
  bool full = false; // full analysis (src/) vs token rules only (tests/bench)
  std::vector<Token> toks;
  std::vector<size_t> sig;  // indices of non-comment, non-preprocessor tokens
  // line -> rules allowed there (from sgcheck:allow comments)
  std::map<int, std::set<std::string>> allows;
};

struct Program {
  std::vector<SourceFile> files;
  std::vector<ClassInfo> classes;
  std::vector<FunctionInfo> funcs;
  std::vector<Diag> lexical;  // guard-escape + seqcount-bracket raw findings
  // field name -> possible type_last idents, across every parsed class
  std::multimap<std::string, std::string> field_types;
  // "Class::method" -> SG_REQUIRES args from the in-class declaration
  std::map<std::string, std::vector<std::string>> method_requires;
  // accessor method name -> capability type it returns (lock(), layout_seq())
  std::map<std::string, std::string> accessor_types;
};

// Pass 1: classes, fields, method annotations, function body ranges.
void ParseStructure(Program& prog, int file_idx);

// Pass 2: walk every function body recorded for `file_idx` (needs the
// complete field/accessor maps, so run after ParseStructure on all files).
void WalkBodies(Program& prog, int file_idx);

// Scans comments: builds SourceFile::allows and appends malformed-suppression
// diagnostics ([suppression]) to `out`. `known_rules` validates rule names.
void CollectAllows(SourceFile& f, const std::set<std::string>& known_rules,
                   std::vector<Diag>& out);

}  // namespace sgcheck

#endif  // TOOLS_SGCHECK_PARSER_H_
