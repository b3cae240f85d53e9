#include "parser.h"

#include <algorithm>
#include <cctype>

namespace sgcheck {

namespace {

const std::set<std::string> kStmtKeywords = {
    "return",   "delete", "new",   "throw",  "if",     "else",    "do",
    "while",    "for",    "switch", "case",  "break",  "continue", "goto",
    "sizeof",   "alignof", "using", "namespace", "public", "private",
    "protected", "template", "typename", "operator", "this", "co_return",
    "co_await", "static_assert", "default", "try", "catch", "void",
};

const std::set<std::string> kCvStorage = {
    "const", "constexpr", "consteval", "constinit", "static", "thread_local",
    "mutable", "volatile", "register", "inline", "extern", "explicit",
    "virtual", "typename", "unsigned", "signed",
};

// RAII guard types that open a no-sleep context for their scope.
unsigned GuardCtxKind(const std::string& type_last) {
  if (type_last == "SpinGuard") return kCtxSpin;
  if (type_last == "SeqWriter") return kCtxSeqWrite;
  if (type_last == "EpochGuard") return kCtxEpoch;
  return 0;
}

bool IsMacroName(const std::string& s) {
  if (s.size() < 2) return false;
  bool upper = false;
  for (char c : s) {
    if (std::islower(static_cast<unsigned char>(c))) return false;
    if (std::isupper(static_cast<unsigned char>(c))) upper = true;
  }
  return upper;
}

const char* CtxName(unsigned kind) {
  switch (kind) {
    case kCtxSpin: return "spinlock-held section";
    case kCtxSeqWrite: return "seqcount write section";
    case kCtxSeqRead: return "seqcount read window";
    case kCtxEpoch: return "epoch-pinned section";
  }
  return "no-sleep section";
}

// ---------------------------------------------------------------------------
// Sig-token accessors.
// ---------------------------------------------------------------------------

const Token& T(const SourceFile& f, size_t si) { return f.toks[f.sig[si]]; }

bool IsP(const SourceFile& f, size_t si, const char* p) {
  return si < f.sig.size() && T(f, si).kind == Tok::kPunct && T(f, si).text == p;
}

bool IsIdent(const SourceFile& f, size_t si) {
  return si < f.sig.size() && T(f, si).kind == Tok::kIdent;
}

bool IsIdent(const SourceFile& f, size_t si, const char* name) {
  return IsIdent(f, si) && T(f, si).text == name;
}

// Matching close brace for the open brace at `si` (sig index). Returns
// f.sig.size() if unbalanced (parser survives; rules see a truncated body).
size_t MatchBrace(const SourceFile& f, size_t si) {
  int depth = 0;
  for (size_t j = si; j < f.sig.size(); ++j) {
    if (IsP(f, j, "{")) ++depth;
    if (IsP(f, j, "}")) {
      --depth;
      if (depth == 0) return j;
    }
  }
  return f.sig.size();
}

// Skips a template argument list starting at the '<' at `si`; returns the
// index just past the matching '>'. ">>" counts as two closes. Bails (returns
// start) if it runs into ';' or '{' — then it was a comparison, not a list.
size_t SkipAngles(const SourceFile& f, size_t si) {
  int depth = 0;
  for (size_t j = si; j < f.sig.size(); ++j) {
    const Token& t = T(f, j);
    if (t.kind != Tok::kPunct) continue;
    if (t.text == "<") ++depth;
    else if (t.text == ">") {
      if (--depth == 0) return j + 1;
    } else if (t.text == ">>") {
      depth -= 2;
      if (depth <= 0) return j + 1;
    } else if (t.text == ";" || t.text == "{" || t.text == "}") {
      return si;
    }
  }
  return si;
}

// ---------------------------------------------------------------------------
// Pass 1: structure.
// ---------------------------------------------------------------------------

struct StructureScanner {
  Program& prog;
  int file_idx;
  SourceFile& f;

  // Scans statements until the matching '}' of the scope the caller just
  // entered (or EOF). `cls` is the enclosing class-name stack.
  void ScanScope(size_t& i, std::vector<std::string>& cls, bool in_class) {
    const size_t n = f.sig.size();
    while (i < n) {
      if (IsP(f, i, "}")) {
        ++i;
        return;
      }
      if (IsP(f, i, ";")) {
        ++i;
        continue;
      }
      if (in_class && IsIdent(f, i) && IsP(f, i + 1, ":") &&
          (T(f, i).text == "public" || T(f, i).text == "private" ||
           T(f, i).text == "protected")) {
        i += 2;
        continue;
      }
      if (IsIdent(f, i, "template") && IsP(f, i + 1, "<")) {
        i = SkipAngles(f, i + 1);  // the declaration itself follows
        if (IsP(f, i, "<")) ++i;   // bail-out safety
        continue;
      }
      ScanStatement(i, cls, in_class);
    }
  }

  // One statement head ending in ';' (declaration) or '{' (block opener).
  void ScanStatement(size_t& i, std::vector<std::string>& cls, bool in_class) {
    const size_t n = f.sig.size();
    std::vector<size_t> head;  // sig indices
    int pdepth = 0;
    while (i < n) {
      const Token& t = T(f, i);
      if (t.kind == Tok::kPunct) {
        if (t.text == "(" || t.text == "[") {
          ++pdepth;
        } else if (t.text == ")" || t.text == "]") {
          --pdepth;
        } else if (t.text == ";" && pdepth <= 0) {
          FinishDecl(head, cls, in_class);
          ++i;  // consume ';'
          return;
        } else if (t.text == "}" && pdepth <= 0) {
          return;  // let ScanScope see it ("}" inside parens is brace-init)
        } else if (t.text == "{" && pdepth <= 0) {
          if (BraceIsInitializer(head)) {
            if (!in_class) RecordTable(head, i);
            i = MatchBrace(f, i);
            if (i < n) ++i;  // past '}'
            continue;        // keep reading the head (e.g. " = {0} ;")
          }
          FinishBlock(head, i, cls, in_class);
          return;
        }
      }
      head.push_back(i);
      ++i;
    }
    FinishDecl(head, cls, in_class);
  }

  bool HeadHas(const std::vector<size_t>& head, const char* kw) const {
    for (size_t h : head) {
      if (T(f, h).kind == Tok::kIdent && T(f, h).text == kw) return true;
    }
    return false;
  }

  bool BraceIsInitializer(const std::vector<size_t>& head) const {
    if (head.empty()) return false;
    if (HeadHas(head, "class") || HeadHas(head, "struct") || HeadHas(head, "union") ||
        HeadHas(head, "namespace") || HeadHas(head, "enum")) {
      return false;
    }
    const Token& p = T(f, head.back());
    if (p.kind == Tok::kPunct &&
        (p.text == "=" || p.text == "," || p.text == "(")) {
      return true;
    }
    if (p.kind == Tok::kIdent && p.text == "return") return true;
    // "Type name{init}" / "arr[N]{...}": an identifier/'>'/']' right before
    // '{' with no parameter list anywhere in the head.
    bool top_paren = false;
    int pd = 0;
    for (size_t h : head) {
      const Token& t = T(f, h);
      if (t.kind != Tok::kPunct) continue;
      if (t.text == "(") {
        if (pd == 0) top_paren = true;
        ++pd;
      } else if (t.text == ")") {
        --pd;
      }
    }
    if (top_paren) return false;
    return p.kind == Tok::kIdent ||
           (p.kind == Tok::kPunct && (p.text == ">" || p.text == "]"));
  }

  // Head ended at an opening '{' (sig index `i` points at it).
  void FinishBlock(const std::vector<size_t>& head, size_t& i,
                   std::vector<std::string>& cls, bool in_class) {
    const size_t n = f.sig.size();
    if (HeadHas(head, "namespace")) {
      ++i;
      ScanScope(i, cls, /*in_class=*/false);
      return;
    }
    if (HeadHas(head, "enum")) {
      i = MatchBrace(f, i);
      if (i < n) ++i;
      return;
    }
    if (HeadHas(head, "class") || HeadHas(head, "struct") || HeadHas(head, "union")) {
      const std::string name = ClassNameFromHead(head);
      prog.classes.push_back(ClassInfo{name, f.path, head.empty() ? 0 : T(f, head[0]).line, {}, false});
      const size_t class_idx = prog.classes.size() - 1;
      cls.push_back(name);
      ++i;
      ScanScopeForClass(i, cls, class_idx);
      cls.pop_back();
      // Trailing declarator: "struct X { ... } x_;"
      std::vector<size_t> trail;
      while (i < n && !IsP(f, i, ";") && !IsP(f, i, "}")) {
        trail.push_back(i);
        ++i;
      }
      if (in_class && !trail.empty() && IsIdent(f, trail.back())) {
        ClassInfo& owner = CurrentClass(cls);
        FieldInfo fi;
        fi.name = T(f, trail.back()).text;
        fi.type_last = name;
        fi.line = T(f, trail.back()).line;
        fi.decl = name + " " + fi.name;
        owner.fields.push_back(fi);
        prog.field_types.emplace(fi.name, fi.type_last);
      }
      if (i < n && IsP(f, i, ";")) ++i;
      return;
    }
    if (HasTopParen(head)) {
      RecordFunction(head, i, cls);
      return;
    }
    // Unrecognized block: skip it.
    i = MatchBrace(f, i);
    if (i < n) ++i;
  }

  // Class bodies need their ClassInfo on hand for field recording; the
  // generic ScanScope recursion re-enters through ScanStatement, which finds
  // the class via prog.classes — keep a stack of open class indices.
  std::vector<size_t> open_classes_;

  void ScanScopeForClass(size_t& i, std::vector<std::string>& cls, size_t class_idx) {
    open_classes_.push_back(class_idx);
    ScanScope(i, cls, /*in_class=*/true);
    open_classes_.pop_back();
  }

  ClassInfo& CurrentClass(const std::vector<std::string>&) {
    return prog.classes[open_classes_.back()];
  }

  bool HasTopParen(const std::vector<size_t>& head) const {
    int pd = 0;
    for (size_t h : head) {
      const Token& t = T(f, h);
      if (t.kind != Tok::kPunct) continue;
      if (t.text == "(") {
        if (pd == 0) return true;
        ++pd;
      } else if (t.text == ")") {
        --pd;
      } else if (t.text == "[") {
        ++pd;  // don't treat parens inside [[attr]] or arrays as top level
      } else if (t.text == "]") {
        --pd;
      }
    }
    return false;
  }

  std::string ClassNameFromHead(const std::vector<size_t>& head) const {
    size_t kw = head.size();
    for (size_t k = 0; k < head.size(); ++k) {
      const Token& t = T(f, head[k]);
      if (t.kind == Tok::kIdent &&
          (t.text == "class" || t.text == "struct" || t.text == "union")) {
        kw = k;
      }
    }
    std::string name;
    int pd = 0;
    for (size_t k = kw + 1; k < head.size(); ++k) {
      const Token& t = T(f, head[k]);
      if (t.kind == Tok::kPunct) {
        if (t.text == "(" || t.text == "[") ++pd;
        else if (t.text == ")" || t.text == "]") --pd;
        else if (t.text == ":" && pd == 0) break;  // base clause
      }
      if (pd == 0 && t.kind == Tok::kIdent && t.text != "final" &&
          t.text != "alignas" && !IsMacroName(t.text)) {
        // skip macro-argument idents inside parens via pd check above
        name = t.text;
      }
    }
    return name;
  }

  // First top-level '(' that can open a parameter list: not a macro
  // invocation's paren (SG_GUARDED_BY(...), SG_CHECK(...)) and not part of
  // an initializer (anything after a top-level '='). Returns head.size().
  size_t TopParenPos(const std::vector<size_t>& head) const {
    int pd = 0;
    for (size_t k = 0; k < head.size(); ++k) {
      const Token& t = T(f, head[k]);
      if (t.kind != Tok::kPunct) continue;
      if (t.text == "=" && pd == 0) return head.size();
      if (t.text == "(" || t.text == "[") {
        if (pd == 0 && t.text == "(") {
          const bool macro = k > 0 && IsIdent(f, head[k - 1]) &&
                             IsMacroName(T(f, head[k - 1]).text);
          if (!macro) return k;
        }
        ++pd;
      } else if (t.text == ")" || t.text == "]") {
        --pd;
      }
    }
    return head.size();
  }

  void CollectRequires(const std::vector<size_t>& head, std::vector<std::string>* out) const {
    for (size_t k = 0; k + 1 < head.size(); ++k) {
      if (IsIdent(f, head[k]) && T(f, head[k]).text == "SG_REQUIRES" &&
          IsP(f, head[k + 1], "(")) {
        for (size_t m = k + 2; m < head.size(); ++m) {
          const Token& t = T(f, head[m]);
          if (t.kind == Tok::kPunct && t.text == ")") break;
          if (t.kind == Tok::kIdent) out->push_back(t.text);
        }
      }
    }
  }

  // Detects zero-arg accessors returning a capability reference
  // ("SeqCount& layout_seq()"), so call-chain receivers can be typed.
  void MaybeRecordAccessor(const std::vector<size_t>& head, size_t paren,
                           const std::string& name) {
    static const std::set<std::string> kCapTypes = {
        "Spinlock", "SeqCount", "UpdateLock", "SharedReadLock", "Semaphore", "Mutex"};
    if (paren + 1 < head.size() && !IsP(f, head[paren + 1], ")")) return;
    std::string ret;
    for (size_t k = 0; k + 1 < paren && k < head.size(); ++k) {
      if (IsIdent(f, head[k]) && kCapTypes.count(T(f, head[k]).text)) {
        ret = T(f, head[k]).text;
      }
    }
    if (!ret.empty() && !name.empty()) prog.accessor_types[name] = ret;
  }

  // Parameter names: the last identifier of each top-level segment of the
  // parameter list opening at head[paren], before any default argument.
  std::vector<std::string> Params(const std::vector<size_t>& head, size_t paren) const {
    std::vector<std::string> out;
    std::string last;
    bool in_default = false;
    int pd = 0;
    for (size_t k = paren + 1; k < head.size(); ++k) {
      const Token& t = T(f, head[k]);
      if (t.kind == Tok::kPunct) {
        if (t.text == "(" || t.text == "[" || t.text == "{" || t.text == "<") ++pd;
        if (t.text == ")" || t.text == "]" || t.text == "}" || t.text == ">") --pd;
        if (pd < 0 || (pd == 0 && t.text == ",")) {
          if (!last.empty() && last != "void") out.push_back(last);
          last.clear();
          in_default = false;
          if (pd < 0) break;
        } else if (pd == 0 && t.text == "=") {
          in_default = true;
        }
      } else if (t.kind == Tok::kIdent && pd == 0 && !in_default) {
        last = t.text;
      }
    }
    return out;
  }

  // A namespace-scope initializer ("Row kTable[] = { ... };") whose braces
  // hold lambdas is walked like a body, so R1 sees the calls they make.
  void RecordTable(const std::vector<size_t>& head, size_t open) {
    std::string name;
    for (size_t h : head) {
      if (IsP(f, h, "[") || IsP(f, h, "=")) break;
      if (IsIdent(f, h)) name = T(f, h).text;
    }
    const size_t close = MatchBrace(f, open);
    bool lambda = false;
    for (size_t k = open; k + 1 < close && !lambda; ++k) {
      lambda = IsP(f, k, "]") && IsP(f, k + 1, "(");
    }
    if (name.empty() || !lambda) return;
    FunctionInfo fn;
    fn.name = name;
    fn.qual = name;
    fn.file = f.path;
    fn.line = T(f, open).line;
    fn.file_idx = file_idx;
    fn.body_begin = open + 1;
    fn.body_end = close;
    fn.table = true;
    prog.funcs.push_back(std::move(fn));
  }

  void RecordFunction(const std::vector<size_t>& head, size_t& i,
                      const std::vector<std::string>& cls) {
    const size_t n = f.sig.size();
    const size_t paren = TopParenPos(head);
    std::string name, qual;
    if (paren > 0 && paren < head.size()) {
      size_t p = paren - 1;
      if (IsIdent(f, head[p])) {
        name = T(f, head[p]).text;
        if (p > 0 && IsP(f, head[p - 1], "~")) name = "~" + name;
        // Walk back "A::B::" qualifiers.
        std::vector<std::string> quals;
        size_t q = p;
        while (q >= 2 && IsP(f, head[q - 1], "::") && IsIdent(f, head[q - 2])) {
          quals.insert(quals.begin(), T(f, head[q - 2]).text);
          q -= 2;
        }
        if (!quals.empty()) {
          qual = quals.front();
          for (size_t k = 1; k < quals.size(); ++k) qual += "::" + quals[k];
          qual += "::" + name;
        } else if (!cls.empty()) {
          qual = cls.back() + "::" + name;
        } else {
          qual = name;
        }
      }
    }
    const size_t body_open = i;
    const size_t body_close = MatchBrace(f, body_open);
    if (!name.empty()) {
      FunctionInfo fn;
      fn.name = name;
      fn.qual = qual;
      fn.file = f.path;
      fn.line = head.empty() ? T(f, body_open).line : T(f, head[0]).line;
      fn.file_idx = file_idx;
      fn.body_begin = body_open + 1;
      fn.body_end = body_close;
      CollectRequires(head, &fn.requires_args);
      if (!fn.requires_args.empty()) prog.method_requires[qual] = fn.requires_args;
      if (paren < head.size()) fn.params = Params(head, paren);
      MaybeRecordAccessor(head, paren, name);
      prog.funcs.push_back(std::move(fn));
    }
    i = body_close;
    if (i < n) ++i;
  }

  // Head ended in ';'. Only class members matter: fields and method decls.
  void FinishDecl(const std::vector<size_t>& head, const std::vector<std::string>& cls,
                  bool in_class) {
    if (!in_class || head.empty() || open_classes_.empty()) return;
    const Token& first = T(f, head[0]);
    if (first.kind == Tok::kIdent &&
        (first.text == "static" || first.text == "using" || first.text == "typedef" ||
         first.text == "friend" || first.text == "template")) {
      return;
    }
    if (HeadHas(head, "operator")) return;
    const size_t paren = TopParenPos(head);
    if (paren < head.size()) {
      // Method declaration: record SG_REQUIRES and accessor typing.
      if (paren > 0 && IsIdent(f, head[paren - 1])) {
        const std::string mname = T(f, head[paren - 1]).text;
        std::vector<std::string> req;
        CollectRequires(head, &req);
        const std::string key = (cls.empty() ? mname : cls.back() + "::" + mname);
        if (!req.empty()) prog.method_requires[key] = req;
        MaybeRecordAccessor(head, paren, mname);
      }
      return;
    }
    RecordField(head, cls);
  }

  void RecordField(const std::vector<size_t>& head, const std::vector<std::string>&) {
    // Name: ident before the annotation if present, else before a top-level
    // '=', else the last ident (skipping a trailing array extent).
    size_t name_pos = head.size();
    for (size_t k = 0; k < head.size(); ++k) {
      if (IsIdent(f, head[k]) && (T(f, head[k]).text == "SG_GUARDED_BY" ||
                                  T(f, head[k]).text == "SG_PT_GUARDED_BY")) {
        if (k > 0 && IsIdent(f, head[k - 1])) name_pos = k - 1;
        break;
      }
    }
    if (name_pos == head.size()) {
      size_t end = head.size();
      for (size_t k = 0; k < head.size(); ++k) {
        if (IsP(f, head[k], "=")) {
          end = k;
          break;
        }
      }
      // Skip back over "[ extent ]".
      while (end > 0 && IsP(f, head[end - 1], "]")) {
        int bd = 0;
        size_t k = end;
        while (k > 0) {
          --k;
          if (IsP(f, head[k], "]")) ++bd;
          if (IsP(f, head[k], "[")) {
            if (--bd == 0) break;
          }
        }
        end = k;
      }
      if (end == 0) return;
      if (!IsIdent(f, head[end - 1])) return;
      name_pos = end - 1;
    }
    if (name_pos == 0 || name_pos >= head.size()) return;  // no type tokens
    const std::string name = T(f, head[name_pos]).text;
    if (kStmtKeywords.count(name) || IsMacroName(name)) return;

    FieldInfo fi;
    fi.name = name;
    fi.line = T(f, head[name_pos]).line;
    int angle = 0;
    for (size_t k = 0; k < name_pos; ++k) {
      const Token& t = T(f, head[k]);
      fi.decl += (fi.decl.empty() ? "" : " ") + t.text;
      if (t.kind == Tok::kPunct) {
        if (t.text == "<") ++angle;
        else if (t.text == ">") --angle;
        else if (t.text == ">>") angle -= 2;
        else if (t.text == "&" && angle <= 0) fi.ref = true;
      }
      if (t.kind == Tok::kIdent) {
        if (t.text == "atomic" || t.text == "atomic_flag") fi.atomic_ = true;
        if (angle <= 0 && !kCvStorage.count(t.text) && t.text != "std" &&
            !IsMacroName(t.text) && t.text != "struct" && t.text != "class") {
          fi.type_last = t.text;
        }
      }
    }
    // const object: a top-level const with no top-level pointer declarator.
    // `T* const p` (const pointer) also counts — the binding is fixed at
    // construction, same as a reference.
    bool has_const = false, has_ptr = false, ptr_const = false;
    angle = 0;
    for (size_t k = 0; k < name_pos; ++k) {
      const Token& t = T(f, head[k]);
      if (t.kind == Tok::kPunct) {
        if (t.text == "<") ++angle;
        else if (t.text == ">") --angle;
        else if (t.text == ">>") angle -= 2;
        else if (t.text == "*" && angle <= 0) has_ptr = true;
      }
      if (t.kind == Tok::kIdent && t.text == "const" && angle <= 0) {
        has_const = true;
        if (has_ptr) ptr_const = true;  // const after the star binds the pointer
      }
    }
    fi.konst = (has_const && !has_ptr) || ptr_const;
    for (size_t k = name_pos; k < head.size(); ++k) {
      if (IsIdent(f, head[k]) && (T(f, head[k]).text == "SG_GUARDED_BY" ||
                                  T(f, head[k]).text == "SG_PT_GUARDED_BY")) {
        fi.annotated = true;
      }
    }
    ClassInfo& c = prog.classes[open_classes_.back()];
    if (fi.annotated) c.has_guarded = true;
    prog.field_types.emplace(fi.name, fi.type_last);
    c.fields.push_back(std::move(fi));
  }
};

}  // namespace

void ParseStructure(Program& prog, int file_idx) {
  SourceFile& f = prog.files[file_idx];
  StructureScanner s{prog, file_idx, f, {}};
  size_t i = 0;
  std::vector<std::string> cls;
  s.ScanScope(i, cls, /*in_class=*/false);
}

// ---------------------------------------------------------------------------
// Pass 2: body walking.
// ---------------------------------------------------------------------------

namespace {

struct ActiveCtx {
  unsigned kind;
  std::string key;  // receiver name for explicit pairs; "" for RAII guards
  int line;
  std::string desc;
  bool open = true;
};

struct ScopeFrame {
  std::string lambda_of;  // the call this brace opens an argument of, if any
  std::vector<ActiveCtx> ctxs;
  std::map<std::string, std::string> locals;   // name -> type_last
  std::set<std::string> tracked;               // epoch-derived pointers (R2)
};

struct BodyWalker {
  Program& prog;
  SourceFile& f;
  FunctionInfo& fn;
  std::vector<ScopeFrame> sc;
  // Calls whose argument lists are open: callee and the closing ')'.
  std::vector<std::pair<std::string, size_t>> open_args;

  unsigned CurMask() const {
    unsigned m = 0;
    for (const ScopeFrame& s : sc) {
      for (const ActiveCtx& c : s.ctxs) {
        if (c.open) m |= c.kind;
      }
    }
    return m;
  }

  const ActiveCtx* InnermostOpen() const {
    for (auto s = sc.rbegin(); s != sc.rend(); ++s) {
      for (auto c = s->ctxs.rbegin(); c != s->ctxs.rend(); ++c) {
        if (c->open) return &*c;
      }
    }
    return nullptr;
  }

  std::string CtxDesc() const {
    const ActiveCtx* c = InnermostOpen();
    return c == nullptr ? "no-sleep section" : c->desc;
  }

  std::string LambdaOf() const {
    for (auto s = sc.rbegin(); s != sc.rend(); ++s) {
      if (!s->lambda_of.empty()) return s->lambda_of;
    }
    return fn.table ? fn.name : "";
  }

  CallSite Site(const std::string& callee, int line) const {
    return CallSite{callee, line, CurMask(), CtxDesc(), LambdaOf(), {}};
  }

  int EpochScope() const {
    for (size_t s = 0; s < sc.size(); ++s) {
      for (const ActiveCtx& c : sc[s].ctxs) {
        if (c.open && c.kind == kCtxEpoch) return static_cast<int>(s);
      }
    }
    return -1;
  }

  bool IsTracked(const std::string& name) const {
    for (const ScopeFrame& s : sc) {
      if (s.tracked.count(name)) return true;
    }
    return false;
  }

  bool DeclaredUnderEpoch(const std::string& name) const {
    const int es = EpochScope();
    if (es < 0) return false;
    for (size_t s = static_cast<size_t>(es); s < sc.size(); ++s) {
      if (sc[s].locals.count(name)) return true;
    }
    return false;
  }

  std::string TypeOf(const std::string& name) const {
    for (auto s = sc.rbegin(); s != sc.rend(); ++s) {
      auto it = s->locals.find(name);
      if (it != s->locals.end()) return it->second;
    }
    return "";
  }

  bool NameHasType(const std::string& name, const char* type) const {
    const std::string local = TypeOf(name);
    if (!local.empty()) return local == type;
    auto [lo, hi] = prog.field_types.equal_range(name);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == type) return true;
    }
    return false;
  }

  void OpenCtx(unsigned kind, const std::string& key, int line, std::string desc) {
    sc.back().ctxs.push_back(ActiveCtx{kind, key, line, std::move(desc), true});
  }

  void CloseCtx(unsigned kind, const std::string& key) {
    for (auto s = sc.rbegin(); s != sc.rend(); ++s) {
      for (auto c = s->ctxs.rbegin(); c != s->ctxs.rend(); ++c) {
        if (c->open && c->kind == kind && c->key == key) {
          c->open = false;
          return;
        }
      }
    }
  }

  void Lexical(const char* rule, int line, std::string msg) {
    prog.lexical.push_back(Diag{f.path, line, rule, std::move(msg)});
  }

  // Receiver name/type for a ".method(" / "->method(" call at sig index `j`
  // (j points at the method ident, j-1 at the access punct).
  void Receiver(size_t j, std::string* name, std::string* type) {
    name->clear();
    type->clear();
    if (j < 2) return;
    if (IsIdent(f, j - 2)) {
      *name = T(f, j - 2).text;
      *type = TypeOf(*name);
      if (type->empty()) {
        auto [lo, hi] = prog.field_types.equal_range(*name);
        std::set<std::string> types;
        for (auto it = lo; it != hi; ++it) types.insert(it->second);
        if (types.size() == 1) *type = *types.begin();
        // ambiguous field names: resolve lazily via NameHasType at use site
      }
      return;
    }
    if (IsP(f, j - 2, ")")) {
      // Accessor chain: "...->lock().Method(": find the accessor name.
      int pd = 0;
      size_t k = j - 2;
      while (k > 0) {
        if (IsP(f, k, ")")) ++pd;
        if (IsP(f, k, "(")) {
          if (--pd == 0) break;
        }
        --k;
      }
      if (k > 0 && IsIdent(f, k - 1)) {
        *name = T(f, k - 1).text + "()";
        auto it = prog.accessor_types.find(T(f, k - 1).text);
        if (it != prog.accessor_types.end()) *type = it->second;
      }
    }
  }

  bool RecvIs(const std::string& rname, const std::string& rtype, const char* want) {
    if (rtype == want) return true;
    if (!rtype.empty()) return false;
    return !rname.empty() && rname.back() != ')' && NameHasType(rname, want);
  }

  // Attempts a declaration at sig index j. On success registers the local,
  // applies guard/tracking side effects, sets *next to the token after the
  // declarator name, and returns true.
  bool TryDecl(size_t j, size_t end, size_t* next) {
    size_t k = j;
    while (k < end && IsIdent(f, k) && kCvStorage.count(T(f, k).text)) ++k;
    if (k >= end || !IsIdent(f, k)) return false;
    std::string type_last;
    if (T(f, k).text == "auto") {
      type_last = "auto";
      ++k;
    } else {
      for (;;) {
        if (k >= end || !IsIdent(f, k)) return false;
        const std::string& id = T(f, k).text;
        if (kStmtKeywords.count(id)) return false;
        if (id != "std" && !kCvStorage.count(id)) type_last = id;
        ++k;
        if (k < end && IsP(f, k, "<")) {
          const size_t after = SkipAngles(f, k);
          if (after == k) return false;  // comparison, not template args
          k = after;
        }
        if (k < end && IsP(f, k, "::")) {
          ++k;
          continue;
        }
        break;
      }
    }
    bool saw_ptr = false;
    while (k < end && (IsP(f, k, "*") || IsP(f, k, "&") || IsP(f, k, "&&") ||
                       (IsIdent(f, k) && kCvStorage.count(T(f, k).text)))) {
      if (IsP(f, k, "*")) saw_ptr = true;
      ++k;
    }
    if (k >= end || !IsIdent(f, k)) return false;
    const std::string name = T(f, k).text;
    if (kStmtKeywords.count(name) || IsMacroName(name)) return false;
    const size_t after = k + 1;
    if (after < end) {
      const Token& t = T(f, after);
      if (!(t.kind == Tok::kPunct &&
            (t.text == "=" || t.text == "(" || t.text == "{" || t.text == ";" ||
             t.text == "," || t.text == ":" || t.text == ")" || t.text == "["))) {
        return false;
      }
    }
    sc.back().locals[name] = type_last;
    const int line = T(f, k).line;
    if (unsigned kind = GuardCtxKind(type_last); kind != 0) {
      OpenCtx(kind, "", line,
              std::string(CtxName(kind)) + " (" + type_last + " '" + name +
                  "' at line " + std::to_string(line) + ")");
    }
    // Sleeping RAII guards: their constructors block, which a call-site scan
    // would miss. Record a synthetic call so R1 sees the acquisition.
    if (type_last == "UpdateGuard" || type_last == "MutexGuard" ||
        type_last == "lock_guard" || type_last == "unique_lock" ||
        type_last == "scoped_lock") {
      const char* via = type_last == "UpdateGuard" ? "AcquireUpdate" : "MutexLock";
      fn.calls.push_back(Site(via, line));
    }
    if (EpochScope() >= 0 && saw_ptr &&
        (type_last == "LayoutSnapshot" || type_last == "Pregion")) {
      sc.back().tracked.insert(name);
    }
    *next = after;
    return true;
  }

  // Statement-level escape peeks (R2): return-of-tracked and
  // assignment-of-tracked-to-non-local. Pure lookahead; consumes nothing.
  void PeekEscapes(size_t j, size_t end) {
    if (EpochScope() < 0) return;
    // Collect the statement's tokens up to ';' / '{' / '}' at depth 0.
    int pd = 0;
    size_t stop = j;
    size_t eq = 0;
    bool has_eq = false;
    for (size_t k = j; k < end; ++k) {
      const Token& t = T(f, k);
      if (t.kind == Tok::kPunct) {
        if (t.text == "(" || t.text == "[") ++pd;
        else if (t.text == ")" || t.text == "]") --pd;
        else if (pd <= 0 && (t.text == ";" || t.text == "{" || t.text == "}")) {
          stop = k;
          break;
        } else if (pd <= 0 && t.text == "=" && !has_eq) {
          has_eq = true;
          eq = k;
        }
      }
      stop = k + 1;
    }
    const bool is_return = IsIdent(f, j, "return");
    if (is_return) {
      for (size_t k = j + 1; k < stop; ++k) {
        // A mention that is immediately dereferenced (pr->va), compared
        // (pr != nullptr), or tested (pr ? ... : ...) passes a VALUE out,
        // not the pointer; only a bare mention can escape.
        if (k + 1 < stop && (IsP(f, k + 1, "->") || IsP(f, k + 1, ".") ||
                             IsP(f, k + 1, "==") || IsP(f, k + 1, "!=") ||
                             IsP(f, k + 1, "?"))) {
          continue;
        }
        if (IsIdent(f, k) && IsTracked(T(f, k).text)) {
          Lexical("guard-escape", T(f, j).line,
                  "returning '" + T(f, k).text +
                      "', a snapshot-derived pointer, past the end of its "
                      "epoch-pinned section — the graveyard may free it as soon "
                      "as the guard drops");
          return;
        }
      }
      return;
    }
    if (!has_eq) return;
    // RHS mentions a tracked pointer?
    std::string rhs_tracked;
    for (size_t k = eq + 1; k < stop; ++k) {
      if (IsIdent(f, k) && IsTracked(T(f, k).text)) {
        rhs_tracked = T(f, k).text;
        break;
      }
    }
    if (rhs_tracked.empty()) return;
    // A declaration statement ("Pregion* pr = snap->Find(va);") registers a
    // new local that lives inside the pin — TryDecl tracks it — so it is not
    // an escape. Distinguish it from a member store ("obj->field = pr;") by
    // the absence of access punctuation: two-plus bare identifiers before the
    // '=' with no './->' is a decl. A `static` local, though, outlives every
    // pin and IS an escape.
    bool is_static = false;
    bool has_access = false;
    size_t nident = 0;
    std::string last_ident;
    {
      int dpd = 0;
      for (size_t k = j; k < eq; ++k) {
        if (IsP(f, k, "(") || IsP(f, k, "[")) ++dpd;
        else if (IsP(f, k, ")") || IsP(f, k, "]")) --dpd;
        else if (dpd <= 0 && (IsP(f, k, ".") || IsP(f, k, "->"))) has_access = true;
        else if (dpd <= 0 && IsIdent(f, k)) {
          const std::string& id = T(f, k).text;
          if (id == "static") is_static = true;
          else if (id != "std" && !kCvStorage.count(id)) {
            ++nident;
            last_ident = id;
          }
        }
      }
    }
    std::string base;
    if (!has_access && nident >= 2) {
      if (!is_static) return;  // scope-local declaration, dies with the pin
      base = last_ident;       // static local: outlives the section
    } else {
      // LHS base identifier: skip leading '*' / '(' noise.
      size_t k = j;
      while (k < eq && (IsP(f, k, "*") || IsP(f, k, "("))) ++k;
      if (k >= eq || !IsIdent(f, k)) return;
      base = T(f, k).text;
    }
    if (IsTracked(base) || DeclaredUnderEpoch(base)) return;  // local shuffle
    Lexical("guard-escape", T(f, j).line,
            "storing '" + rhs_tracked +
                "', a snapshot-derived pointer, into '" + base +
                "' which outlives the epoch-pinned section");
  }

  void Walk() {
    const size_t end = fn.body_end;
    // SG_REQUIRES(spinlock) on the declaration or definition: the whole
    // body runs with the caller's spinlock held.
    std::vector<std::string> req = fn.requires_args;
    if (req.empty()) {
      auto it = prog.method_requires.find(fn.qual);
      if (it != prog.method_requires.end()) req = it->second;
    }
    // Resolve each required capability against the enclosing class's own
    // fields first — `lock_` names a Spinlock in one class and an
    // UpdateLock in another, and only the former is a no-sleep context.
    std::string cls_name = fn.qual;
    const size_t cut = cls_name.rfind("::");
    cls_name = cut == std::string::npos ? "" : cls_name.substr(0, cut);
    const size_t cut2 = cls_name.rfind("::");
    if (cut2 != std::string::npos) cls_name = cls_name.substr(cut2 + 2);
    for (const std::string& a : req) {
      std::string ty;
      bool in_class = false;
      for (const ClassInfo& c : prog.classes) {
        if (c.name != cls_name) continue;
        for (const FieldInfo& fi2 : c.fields) {
          if (fi2.name == a) {
            ty = fi2.type_last;
            in_class = true;
            break;
          }
        }
        if (in_class) break;
      }
      const bool spin = in_class ? ty == "Spinlock" : NameHasType(a, "Spinlock");
      if (spin) {
        OpenCtx(kCtxSpin, a, fn.line,
                "spinlock-held section (SG_REQUIRES(" + a + ") on " + fn.name + ")");
      }
    }

    bool stmt_start = true;
    for (size_t j = fn.body_begin; j < end;) {
      while (!open_args.empty() && j > open_args.back().second) open_args.pop_back();
      const Token& t = T(f, j);
      if (t.kind == Tok::kPunct) {
        if (t.text == "{") {
          sc.push_back(ScopeFrame{});
          if (!open_args.empty()) sc.back().lambda_of = open_args.back().first;
          stmt_start = true;
          ++j;
          continue;
        }
        if (t.text == "}") {
          if (sc.size() > 1) sc.pop_back();
          stmt_start = true;
          ++j;
          continue;
        }
        if (t.text == ";") {
          stmt_start = true;
          ++j;
          continue;
        }
      }
      const bool decl_pos = stmt_start || (j > fn.body_begin && IsP(f, j - 1, "("));
      if (stmt_start) PeekEscapes(j, end);
      if (decl_pos && IsIdent(f, j) && !kStmtKeywords.count(T(f, j).text)) {
        size_t next = 0;
        if (TryDecl(j, end, &next)) {
          stmt_start = false;
          j = next;
          continue;
        }
      }
      if (IsIdent(f, j) && j + 1 < end && IsP(f, j + 1, "(")) {
        HandleCall(j);
      }
      stmt_start = false;
      ++j;
    }
  }

  void HandleCall(size_t j) {
    const std::string& callee = T(f, j).text;
    if (kStmtKeywords.count(callee) || IsMacroName(callee)) return;
    const int line = T(f, j).line;
    const bool member = j > 0 && (IsP(f, j - 1, ".") || IsP(f, j - 1, "->"));
    // The argument list, and its arguments that are one identifier.
    std::vector<std::string> args;
    size_t close = j + 1;
    for (int pd = 0; close < fn.body_end; ++close) {
      if (IsP(f, close, "(") || IsP(f, close, "[") || IsP(f, close, "{")) ++pd;
      if (IsP(f, close, ")") || IsP(f, close, "]") || IsP(f, close, "}")) {
        if (--pd == 0) break;
      }
      if (pd == 1 && IsIdent(f, close) && (IsP(f, close - 1, "(") || IsP(f, close - 1, ",")) &&
          (IsP(f, close + 1, ")") || IsP(f, close + 1, ","))) {
        args.push_back(T(f, close).text);
      }
    }
    open_args.emplace_back(callee, close);
    std::string rname, rtype;
    if (member) Receiver(j, &rname, &rtype);

    // R3: unbracketed mutation of the published-layout backing lists.
    static const std::set<std::string> kMutators = {
        "push_back", "emplace_back", "erase",  "clear",
        "insert",    "pop_back",     "resize", "assign", "swap"};
    auto bracket_check = [&](const std::string& what) {
      if ((CurMask() & kCtxSeqWrite) == 0) {
        Lexical("seqcount-bracket", line,
                "mutation of '" + what +
                    "' outside a layout seqcount write section — lockless "
                    "readers cannot detect it (open a SeqWriter around the "
                    "mutation + republish)");
      }
    };
    if (member && kMutators.count(callee) && j >= 2 && IsIdent(f, j - 2) &&
        (T(f, j - 2).text == "pregions_" || T(f, j - 2).text == "member_tlbs_")) {
      // Exact receiver: the token before it must not extend the chain.
      const bool chained = j >= 3 && (IsP(f, j - 3, ".") || IsP(f, j - 3, "->") ||
                                      IsIdent(f, j - 3));
      if (!chained) bracket_check(T(f, j - 2).text);
    }
    if (callee == "erase" && !member && j >= 2 && IsP(f, j - 1, "::") &&
        IsIdent(f, j - 2, "std")) {
      if (j + 2 < fn.body_end && IsIdent(f, j + 2) &&
          (T(f, j + 2).text == "pregions_" || T(f, j + 2).text == "member_tlbs_")) {
        bracket_check(T(f, j + 2).text);
      }
    }
    if (callee == "Republish") bracket_check("the published layout (Republish)");

    // R2: storing a tracked pointer through a member/container call.
    static const std::set<std::string> kStores = {"push_back", "emplace_back",
                                                  "insert", "assign", "store"};
    if (member && EpochScope() >= 0 && kStores.count(callee) && !rname.empty() &&
        !DeclaredUnderEpoch(rname)) {
      int pd = 0;
      for (size_t k = j + 1; k < fn.body_end; ++k) {
        if (IsP(f, k, "(")) ++pd;
        if (IsP(f, k, ")")) {
          if (--pd == 0) break;
        }
        if (IsIdent(f, k) && IsTracked(T(f, k).text)) {
          Lexical("guard-escape", line,
                  "storing '" + T(f, k).text +
                      "', a snapshot-derived pointer, into '" + rname +
                      "' which outlives the epoch-pinned section");
          break;
        }
      }
    }

    // Context transitions on explicit acquire/release pairs.
    if (member) {
      if (callee == "Lock" && RecvIs(rname, rtype, "Spinlock")) {
        fn.calls.push_back(Site(callee, line));
        OpenCtx(kCtxSpin, rname, line,
                "spinlock-held section ('" + rname + "'.Lock() at line " +
                    std::to_string(line) + ")");
        return;
      }
      if (callee == "Unlock" && RecvIs(rname, rtype, "Spinlock")) {
        CloseCtx(kCtxSpin, rname);
        fn.calls.push_back(Site(callee, line));
        return;
      }
      if (callee == "WriteBegin" && RecvIs(rname, rtype, "SeqCount")) {
        fn.calls.push_back(Site(callee, line));
        OpenCtx(kCtxSeqWrite, rname, line,
                "seqcount write section ('" + rname + "'.WriteBegin() at line " +
                    std::to_string(line) + ")");
        return;
      }
      if (callee == "WriteEnd" && RecvIs(rname, rtype, "SeqCount")) {
        CloseCtx(kCtxSeqWrite, rname);
        fn.calls.push_back(Site(callee, line));
        return;
      }
      if (callee == "TryReadBegin" && RecvIs(rname, rtype, "SeqCount")) {
        fn.calls.push_back(Site(callee, line));
        OpenCtx(kCtxSeqRead, rname, line,
                "seqcount read window ('" + rname + "'.TryReadBegin() at line " +
                    std::to_string(line) + ")");
        return;
      }
      if (callee == "ReadValidate" && RecvIs(rname, rtype, "SeqCount")) {
        CloseCtx(kCtxSeqRead, rname);
        fn.calls.push_back(Site(callee, line));
        return;
      }
    }
    fn.calls.push_back(Site(callee, line));
    fn.calls.back().args = std::move(args);
  }
};

}  // namespace

void WalkBodies(Program& prog, int file_idx) {
  for (FunctionInfo& fn : prog.funcs) {
    if (fn.file_idx != file_idx || fn.body_begin >= fn.body_end) continue;
    BodyWalker w{prog, prog.files[file_idx], fn, {}, {}};
    w.sc.push_back(ScopeFrame{});
    w.Walk();
  }
}

// ---------------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------------

void CollectAllows(SourceFile& f, const std::set<std::string>& known_rules,
                   std::vector<Diag>& out) {
  for (size_t ti = 0; ti < f.toks.size(); ++ti) {
    const Token& t = f.toks[ti];
    if (t.kind != Tok::kComment) continue;
    const size_t at = t.text.find("sgcheck:allow(");
    if (at == std::string::npos) continue;
    const size_t open = at + std::string("sgcheck:allow").size();
    const size_t close = t.text.find(')', open);
    if (close == std::string::npos) {
      out.push_back(Diag{f.path, t.line, "suppression",
                         "malformed sgcheck:allow — missing ')'"});
      continue;
    }
    // Parse the rule list.
    std::vector<std::string> rules;
    std::string cur;
    for (size_t k = open + 1; k < close; ++k) {
      const char c = t.text[k];
      if (c == ',' || std::isspace(static_cast<unsigned char>(c))) {
        if (!cur.empty()) rules.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    if (!cur.empty()) rules.push_back(cur);
    if (rules.empty()) {
      out.push_back(Diag{f.path, t.line, "suppression",
                         "sgcheck:allow() names no rule"});
      continue;
    }
    bool ok = true;
    for (const std::string& r : rules) {
      if (!known_rules.count(r)) {
        out.push_back(Diag{f.path, t.line, "suppression",
                           "sgcheck:allow names unknown rule '" + r + "'"});
        ok = false;
      }
    }
    // Mandatory reason: "): <why>".
    size_t p = close + 1;
    while (p < t.text.size() && std::isspace(static_cast<unsigned char>(t.text[p]))) ++p;
    std::string reason;
    if (p < t.text.size() && t.text[p] == ':') {
      reason = t.text.substr(p + 1);
      // Trim and drop block-comment terminators.
      const size_t endc = reason.find("*/");
      if (endc != std::string::npos) reason = reason.substr(0, endc);
      while (!reason.empty() && std::isspace(static_cast<unsigned char>(reason.front())))
        reason.erase(reason.begin());
      while (!reason.empty() && std::isspace(static_cast<unsigned char>(reason.back())))
        reason.pop_back();
    }
    if (reason.size() < 3) {
      out.push_back(Diag{f.path, t.line, "suppression",
                         "sgcheck:allow(" + rules[0] +
                             ") has no reason — write "
                             "'// sgcheck:allow(<rule>): <why this is safe>'"});
      ok = false;
    }
    if (!ok) continue;
    // Trailing comment suppresses its own line; a standalone comment
    // suppresses the next code line.
    int target = t.line;
    bool standalone = true;
    if (ti > 0 && f.toks[ti - 1].kind != Tok::kComment && f.toks[ti - 1].line == t.line) {
      standalone = false;
    }
    if (standalone) {
      for (size_t k = ti + 1; k < f.toks.size(); ++k) {
        if (f.toks[k].kind == Tok::kComment) continue;
        target = f.toks[k].line;
        break;
      }
    }
    for (const std::string& r : rules) {
      f.allows[target].insert(r);
      f.allows[t.line].insert(r);  // the comment's own line too
    }
  }
}

}  // namespace sgcheck
