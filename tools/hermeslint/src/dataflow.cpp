#include "hermes/lint/dataflow.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hermes::lint {

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool contains_ci(std::string_view hay, std::string_view needle) {
  if (needle.empty() || hay.size() < needle.size()) return false;
  const auto lower = [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  };
  for (std::size_t i = 0; i + needle.size() <= hay.size(); ++i) {
    bool hit = true;
    for (std::size_t j = 0; j < needle.size(); ++j) {
      if (lower(hay[i + j]) != lower(needle[j])) {
        hit = false;
        break;
      }
    }
    if (hit) return true;
  }
  return false;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0)
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0)
    s.remove_suffix(1);
  return s;
}

/// All identifiers in a text fragment, in order.
std::vector<std::string> idents_in(std::string_view text) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < text.size();) {
    if (is_ident_char(text[i]) && std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      std::size_t e = i;
      while (e < text.size() && is_ident_char(text[e])) ++e;
      out.emplace_back(text.substr(i, e - i));
      i = e;
    } else {
      ++i;
    }
  }
  return out;
}

bool is_cxx_noise(std::string_view id) {
  static constexpr std::string_view kNoise[] = {
      "static_cast", "const_cast", "reinterpret_cast", "std",   "size_t", "uint32_t",
      "uint64_t",    "int32_t",    "int64_t",          "int",   "auto",   "const",
      "unsigned",    "size_type",  "ptrdiff_t",        "this",  "true",   "false",
      "nullptr",     "if",         "for",              "while", "return", "sizeof",
  };
  return std::find(std::begin(kNoise), std::end(kNoise), id) != std::end(kNoise);
}

// ---------------------------------------------------------------- extraction

/// Decides whether a '{' after `text` opens a statement block (function,
/// control construct, class, namespace) or a brace-initializer that must
/// stay part of the statement (`arena_{arena}`, `Mail{...}`, `= {1, 2}`).
bool brace_opens_block(std::string_view text) {
  text = trim(text);
  if (text.empty()) return true;  // bare scope / body after a flushed header
  const char prev = text.back();
  if (prev == ')' || prev == ']') return true;  // `f(...) {`, lambda `[&] {`
  if (prev == '}') return true;  // ctor body after a consumed `member_{init}` list
  if (prev == ':') return true;  // `case X: {`, `default: {`
  if (is_ident_char(prev)) {
    const std::vector<std::string> toks = idents_in(text);
    static constexpr std::string_view kBlockFirst[] = {"class", "struct", "enum", "union",
                                                       "namespace"};
    for (const std::string_view k : kBlockFirst) {
      if (toks.front() == k) return true;
    }
    if (toks.front() == "template") {
      for (const std::string& t : toks) {
        if (t == "class" || t == "struct") return true;
      }
    }
    // Trailing specifiers that precede a body brace directly.
    static constexpr std::string_view kBlockTail[] = {"else",  "do",    "try",    "override",
                                                      "final", "const", "noexcept", "mutable"};
    for (const std::string_view k : kBlockTail) {
      if (toks.back() == k) return true;
    }
    return false;  // `Type{...}` / `member_{...}` brace-init
  }
  return false;  // `= {`, `, {`, `& {` ... initializer contexts
}

struct Parser {
  const std::vector<Line>& lines;
  std::size_t li = 0;   ///< current line
  std::size_t ci = 0;   ///< current column in lines[li].code

  explicit Parser(const std::vector<Line>& l) : lines{l} {}

  bool eof() const { return li >= lines.size(); }

  char peek() const { return lines[li].code[ci]; }

  void advance() {
    ++ci;
    while (li < lines.size() && ci >= lines[li].code.size()) {
      ++li;
      ci = 0;
    }
  }

  void normalize() {
    while (li < lines.size() && ci >= lines[li].code.size()) {
      ++li;
      ci = 0;
    }
  }

  /// Appends a balanced {...} group (cursor at '{') verbatim to `text`:
  /// brace-initializers are statement text, not nested blocks, and the
  /// semicolons inside them must not split the statement.
  void consume_braced(std::string& text) {
    int depth = 0;
    while (!eof()) {
      const char c = peek();
      text.push_back(c == '\t' ? ' ' : c);
      if (c == '{') ++depth;
      if (c == '}' && --depth == 0) {
        advance();
        return;
      }
      advance();
    }
  }

  /// Parses the statements of a brace block, cursor just past '{'.
  std::vector<Stmt> parse_block() {
    std::vector<Stmt> out;
    std::string text;
    int text_line = -1;
    int paren = 0;
    auto flush_plain = [&] {
      const std::string_view t = trim(text);
      if (!t.empty()) out.push_back(Stmt{text_line < 0 ? static_cast<int>(li) : text_line,
                                         std::string(t), false, {}});
      text.clear();
      text_line = -1;
    };
    normalize();
    while (!eof()) {
      const char c = peek();
      if (paren == 0 && c == '{') {
        if (!brace_opens_block(text)) {
          if (text_line < 0) text_line = static_cast<int>(li);
          consume_braced(text);
          continue;
        }
        const int head_line = text_line < 0 ? static_cast<int>(li) : text_line;
        const std::string head{trim(text)};
        text.clear();
        text_line = -1;
        advance();
        std::vector<Stmt> kids = parse_block();
        out.push_back(Stmt{head_line, head, true, std::move(kids)});
        continue;
      }
      if (paren == 0 && c == '}') {
        flush_plain();
        advance();
        return out;
      }
      if (c == '(') ++paren;
      if (c == ')' && paren > 0) --paren;
      if (paren == 0 && c == ';') {
        text.push_back(';');
        if (text_line < 0) text_line = static_cast<int>(li);
        flush_plain();
        advance();
        continue;
      }
      if (text_line < 0 && !std::isspace(static_cast<unsigned char>(c))) {
        text_line = static_cast<int>(li);
      }
      text.push_back(c == '\t' ? ' ' : c);
      advance();
    }
    flush_plain();
    return out;
  }
};

/// True when the block header reads like a function declarator rather
/// than a control construct, class, namespace, or initializer list.
bool header_is_function(std::string_view head, std::string* name, std::string* params) {
  head = trim(head);
  if (head.empty()) return false;
  // Strip a constructor's member-init list: a top-level ':' (not '::')
  // after the parameter list ends the declarator proper.
  {
    int paren = 0;
    for (std::size_t i = 0; i < head.size(); ++i) {
      const char c = head[i];
      if (c == '(') ++paren;
      if (c == ')' && paren > 0) --paren;
      if (c == ':' && paren == 0) {
        const bool scope = (i + 1 < head.size() && head[i + 1] == ':') || (i > 0 && head[i - 1] == ':');
        if (!scope) {
          head = trim(head.substr(0, i));
          break;
        }
        if (i + 1 < head.size() && head[i + 1] == ':') ++i;  // skip '::'
      }
    }
  }
  if (head.empty()) return false;
  // Reject headers whose *first* token is a non-function keyword.
  const std::vector<std::string> toks = idents_in(head);
  if (toks.empty()) return false;
  static constexpr std::string_view kNotFn[] = {
      "if", "else", "for", "while", "switch", "do", "try", "catch", "namespace",
      "class", "struct", "enum", "union",
  };
  for (const std::string_view k : kNotFn) {
    if (toks.front() == k) return false;
  }
  // `= {` initializers and `return {...}` are not functions.
  if (head.back() == '=' || head.back() == ',' || head.back() == '(') return false;
  // Find the last balanced (...) group; the identifier before it is the name.
  if (head.back() != ')') {
    // Allow trailing specifiers: `) const`, `) noexcept`, `) override`, `) -> T`.
    const std::size_t close = head.rfind(')');
    if (close == std::string_view::npos) return false;
    const std::string_view tail = trim(head.substr(close + 1));
    for (const std::string& t : idents_in(tail)) {
      if (t != "const" && t != "noexcept" && t != "override" && t != "final" && t != "try") {
        // Trailing return types `-> T` are fine; anything else is not a fn.
        if (tail.find("->") == std::string_view::npos) return false;
        break;
      }
    }
    head = head.substr(0, close + 1);
  }
  int depth = 0;
  std::size_t open = std::string_view::npos;
  for (std::size_t p = head.size(); p > 0;) {
    --p;
    if (head[p] == ')') ++depth;
    if (head[p] == '(') {
      if (--depth == 0) {
        open = p;
        break;
      }
    }
  }
  if (open == std::string_view::npos || open == 0) return false;
  std::size_t e = open;
  while (e > 0 && std::isspace(static_cast<unsigned char>(head[e - 1])) != 0) --e;
  std::size_t b = e;
  while (b > 0 && is_ident_char(head[b - 1])) --b;
  if (b == e) {
    // Lambdas: `[...](params)`; treat as a function named "<lambda>".
    if (e > 0 && head[e - 1] == ']') {
      *name = "<lambda>";
      *params = std::string(head.substr(open + 1, head.size() - open - 2));
      return true;
    }
    return false;
  }
  const std::string_view id = head.substr(b, e - b);
  static constexpr std::string_view kNotName[] = {"return", "co_return", "co_await", "sizeof",
                                                  "alignof", "decltype", "delete", "new"};
  for (const std::string_view k : kNotName) {
    if (id == k) return false;
  }
  // `Type name(args)` needs something before the name (return type) OR a
  // qualified name (Class::name) OR ctor/dtor-ish shapes; a bare
  // `name(...)` with nothing before it is a call used as a statement.
  const std::string_view before = trim(head.substr(0, b));
  if (before.empty()) return false;
  if (before.back() == '.' || before.back() == ',' || before.back() == '(' ||
      before.back() == '=' || before.back() == '+' || before.back() == '-' ||
      before.back() == '<' || before.back() == '!') {
    return false;
  }
  *name = std::string(id);
  *params = std::string(head.substr(open + 1, head.size() - open - 2));
  return true;
}

void harvest_functions(const std::vector<Stmt>& block, std::vector<Function>& out) {
  for (const Stmt& s : block) {
    if (!s.is_block) continue;
    std::string name;
    std::string params;
    if (header_is_function(s.text, &name, &params)) {
      Function fn;
      fn.name = std::move(name);
      fn.params = std::move(params);
      fn.open_line0 = s.line0;
      int last = s.line0;
      // The close line is approximated by the deepest child line.
      std::vector<const Stmt*> stack{&s};
      while (!stack.empty()) {
        const Stmt* t = stack.back();
        stack.pop_back();
        last = std::max(last, t->line0);
        for (const Stmt& k : t->children) stack.push_back(&k);
      }
      fn.close_line0 = last;
      fn.body = s.children;
      out.push_back(std::move(fn));
    } else {
      harvest_functions(s.children, out);  // classes, namespaces, control blocks
    }
  }
}

/// Visits every statement of a tree in order (block headers included).
template <typename F>
void walk(const std::vector<Stmt>& block, F&& f) {
  for (const Stmt& s : block) {
    f(s);
    if (s.is_block) walk(s.children, f);
  }
}

/// Splits `for (init; cond; step)` headers; returns true + pieces.
bool split_for_header(std::string_view head, std::string_view* init, std::string_view* cond) {
  head = trim(head);
  if (head.rfind("for", 0) != 0) return false;
  const std::size_t open = head.find('(');
  if (open == std::string_view::npos || head.back() != ')') return false;
  const std::string_view inner = head.substr(open + 1, head.size() - open - 2);
  const std::size_t semi1 = inner.find(';');
  if (semi1 == std::string_view::npos) return false;  // range-for
  const std::size_t semi2 = inner.find(';', semi1 + 1);
  *init = inner.substr(0, semi1);
  *cond = semi2 == std::string_view::npos ? inner.substr(semi1 + 1)
                                          : inner.substr(semi1 + 1, semi2 - semi1 - 1);
  return true;
}

/// The assignment in `text`, if any: writes LHS identifier and RHS text.
/// Matches `X = rhs` and `type X = rhs` but not ==, <=, >=, !=, +=, etc.
bool split_assignment(std::string_view text, std::string* lhs, std::string* rhs) {
  int paren = 0;
  int angle = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(') ++paren;
    if (c == ')') --paren;
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (c != '=' || paren != 0) continue;
    if (i + 1 < text.size() && text[i + 1] == '=') return false;
    if (i > 0 && (text[i - 1] == '=' || text[i - 1] == '!' || text[i - 1] == '<' ||
                  text[i - 1] == '>' || text[i - 1] == '+' || text[i - 1] == '-' ||
                  text[i - 1] == '*' || text[i - 1] == '/' || text[i - 1] == '|' ||
                  text[i - 1] == '&' || text[i - 1] == '^')) {
      return false;
    }
    std::size_t e = i;
    while (e > 0 && std::isspace(static_cast<unsigned char>(text[e - 1])) != 0) --e;
    std::size_t b = e;
    while (b > 0 && is_ident_char(text[b - 1])) --b;
    if (b == e) return false;
    *lhs = std::string(text.substr(b, e - b));
    *rhs = std::string(trim(text.substr(i + 1)));
    return true;
  }
  return false;
}

std::map<std::string, std::string> collect_defs(const Function& fn) {
  std::map<std::string, std::string> defs;
  walk(fn.body, [&](const Stmt& s) {
    std::string_view init;
    std::string_view cond;
    if (s.is_block && split_for_header(s.text, &init, &cond)) {
      std::string lhs;
      std::string rhs;
      if (split_assignment(init, &lhs, &rhs)) {
        defs[lhs] += rhs;
        defs[lhs] += ' ';
        // The induction variable is bounded by the loop condition: its
        // reachable values derive from the bound expression.
        defs[lhs] += cond;
        defs[lhs] += ' ';
      }
      return;
    }
    std::string lhs;
    std::string rhs;
    if (split_assignment(s.text, &lhs, &rhs)) {
      defs[lhs] += rhs;
      defs[lhs] += ' ';
    }
  });
  return defs;
}

/// Declared floating-point locals (`double x`, `float y`) incl. params.
std::set<std::string> float_vars(const Function& fn) {
  std::set<std::string> out;
  const auto scan = [&](std::string_view text) {
    for (const std::string_view ty : {std::string_view{"double"}, std::string_view{"float"}}) {
      for (std::size_t pos = text.find(ty); pos != std::string_view::npos;
           pos = text.find(ty, pos + 1)) {
        if (pos > 0 && is_ident_char(text[pos - 1])) continue;
        std::size_t p = pos + ty.size();
        if (p < text.size() && is_ident_char(text[p])) continue;
        while (p < text.size() && (std::isspace(static_cast<unsigned char>(text[p])) != 0 ||
                                   text[p] == '&' || text[p] == '*')) {
          ++p;
        }
        std::size_t e = p;
        while (e < text.size() && is_ident_char(text[e])) ++e;
        if (e > p) out.emplace(text.substr(p, e - p));
      }
    }
  };
  scan(fn.params);
  walk(fn.body, [&](const Stmt& s) { scan(s.text); });
  return out;
}

bool stmt_terminates(const Stmt& s) {
  const std::string_view t = trim(s.text);
  return t.rfind("return", 0) == 0 || t.rfind("break", 0) == 0 || t.rfind("continue", 0) == 0 ||
         t.rfind("throw", 0) == 0 || t.rfind("co_return", 0) == 0;
}

bool block_terminates(const std::vector<Stmt>& block) {
  for (auto it = block.rbegin(); it != block.rend(); ++it) {
    if (!it->is_block) return stmt_terminates(*it);
    return false;
  }
  return false;
}

std::size_t find_word(std::string_view text, std::string_view word, std::size_t from = 0) {
  for (std::size_t pos = text.find(word, from); pos != std::string_view::npos;
       pos = text.find(word, pos + 1)) {
    const bool lb = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool rb = end >= text.size() || !is_ident_char(text[end]);
    if (lb && rb) return pos;
  }
  return std::string_view::npos;
}

}  // namespace

std::vector<Function> extract_functions(const std::vector<Line>& lines) {
  // Preprocessor directives carry no ';' terminator and would bleed into
  // neighbouring statements; blank them (and their backslash
  // continuations) before parsing. Indices are preserved so line numbers
  // stay accurate.
  std::vector<Line> filtered = lines;
  bool continuation = false;
  for (Line& l : filtered) {
    const std::string_view t = trim(l.code);
    if (continuation || (!t.empty() && t.front() == '#')) {
      continuation = !t.empty() && t.back() == '\\';
      l.code.clear();
    } else {
      continuation = false;
    }
  }
  Parser p{filtered};
  std::vector<Stmt> top = p.parse_block();  // treats the file as one block
  std::vector<Function> out;
  harvest_functions(top, out);
  return out;
}

std::string defs_of(const Function& fn, const std::string& ident) {
  const auto defs = collect_defs(fn);
  const auto it = defs.find(ident);
  return it == defs.end() ? std::string{} : it->second;
}

// Whole-word occurrences of `self` are blanked before the substring
// check: a variable named `shard` must not certify its own definition
// (`shard = 0`) just by appearing in the def text.
bool def_text_has_shard(std::string text, const std::string& self) {
  for (std::size_t pos = find_word(text, self); pos != std::string_view::npos;
       pos = find_word(text, self, pos + 1)) {
    for (std::size_t k = 0; k < self.size(); ++k) text[pos + k] = ' ';
  }
  return contains_ci(text, "shard");
}

bool has_shard_provenance(const Function& fn, const std::string& ident, int depth) {
  const auto defs = collect_defs(fn);
  const auto it = defs.find(ident);
  if (it == defs.end()) {
    // No local def: a parameter or member. A shard-named parameter is the
    // caller's routing decision — accepted; anything else is opaque.
    return contains_ci(ident, "shard");
  }
  // The ident IS locally defined, so its name alone proves nothing; the
  // definition must derive from shard arithmetic (shard_of_* call,
  // num_shards-bounded loop, or a chain of such defs).
  if (depth <= 0) return false;
  if (def_text_has_shard(it->second, ident)) return true;
  for (const std::string& id : idents_in(it->second)) {
    if (id == ident || is_cxx_noise(id)) continue;
    if (has_shard_provenance(fn, id, depth - 1)) return true;
  }
  return false;
}

void check_shard_indexing(const Function& fn, const std::vector<std::string>& owned,
                          const DataflowSink& sink) {
  if (owned.empty()) return;
  walk(fn.body, [&](const Stmt& s) {
    for (const std::string& name : owned) {
      for (std::size_t pos = find_word(s.text, name); pos != std::string_view::npos;
           pos = find_word(s.text, name, pos + 1)) {
        std::size_t p = pos + name.size();
        while (p < s.text.size() && std::isspace(static_cast<unsigned char>(s.text[p])) != 0) ++p;
        if (p >= s.text.size() || s.text[p] != '[') continue;
        // Extract the balanced [...] index expression.
        int depth = 0;
        std::size_t close = std::string_view::npos;
        for (std::size_t q = p; q < s.text.size(); ++q) {
          if (s.text[q] == '[') ++depth;
          if (s.text[q] == ']' && --depth == 0) {
            close = q;
            break;
          }
        }
        if (close == std::string_view::npos) continue;
        const std::string_view idx = trim(std::string_view{s.text}.substr(p + 1, close - p - 1));
        // Inline shard_of_*(...) calls and shard-named members/params are
        // granted through the per-identifier provenance walk below; raw
        // text is never trusted (a local named `shard` defined as `0`
        // must still be caught).
        bool proven = false;
        for (const std::string& id : idents_in(idx)) {
          if (is_cxx_noise(id)) continue;
          if (has_shard_provenance(fn, id)) {
            proven = true;
            break;
          }
        }
        if (!proven) {
          sink(s.line0,
               "'" + name + "[" + std::string(idx) + "]' indexes HERMES_SHARD_OWNED state " +
                   "with an index that does not derive from shard ownership " +
                   "(shard_of_* / num_shards-bounded loop); a wrong index here writes " +
                   "another shard's state outside its event stream");
        }
      }
    }
  });
}

void check_shard_ptr_escape(const Function& fn, const std::vector<char>& sharded_mask,
                            const std::vector<std::string>& ptr_names, const DataflowSink& sink) {
  // Escape tracking: the file-wide Port*/Host* names plus every local
  // alias transitively assigned from one.
  std::set<std::string> tracked(ptr_names.begin(), ptr_names.end());
  bool grew = true;
  while (grew) {
    grew = false;
    walk(fn.body, [&](const Stmt& s) {
      std::string lhs;
      std::string rhs;
      if (!split_assignment(s.text, &lhs, &rhs)) return;
      if (tracked.count(lhs) != 0) return;
      for (const std::string& id : idents_in(rhs)) {
        if (tracked.count(id) != 0) {
          tracked.insert(lhs);
          grew = true;
          return;
        }
      }
    });
  }
  walk(fn.body, [&](const Stmt& s) {
    if (s.line0 >= static_cast<int>(sharded_mask.size()) || sharded_mask[s.line0] == 0) return;
    for (const std::string& name : tracked) {
      for (std::size_t pos = find_word(s.text, name); pos != std::string_view::npos;
           pos = find_word(s.text, name, pos + 1)) {
        std::size_t after = pos + name.size();
        while (after < s.text.size() &&
               std::isspace(static_cast<unsigned char>(s.text[after])) != 0) {
          ++after;
        }
        const bool arrow =
            after + 1 < s.text.size() && s.text[after] == '-' && s.text[after + 1] == '>';
        std::size_t before = pos;
        while (before > 0 && std::isspace(static_cast<unsigned char>(s.text[before - 1])) != 0)
          --before;
        bool star = false;
        if (before > 0 && s.text[before - 1] == '*') {
          std::size_t q = before - 1;
          while (q > 0 && std::isspace(static_cast<unsigned char>(s.text[q - 1])) != 0) --q;
          star = q == 0 || !is_ident_char(s.text[q - 1]);
        }
        if (arrow || star) {
          sink(s.line0,
               "dereference of Port/Host pointer '" + name +
                   "' (directly or through an escaped alias) in a HERMES_SHARDED region; "
                   "cross-shard state moves through the mailbox API only (Outbox::push at "
                   "emit time, inbox delivery inside the owning shard)");
        }
      }
    }
  });
}

void check_arena_lifetime(const Function& fn, const std::vector<char>& sharded_mask,
                          const DataflowSink& sink) {
  // -------- gather tracked handles and aliases (flow-insensitive ids).
  std::set<std::string> handles;
  std::map<std::string, std::string> alias_of;  ///< packet ref/ptr -> handle
  const auto scan_decl = [&](std::string_view text) {
    for (const std::string_view ty :
         {std::string_view{"PacketHandle"}, std::string_view{"ArenaHandle"}}) {
      for (std::size_t pos = find_word(text, ty); pos != std::string_view::npos;
           pos = find_word(text, ty, pos + 1)) {
        std::size_t p = pos + ty.size();
        while (p < text.size() && (std::isspace(static_cast<unsigned char>(text[p])) != 0 ||
                                   text[p] == '&' || text[p] == '*')) {
          ++p;
        }
        std::size_t e = p;
        while (e < text.size() && is_ident_char(text[e])) ++e;
        if (e > p) handles.emplace(text.substr(p, e - p));
      }
    }
  };
  scan_decl(fn.params);
  walk(fn.body, [&](const Stmt& s) { scan_decl(s.text); });
  // Aliases: `Packet& p = arena[h]` / `Packet* p = arena.get(h)` /
  // `auto& p = arena_[h]`. By-value `Packet p = ...` copies the payload
  // out of the slot and is deliberately not tracked.
  walk(fn.body, [&](const Stmt& s) {
    std::string lhs;
    std::string rhs;
    if (!split_assignment(s.text, &lhs, &rhs)) return;
    const std::string_view text{s.text};
    const std::size_t lhs_at = find_word(text, lhs);
    if (lhs_at == std::string_view::npos) return;
    const std::string_view before = trim(text.substr(0, lhs_at));
    const bool ref_decl =
        !before.empty() && (before.back() == '&' || before.back() == '*');
    if (!ref_decl) return;
    if (!contains_ci(rhs, "arena")) return;
    for (const std::string& id : idents_in(rhs)) {
      if (handles.count(id) != 0) {
        alias_of[lhs] = id;
        return;
      }
    }
  });

  // -------- branch-aware may-analysis over the statement tree.
  struct Engine {
    const std::set<std::string>& handles;
    const std::map<std::string, std::string>& alias_of;
    const std::vector<char>& sharded_mask;
    const DataflowSink& sink;
    std::map<std::string, int> poisoned;  ///< var -> line of the kill

    void poison_handle(const std::string& h, int line0) {
      poisoned[h] = line0;
      for (const auto& [alias, handle] : alias_of) {
        if (handle == h) poisoned[alias] = line0;
      }
    }

    void check_uses(const Stmt& s, const std::string& skip_lhs) {
      for (const auto& [var, killed_at] : poisoned) {
        for (std::size_t pos = find_word(s.text, var); pos != std::string_view::npos;
             pos = find_word(s.text, var, pos + 1)) {
          if (var == skip_lhs) break;  // re-definition, not a use
          sink(s.line0, "'" + var + "' is used after the arena freed its slot (free/reset at " +
                            "line " + std::to_string(killed_at + 1) +
                            "); a recycled slot means another packet's bytes — re-fetch the "
                            "handle or restructure so the free is the last touch");
          break;  // one finding per statement per var
        }
      }
    }

    /// Processes one block; returns the poison set additions that fall
    /// through to the statement after the block.
    std::map<std::string, int> run(const std::vector<Stmt>& block) {
      const std::map<std::string, int> entry = poisoned;
      for (const Stmt& s : block) {
        std::string lhs;
        std::string rhs;
        const bool assign = split_assignment(s.text, &lhs, &rhs);
        check_uses(s, assign ? lhs : std::string{});
        if (s.is_block) {
          const std::map<std::string, int> before = poisoned;
          std::map<std::string, int> inner = run(s.children);
          // A branch that cannot fall through (return/continue/break at
          // its tail) does not leak its kills past the join point.
          poisoned = before;
          if (!block_terminates(s.children)) {
            for (const auto& kv : inner) poisoned.insert(kv);
          }
          continue;
        }
        // Kills: arena.free(h) / arena.reset() / arena.clear().
        const std::string_view text{s.text};
        for (const std::string_view kill :
             {std::string_view{".free"}, std::string_view{"->free"}}) {
          for (std::size_t pos = text.find(kill); pos != std::string_view::npos;
               pos = text.find(kill, pos + 1)) {
            // Receiver must be arena-ish: identifier chain before the dot.
            std::size_t b = pos;
            while (b > 0 && (is_ident_char(text[b - 1]) || text[b - 1] == '_')) --b;
            const std::string_view recv = text.substr(b, pos - b);
            if (!contains_ci(recv, "arena")) continue;
            const std::size_t open = text.find('(', pos);
            if (open == std::string_view::npos) continue;
            const std::size_t close = text.find(')', open);
            const std::string_view arg =
                close == std::string_view::npos ? text.substr(open + 1)
                                                : text.substr(open + 1, close - open - 1);
            for (const std::string& id : idents_in(arg)) {
              if (handles.count(id) != 0) poison_handle(id, s.line0);
            }
          }
        }
        for (const std::string_view kill :
             {std::string_view{".reset("}, std::string_view{".clear("},
              std::string_view{"->reset("}, std::string_view{"->clear("}}) {
          for (std::size_t pos = text.find(kill); pos != std::string_view::npos;
               pos = text.find(kill, pos + 1)) {
            std::size_t b = pos;
            while (b > 0 && is_ident_char(text[b - 1])) --b;
            const std::string_view recv = text.substr(b, pos - b);
            if (!contains_ci(recv, "arena")) continue;
            for (const std::string& h : handles) poison_handle(h, s.line0);
            for (const auto& [alias, handle] : alias_of) poisoned[alias] = s.line0;
          }
        }
        // Re-definition heals the handle (fresh slot); aliases stay dead.
        if (assign && handles.count(lhs) != 0) poisoned.erase(lhs);
        // Barrier caching: a live handle stored into a member inside
        // HERMES_SHARDED barrier code outlives the round.
        const bool in_sharded = s.line0 < static_cast<int>(sharded_mask.size()) &&
                                sharded_mask[s.line0] != 0;
        if (in_sharded) {
          auto names_live_handle = [&](std::string_view expr) -> std::string {
            for (const std::string& id : idents_in(expr)) {
              if (handles.count(id) != 0 || alias_of.count(id) != 0) return id;
            }
            return {};
          };
          if (assign && !lhs.empty() && lhs.back() == '_' && handles.count(lhs) == 0) {
            const std::string h = names_live_handle(rhs);
            if (!h.empty()) {
              sink(s.line0, "'" + h + "' (an arena handle) is cached into member '" + lhs +
                                "' inside a HERMES_SHARDED region; slots are recycled every "
                                "barrier round — move the Packet by value through the mailbox "
                                "instead of keeping the handle");
            }
          } else if (!assign) {
            // member_.push_back(h) / member_.push(h) style caching.
            for (const std::string_view call :
                 {std::string_view{".push_back("}, std::string_view{".push("},
                  std::string_view{".emplace_back("}, std::string_view{".insert("}}) {
              const std::size_t pos = text.find(call);
              if (pos == std::string_view::npos) continue;
              std::size_t b = pos;
              while (b > 0 && is_ident_char(text[b - 1])) --b;
              const std::string_view recv = text.substr(b, pos - b);
              if (recv.empty() || recv.back() != '_') continue;
              const std::string h = names_live_handle(text.substr(pos + call.size()));
              if (!h.empty()) {
                sink(s.line0, "'" + h + "' (an arena handle) is cached into member '" +
                                  std::string(recv) +
                                  "' inside a HERMES_SHARDED region; slots are recycled every "
                                  "barrier round — move the Packet by value through the "
                                  "mailbox instead of keeping the handle");
              }
            }
          }
        }
      }
      // Report only the additions relative to entry.
      std::map<std::string, int> out;
      for (const auto& kv : poisoned) {
        if (entry.find(kv.first) == entry.end()) out.insert(kv);
      }
      return out;
    }
  };

  Engine engine{handles, alias_of, sharded_mask, sink, {}};
  engine.run(fn.body);
}

void check_float_order(const Function& fn, const std::vector<std::string>& unordered,
                       const DataflowSink& sink) {
  if (unordered.empty()) return;
  const std::set<std::string> floats = float_vars(fn);

  auto loop_over_unordered = [&](std::string_view head) -> std::string {
    head = trim(head);
    if (head.rfind("for", 0) != 0) return {};
    for (const std::string& name : unordered) {
      if (find_word(head, name) != std::string_view::npos) return name;
    }
    return {};
  };

  // Accumulation statements inside loops over unordered containers.
  std::function<void(const Stmt&, const std::string&)> scan_block =
      [&](const Stmt& blk, const std::string& container) {
        for (const Stmt& s : blk.children) {
          if (s.is_block) {
            const std::string inner = loop_over_unordered(s.text);
            scan_block(s, inner.empty() ? container : inner);
            continue;
          }
          if (container.empty()) continue;
          for (const std::string& v : floats) {
            for (const std::string_view op :
                 {std::string_view{"+="}, std::string_view{"-="}, std::string_view{"*="}}) {
              const std::size_t pos = s.text.find(std::string(v) + " " + std::string(op));
              const std::size_t pos2 = s.text.find(std::string(v) + std::string(op));
              if (pos != std::string::npos || pos2 != std::string::npos) {
                sink(s.line0,
                     "floating-point accumulation into '" + v + "' iterating unordered "
                     "container '" + container + "': float addition is not associative, so "
                     "hash order changes the sum; iterate a sorted view or accumulate into "
                     "integers");
              }
            }
          }
        }
      };
  Stmt root;
  root.is_block = true;
  root.children = fn.body;
  scan_block(root, loop_over_unordered(""));

  // std::accumulate / std::reduce with a floating seed over unordered
  // iterators leak hash order even without an explicit loop.
  walk(fn.body, [&](const Stmt& s) {
    for (const std::string_view call : {std::string_view{"accumulate"}, std::string_view{"reduce"}}) {
      const std::size_t pos = find_word(s.text, call);
      if (pos == std::string_view::npos) continue;
      for (const std::string& name : unordered) {
        if (s.text.find(name + ".begin") == std::string::npos &&
            s.text.find(name + " .begin") == std::string::npos) {
          continue;
        }
        bool floaty = s.text.find("0.0") != std::string::npos ||
                      s.text.find("0.f") != std::string::npos ||
                      s.text.find("0.F") != std::string::npos;
        for (const std::string& v : floats) {
          if (find_word(s.text, v) != std::string_view::npos) floaty = true;
        }
        if (floaty) {
          sink(s.line0,
               "std::" + std::string(call) + " with a floating seed over unordered container '" +
                   name + "' sums in hash order; copy to a sorted view first");
        }
      }
    }
  });
}

}  // namespace hermes::lint
