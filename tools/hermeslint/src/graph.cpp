#include "hermes/lint/graph.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hermes::lint {

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string_view skip_ws(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0)
    s.remove_prefix(1);
  return s;
}

std::string_view take_ident(std::string_view& s) {
  s = skip_ws(s);
  std::size_t n = 0;
  while (n < s.size() && is_ident_char(s[n])) ++n;
  const std::string_view id = s.substr(0, n);
  s.remove_prefix(n);
  return id;
}

bool is_keyword(std::string_view id) {
  static constexpr std::string_view kKeywords[] = {
      "if",      "else",    "for",     "while",   "do",       "switch",  "case",
      "return",  "break",   "continue", "sizeof",  "alignof",  "static",  "inline",
      "constexpr", "const", "virtual", "explicit", "typename", "template", "operator",
      "new",     "delete",  "class",   "struct",  "enum",     "union",   "namespace",
      "using",   "typedef", "friend",  "public",  "private",  "protected", "noexcept",
      "static_assert", "decltype", "auto", "void",
  };
  return std::find(std::begin(kKeywords), std::end(kKeywords), id) != std::end(kKeywords);
}

}  // namespace

std::string include_path_of(std::string_view path) {
  const std::size_t at = path.rfind("include/");
  if (at == std::string_view::npos) return {};
  return std::string(path.substr(at + 8));
}

std::vector<SymbolDef> exported_symbols(const std::string& path, const std::vector<Line>& lines) {
  std::vector<SymbolDef> out;
  if (include_path_of(path).empty()) return out;

  // One scope entry per open '{': a namespace (with its name) or any
  // other block (class body, function body, initializer).
  struct Scope {
    bool is_namespace = false;
    std::vector<std::string> names;  ///< may hold several for `namespace a::b`
  };
  std::vector<Scope> stack;

  auto current_tail = [&]() -> std::string_view {
    // The innermost scope must itself be a namespace (symbols inside a
    // class body or function are not exported), and the flattened
    // namespace path must be one of the indexed namespaces.
    std::string flat;
    for (const Scope& s : stack) {
      if (!s.is_namespace) return {};
      for (const std::string& n : s.names) flat += (flat.empty() ? "" : "::") + n;
    }
    for (const std::string_view ns : kIndexedNamespaces) {
      if (flat == ns) return ns.substr(ns.rfind("::") + 2);
    }
    return {};
  };

  auto add = [&](std::string_view name) {
    const std::string_view tail = current_tail();
    if (tail.empty() || name.empty() || is_keyword(name)) return;
    const SymbolDef def{std::string(tail), std::string(name)};
    const bool dup = std::any_of(out.begin(), out.end(), [&](const SymbolDef& d) {
      return d.ns == def.ns && d.name == def.name;
    });
    if (!dup) out.push_back(def);
  };

  // Statement text accumulated since the last ';', '{' or '}', so
  // declarations that wrap across lines are classified as one unit.
  std::string stmt;

  auto classify = [&](std::string_view s, bool opens_brace) {
    s = skip_ws(s);
    if (s.empty() || s.front() == '#') return;
    // Strip leading attributes and specifiers that precede declarations.
    for (;;) {
      s = skip_ws(s);
      if (s.rfind("[[", 0) == 0) {
        const std::size_t close = s.find("]]");
        if (close == std::string_view::npos) return;
        s.remove_prefix(close + 2);
        continue;
      }
      std::string_view probe = s;
      const std::string_view id = take_ident(probe);
      if (id == "inline" || id == "static" || id == "constexpr" || id == "extern" ||
          id == "friend") {
        s = probe;
        continue;
      }
      break;
    }
    std::string_view rest = s;
    const std::string_view head = take_ident(rest);
    if (head == "namespace") return;  // handled by the scope tracker
    if (head == "class" || head == "struct" || head == "enum") {
      if (head == "enum") {
        std::string_view probe = rest;
        const std::string_view cls = take_ident(probe);
        if (cls == "class" || cls == "struct") rest = probe;
      }
      const std::string_view name = take_ident(rest);
      rest = skip_ws(rest);
      // `class X;` is a forward declaration, not the exporting site.
      if (!opens_brace && (rest.empty() || rest.front() == ';')) return;
      add(name);
      return;
    }
    if (head == "using") {
      std::string_view probe = rest;
      const std::string_view name = take_ident(probe);
      probe = skip_ws(probe);
      if (!probe.empty() && probe.front() == '=') add(name);  // not using-directives
      return;
    }
    if (head == "template" || head == "typedef") return;
    if (head.empty()) return;
    // Remaining shapes: `Type name(...)` free functions and
    // `Type name = ...` constants. Find the identifier that precedes the
    // first top-level '(' or '='.
    int angle = 0;
    std::string_view last_ident;
    for (std::size_t i = 0; i < s.size();) {
      const char c = s[i];
      if (c == '<') ++angle;
      if (c == '>' && angle > 0) --angle;
      if (angle == 0 && (c == '(' || c == '=')) {
        if (c == '=' && i + 1 < s.size() && s[i + 1] == '=') return;
        if (!last_ident.empty() && !is_keyword(last_ident)) add(last_ident);
        return;
      }
      if (is_ident_char(c)) {
        std::size_t e = i;
        while (e < s.size() && is_ident_char(s[e])) ++e;
        last_ident = s.substr(i, e - i);
        i = e;
      } else {
        ++i;
      }
    }
  };

  for (const Line& line : lines) {
    const std::string& code = line.code;
    // Preprocessor lines don't end in ';' and would otherwise pollute the
    // pending statement; they declare nothing, so drop them whole.
    if (skip_ws(code).rfind('#', 0) == 0) {
      stmt.clear();
      continue;
    }
    for (std::size_t i = 0; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '{') {
        // Does the pending statement open a namespace?
        std::string_view s = skip_ws(stmt);
        std::string_view probe = s;
        const std::string_view head = take_ident(probe);
        Scope scope;
        if (head == "namespace") {
          scope.is_namespace = true;
          for (;;) {
            const std::string_view part = take_ident(probe);
            if (part.empty()) break;
            scope.names.emplace_back(part);
            probe = skip_ws(probe);
            if (probe.rfind("::", 0) != 0) break;
            probe.remove_prefix(2);
          }
        } else {
          classify(stmt, /*opens_brace=*/true);
        }
        stack.push_back(std::move(scope));
        stmt.clear();
      } else if (c == '}') {
        if (!stack.empty()) stack.pop_back();
        stmt.clear();
      } else if (c == ';') {
        classify(stmt, /*opens_brace=*/false);
        stmt.clear();
      } else {
        stmt.push_back(c);
      }
    }
    stmt.push_back(' ');
  }
  return out;
}

}  // namespace hermes::lint
