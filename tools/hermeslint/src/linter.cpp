#include "hermes/lint/linter.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hermes/lint/graph.hpp"
#include "hermes/lint/summary.hpp"

namespace hermes::lint {

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0)
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0)
    s.remove_suffix(1);
  return s;
}

bool is_blank(std::string_view s) { return trim(s).empty(); }

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

// ---------------------------------------------------------------------------
// Rule ids. Keep in sync with DESIGN.md's rule catalogue.
constexpr std::string_view kDetRand = "determinism.rand";
constexpr std::string_view kDetClock = "determinism.clock";
constexpr std::string_view kDetUnorderedIter = "determinism.unordered-iter";
constexpr std::string_view kHotAlloc = "hotpath.alloc";
constexpr std::string_view kHotGrowth = "hotpath.container-growth";
constexpr std::string_view kHotFileMember = "hotpath.hot-file-member";
constexpr std::string_view kHdrPragmaOnce = "header.pragma-once";
constexpr std::string_view kHdrUsingNamespace = "header.using-namespace";
constexpr std::string_view kHdrDirectInclude = "header.direct-include";
constexpr std::string_view kMetaSuppression = "meta.suppression";

const std::vector<RuleInfo> kCatalogue = {
    {kDetRand,
     "rand()/srand()/random_device and friends banned; use hermes::engine::Rng streams"},
    {kDetClock,
     "wall clocks (system/steady/high_resolution_clock, time()) banned; use "
     "sim::Simulator::now() / SimTime"},
    {kDetUnorderedIter,
     "range-for or .begin()/.cbegin() over a std::unordered_* container feeds hash order "
     "into results; iterate a sorted view instead"},
    {kHotAlloc,
     "HERMES_HOT regions must not heap-allocate (new, make_shared/make_unique, "
     "std::function)"},
    {kHotGrowth,
     "container growth in a HERMES_HOT region needs a hermeslint:reserve-audited(<why>) "
     "annotation"},
    {kHotFileMember,
     "files containing HERMES_HOT regions must not declare std::deque or std::function "
     "members; use PacketRing / SoA rings and sim::InlineCallable (or annotate cold-path "
     "state with hermeslint:allow and a reason)"},
    {kHdrPragmaOnce, "headers must open with #pragma once"},
    {kHdrUsingNamespace, "headers must not contain using-namespace directives"},
    {kHdrDirectInclude,
     "curated std:: symbols and indexed hermes namespace symbols require a direct "
     "#include, not a transitive one"},
    {kMetaSuppression,
     "allow directives must name known rules (once each per line) and carry a written "
     "reason"},
};

/// Wall-entropy free functions (determinism.rand).
constexpr std::string_view kRandCalls[] = {"rand", "srand", "rand_r", "drand48", "lrand48"};

/// Wall-clock type names, any qualification (determinism.clock).
constexpr std::string_view kClockIdents[] = {"system_clock", "steady_clock",
                                             "high_resolution_clock"};

/// Wall-clock free functions (determinism.clock).
constexpr std::string_view kClockCalls[] = {"time", "clock", "gettimeofday"};

/// Unordered container type names whose variables get tracked.
constexpr std::string_view kUnorderedTypes[] = {"unordered_map", "unordered_multimap",
                                                "unordered_set", "unordered_multiset"};

/// Container-growth methods that can allocate (hotpath.container-growth).
constexpr std::string_view kGrowthCalls[] = {
    "push_back", "emplace_back", "push_front", "emplace_front",
    "emplace",   "insert",       "resize",     "push",
};

/// Curated symbol -> required direct #include (header.direct-include).
/// Deliberately small: the containers, smart pointers, std::function and
/// fixed-width ints whose transitive availability varies across libstdc++
/// versions. Matched as `std::<symbol>` with identifier boundaries.
struct SymbolHeader {
  std::string_view symbol;
  std::string_view header;
};
constexpr SymbolHeader kSymbolHeaders[] = {
    {"vector", "vector"},
    {"deque", "deque"},
    {"map", "map"},
    {"multimap", "map"},
    {"set", "set"},
    {"multiset", "set"},
    {"unordered_map", "unordered_map"},
    {"unordered_multimap", "unordered_map"},
    {"unordered_set", "unordered_set"},
    {"unordered_multiset", "unordered_set"},
    {"array", "array"},
    {"optional", "optional"},
    {"variant", "variant"},
    {"span", "span"},
    {"string", "string"},
    {"string_view", "string_view"},
    {"function", "functional"},
    {"unique_ptr", "memory"},
    {"shared_ptr", "memory"},
    {"weak_ptr", "memory"},
    {"make_unique", "memory"},
    {"make_shared", "memory"},
    {"uint8_t", "cstdint"},
    {"uint16_t", "cstdint"},
    {"uint32_t", "cstdint"},
    {"uint64_t", "cstdint"},
    {"int8_t", "cstdint"},
    {"int16_t", "cstdint"},
    {"int32_t", "cstdint"},
    {"int64_t", "cstdint"},
    {"size_t", "cstddef"},
    {"byte", "cstddef"},
};

/// Keywords after which `ident(` is a call, not a declaration `Type ident(...)`.
bool is_call_context_keyword(std::string_view tok) {
  return tok == "return" || tok == "if" || tok == "while" || tok == "for" || tok == "do" ||
         tok == "else" || tok == "switch" || tok == "case" || tok == "co_return" ||
         tok == "co_await" || tok == "co_yield";
}

/// Reads the identifier ending at text[end) going backwards; empty if none.
std::string_view ident_before(std::string_view text, std::size_t end) {
  std::size_t b = end;
  while (b > 0 && is_ident_char(text[b - 1])) --b;
  return text.substr(b, end - b);
}

/// Classifies the token context immediately before position `pos`, skipping
/// whitespace. Used to decide whether `ident(` at pos is a *free* call.
enum class Qualifier { kNone, kStd, kOtherScope, kMember, kDeclaration };

Qualifier qualifier_before(std::string_view code, std::size_t pos) {
  std::size_t p = pos;
  while (p > 0 && std::isspace(static_cast<unsigned char>(code[p - 1])) != 0) --p;
  if (p == 0) return Qualifier::kNone;
  const char prev = code[p - 1];
  if (prev == '.') return Qualifier::kMember;
  if (prev == '>' && p >= 2 && code[p - 2] == '-') return Qualifier::kMember;
  if (prev == ':' && p >= 2 && code[p - 2] == ':') {
    const std::string_view scope = ident_before(code, p - 2);
    return scope == "std" ? Qualifier::kStd : Qualifier::kOtherScope;
  }
  if (is_ident_char(prev)) {
    const std::string_view tok = ident_before(code, p);
    return is_call_context_keyword(tok) ? Qualifier::kNone : Qualifier::kDeclaration;
  }
  return Qualifier::kNone;
}

/// True if, skipping whitespace, code[pos..] starts with `(`.
bool followed_by_call(std::string_view code, std::size_t pos) {
  while (pos < code.size() && std::isspace(static_cast<unsigned char>(code[pos])) != 0) ++pos;
  return pos < code.size() && code[pos] == '(';
}

/// True if `code[pos..]` (the text right after a template type name) reads
/// like a member/alias *declaration*: a balanced `<...>` argument list,
/// optional `*`/`&`/`const`, then either an identifier terminated by `;`,
/// `=`, or `{`, or directly `;` (the target of a using-alias). Function
/// parameters (`std::function<...> cb)`) and plain uses fall through.
bool member_style_decl_after(std::string_view code, std::size_t pos) {
  auto skip_ws = [&](std::size_t p) {
    while (p < code.size() && std::isspace(static_cast<unsigned char>(code[p])) != 0) ++p;
    return p;
  };
  std::size_t p = skip_ws(pos);
  if (p >= code.size() || code[p] != '<') return false;
  int depth = 0;
  for (; p < code.size(); ++p) {
    if (code[p] == '<') ++depth;
    if (code[p] == '>' && --depth == 0) break;
  }
  if (depth != 0) return false;  // template args continue on the next line
  p = skip_ws(p + 1);
  while (p < code.size() && (code[p] == '*' || code[p] == '&')) p = skip_ws(p + 1);
  if (p < code.size() && code[p] == ';') return true;  // using X = std::function<...>;
  const std::size_t ident_begin = p;
  while (p < code.size() && is_ident_char(code[p])) ++p;
  if (p == ident_begin) return false;
  p = skip_ws(p);
  return p < code.size() && (code[p] == ';' || code[p] == '=' || code[p] == '{');
}

// ---------------------------------------------------------------------------
// Suppression / annotation directives parsed out of comments.
struct Directives {
  std::map<std::size_t, std::set<std::string, std::less<>>> allow;  ///< line -> rules
  std::map<std::size_t, std::string> allow_reason;                  ///< line -> reason
  std::set<std::size_t> reserve_audited;                            ///< audited lines
};

/// A directive written on its own comment line shields the next line that
/// carries code; one written beside code shields that same line.
std::size_t directive_target(const std::vector<Line>& lines, std::size_t i) {
  if (!is_blank(lines[i].code)) return i;
  for (std::size_t j = i + 1; j < lines.size(); ++j) {
    if (!is_blank(lines[j].code)) return j;
  }
  return i;
}

Directives parse_directives(const std::string& path, const std::vector<Line>& lines,
                            std::vector<Finding>& meta) {
  Directives d;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& c = lines[i].comment;
    for (std::size_t at = c.find("hermeslint:"); at != std::string::npos;
         at = c.find("hermeslint:", at + 1)) {
      const std::string_view rest = std::string_view{c}.substr(at + 11);
      // Prose may mention the tool name followed by a colon; only an
      // identifier glued to the colon reads as a directive.
      if (rest.empty() || !is_ident_char(rest.front())) continue;
      const int line_no = static_cast<int>(i + 1);
      if (rest.rfind("allow(", 0) == 0) {
        const std::size_t close = rest.find(')');
        if (close == std::string_view::npos) {
          meta.push_back({path, line_no, std::string(kMetaSuppression),
                          "malformed allow directive: missing ')'", std::string(trim(c))});
          continue;
        }
        std::string_view list = rest.substr(6, close - 6);
        const std::string reason{trim(rest.substr(close + 1))};
        const std::size_t target = directive_target(lines, i);
        bool any = false;
        bool reported = false;
        while (!list.empty()) {
          const std::size_t comma = list.find(',');
          const std::string_view rule =
              trim(comma == std::string_view::npos ? list : list.substr(0, comma));
          list = comma == std::string_view::npos ? std::string_view{} : list.substr(comma + 1);
          if (rule.empty()) continue;
          if (!is_known_rule(rule)) {
            meta.push_back({path, line_no, std::string(kMetaSuppression),
                            "allow names unknown rule '" + std::string(rule) + "'",
                            std::string(trim(c))});
            reported = true;
            continue;
          }
          if (!d.allow[target].insert(std::string(rule)).second) {
            meta.push_back({path, line_no, std::string(kMetaSuppression),
                            "duplicate allow of rule '" + std::string(rule) +
                                "' for the same line; one directive per rule per line",
                            std::string(trim(c))});
            reported = true;
            continue;
          }
          any = true;
        }
        if (!any) {
          if (!reported) {
            meta.push_back({path, line_no, std::string(kMetaSuppression),
                            "allow directive names no known rule", std::string(trim(c))});
          }
        } else if (reason.empty()) {
          meta.push_back({path, line_no, std::string(kMetaSuppression),
                          "suppression requires a written reason after the ')'",
                          std::string(trim(c))});
        } else {
          d.allow_reason[target] = reason;
        }
      } else if (rest.rfind("reserve-audited(", 0) == 0) {
        const std::size_t close = rest.find(')');
        if (close == std::string_view::npos || is_blank(rest.substr(16, close - 16))) {
          meta.push_back({path, line_no, std::string(kMetaSuppression),
                          "reserve-audited needs a capacity argument: "
                          "hermeslint:reserve-audited(<why growth cannot recur>)",
                          std::string(trim(c))});
          continue;
        }
        d.reserve_audited.insert(directive_target(lines, i));
      } else {
        meta.push_back({path, line_no, std::string(kMetaSuppression),
                        "unrecognized hermeslint directive (want allow(...) or "
                        "reserve-audited(...))",
                        std::string(trim(c))});
      }
    }
  }
  return d;
}

/// Marks the lines covered by `// HERMES_HOT` comments: a tag before any
/// code covers the whole file; a tag elsewhere covers the next brace
/// block (i.e. the function or struct that follows it). Only a comment
/// that *starts* with the tag counts — prose that merely mentions the
/// marker is not a tag.
std::vector<char> hot_mask(const std::vector<Line>& lines) {
  constexpr std::string_view tag = "HERMES_HOT";
  std::vector<char> hot(lines.size(), 0);
  bool code_seen = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view ctext = trim(lines[i].comment);
    const bool tagged = ctext.rfind(tag, 0) == 0 &&
                        (ctext.size() == tag.size() || !is_ident_char(ctext[tag.size()]));
    if (tagged && !code_seen && is_blank(lines[i].code)) {
      std::fill(hot.begin(), hot.end(), 1);
      return hot;
    }
    if (tagged) {
      // Cover from the tag to the close of the next brace block.
      int depth = 0;
      bool opened = false;
      for (std::size_t j = i; j < lines.size(); ++j) {
        hot[j] = 1;
        for (const char ch : lines[j].code) {
          if (ch == '{') {
            ++depth;
            opened = true;
          } else if (ch == '}') {
            --depth;
          }
        }
        if (opened && depth <= 0) break;
      }
    }
    if (!is_blank(lines[i].code)) code_seen = true;
  }
  return hot;
}

/// Joins up to `max_lines` of code starting at line i (newline -> space) so
/// declarations and for-headers that wrap can be matched as one string.
std::string joined_code(const std::vector<Line>& lines, std::size_t i, std::size_t max_lines) {
  std::string s;
  for (std::size_t j = i; j < lines.size() && j < i + max_lines; ++j) {
    s += lines[j].code;
    s += ' ';
  }
  return s;
}

/// Advances past a balanced <...> starting with the '<' at `open`; returns
/// the index one past the matching '>', or npos on imbalance.
std::size_t skip_angles(std::string_view s, std::size_t open) {
  int depth = 0;
  for (std::size_t p = open; p < s.size(); ++p) {
    const char ch = s[p];
    if (ch == '<') {
      ++depth;
    } else if (ch == '>') {
      if (p > 0 && s[p - 1] == '-') continue;  // ->
      if (--depth == 0) return p + 1;
    }
  }
  return std::string_view::npos;
}

/// Extracts the identifier a range-for iterates over: the last identifier of
/// the range expression, with one trailing (...) call and [...] index
/// stripped (`stacks_[i]->senders_`, `active_flows()`, `*m` all resolve).
std::string range_expr_name(std::string_view expr) {
  std::string_view e = trim(expr);
  // Strip one trailing balanced () or [] group.
  while (!e.empty() && (e.back() == ')' || e.back() == ']')) {
    const char close = e.back();
    const char open = close == ')' ? '(' : '[';
    int depth = 0;
    std::size_t p = e.size();
    while (p > 0) {
      --p;
      if (e[p] == close) ++depth;
      if (e[p] == open && --depth == 0) break;
    }
    if (depth != 0) break;
    e = trim(e.substr(0, p));
  }
  if (e.empty()) return {};
  std::size_t end = e.size();
  while (end > 0 && !is_ident_char(e[end - 1])) --end;
  std::size_t b = end;
  while (b > 0 && is_ident_char(e[b - 1])) --b;
  return std::string(e.substr(b, end - b));
}

/// The direct #include targets of a file. Parsed from the raw line: the
/// lexer strips string literals out of `code`, which would erase the
/// path of quoted ("hermes/...") includes.
std::set<std::string, std::less<>> include_targets(const std::vector<Line>& lines) {
  std::set<std::string, std::less<>> out;
  for (const Line& line : lines) {
    const std::string_view code = trim(line.raw);
    if (code.rfind("#", 0) != 0) continue;
    std::string_view rest = trim(code.substr(1));
    if (rest.rfind("include", 0) != 0) continue;
    rest = trim(rest.substr(7));
    if (rest.size() < 2) continue;
    const char close = rest.front() == '<' ? '>' : (rest.front() == '"' ? '"' : '\0');
    if (close == '\0') continue;
    const std::size_t end = rest.find(close, 1);
    if (end != std::string_view::npos) out.emplace(rest.substr(1, end - 1));
  }
  return out;
}

}  // namespace

const std::vector<RuleInfo>& rule_catalogue() { return kCatalogue; }

bool is_known_rule(std::string_view id) {
  return std::any_of(kCatalogue.begin(), kCatalogue.end(),
                     [&](const RuleInfo& r) { return r.id == id; });
}

void Linter::add_file(std::string path, std::string source) {
  File f;
  f.path = std::move(path);
  f.lines = Lexer::scan(source);
  f.summary = summarize(f.path, f.lines);
  files_.push_back(std::move(f));
}

FileSummary Linter::summarize(const std::string& path, const std::vector<Line>& lines) {
  FileSummary s;
  s.path = path;
  s.is_header = ends_with(path, ".hpp") || ends_with(path, ".h");

  // Names declared as `T<...> name`. An unordered container's name is a
  // cross-file fact: iterating it is flagged wherever that happens. A name
  // declared with any other std:: template iterates in a fixed order, and
  // a file that declares it so sees that declaration, not another file's.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    std::string decl;  // joined ahead so wrapped template arguments parse
    for (std::size_t open = code.find('<'); open != std::string::npos;
         open = code.find('<', open + 1)) {
      std::size_t type_end = open;
      while (type_end > 0 && std::isspace(static_cast<unsigned char>(code[type_end - 1])) != 0)
        --type_end;
      std::size_t type_begin = type_end;
      while (type_begin > 0 && is_ident_char(code[type_begin - 1])) --type_begin;
      const std::string_view type = std::string_view(code).substr(type_begin, type_end - type_begin);
      const bool unordered =
          std::find(std::begin(kUnorderedTypes), std::end(kUnorderedTypes), type) !=
          std::end(kUnorderedTypes);
      if (!unordered && qualifier_before(code, type_begin) != Qualifier::kStd) continue;
      if (decl.empty()) decl = joined_code(lines, i, 6);
      std::size_t after = skip_angles(decl, open);
      if (after == std::string_view::npos) continue;
      // Skip refs/pointers/cv noise between the type and the name.
      while (after < decl.size()) {
        const char ch = decl[after];
        if (std::isspace(static_cast<unsigned char>(ch)) != 0 || ch == '&' || ch == '*') {
          ++after;
        } else if (matches_identifier_at(decl, after, "const")) {
          after += 5;
        } else {
          break;
        }
      }
      std::size_t end = after;
      while (end < decl.size() && is_ident_char(decl[end])) ++end;
      if (end == after) continue;
      (unordered ? s.unordered_names : s.ordered_names).emplace_back(decl.substr(after, end - after));
    }
  }

  s.symbols = exported_symbols(path, lines);
  return s;
}

GlobalContext Linter::build_context(const std::vector<const FileSummary*>& summaries) {
  GlobalContext ctx;
  // Deterministic regardless of discovery order: fold by sorted path.
  std::vector<const FileSummary*> sorted = summaries;
  std::sort(sorted.begin(), sorted.end(),
            [](const FileSummary* a, const FileSummary* b) { return a->path < b->path; });
  std::set<std::string> unordered;
  for (const FileSummary* s : sorted) {
    unordered.insert(s->unordered_names.begin(), s->unordered_names.end());
    if (s->symbols.empty()) continue;
    const std::string header = include_path_of(s->path);
    if (header.empty()) continue;
    for (const SymbolDef& d : s->symbols) {
      // First writer (lexicographically smallest path) wins on conflicts.
      ctx.symbol_headers.emplace(d.ns + "::" + d.name, header);
    }
  }
  ctx.unordered_names.assign(unordered.begin(), unordered.end());
  return ctx;
}

LintResult Linter::run() const {
  std::vector<const FileSummary*> sums;
  sums.reserve(files_.size());
  for (const File& f : files_) sums.push_back(&f.summary);
  const GlobalContext ctx = build_context(sums);
  LintResult out;
  out.files_scanned = static_cast<int>(files_.size());
  for (const File& f : files_) {
    lint_file(f.path, f.lines, f.summary, ctx, out);
  }
  // Canonical (file, line, rule) order, which every output format relies on.
  std::sort(out.findings.begin(), out.findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });
  std::sort(out.suppressed.begin(), out.suppressed.end(),
            [](const Suppression& a, const Suppression& b) {
              return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
            });
  return out;
}

void Linter::lint_file(const std::string& path, const std::vector<Line>& lines,
                       const FileSummary& summary, const GlobalContext& ctx, LintResult& out) {
  std::vector<Finding> meta;
  const Directives dir = parse_directives(path, lines, meta);
  for (Finding& m : meta) out.findings.push_back(std::move(m));
  const std::vector<char> hot = hot_mask(lines);
  const bool hot_file = std::any_of(hot.begin(), hot.end(), [](char h) { return h != 0; });

  // Routes a raw finding through the suppression table.
  auto emit = [&](std::string_view rule, std::size_t line0, std::string message) {
    const auto it = dir.allow.find(line0);
    if (it != dir.allow.end() && it->second.find(rule) != it->second.end()) {
      const auto reason = dir.allow_reason.find(line0);
      out.suppressed.push_back({path, static_cast<int>(line0 + 1), std::string(rule),
                                reason != dir.allow_reason.end() ? reason->second : ""});
      return;
    }
    out.findings.push_back({path, static_cast<int>(line0 + 1), std::string(rule),
                            std::move(message),
                            line0 < lines.size() ? std::string(trim(lines[line0].raw)) : ""});
  };

  const std::set<std::string, std::less<>> includes = include_targets(lines);
  std::set<std::string, std::less<>> reported_symbols;

  // Does the declaration this file sees for `name` make it an unordered
  // container? The file's own declaration wins; a name it does not
  // declare resolves against every file's.
  const auto declares = [](const std::vector<std::string>& names, const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  const auto unordered = [&](const std::string& name) {
    if (declares(summary.unordered_names, name)) return true;
    if (declares(summary.ordered_names, name)) return false;
    return std::binary_search(ctx.unordered_names.begin(), ctx.unordered_names.end(), name);
  };

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    if (is_blank(code)) continue;

    // ---- determinism.rand ----
    for (const std::string_view fn : kRandCalls) {
      for (std::size_t pos = find_identifier(code, fn); pos != std::string_view::npos;
           pos = find_identifier(code, fn, pos + 1)) {
        const Qualifier q = qualifier_before(code, pos);
        if ((q == Qualifier::kNone || q == Qualifier::kStd) && followed_by_call(code, pos + fn.size())) {
          emit(kDetRand, i,
               std::string(fn) + "() draws from global wall entropy; use a "
               "hermes::engine::Rng stream (seeded from sim::Simulator::rng_seed)");
        }
      }
    }
    if (find_identifier(code, "random_device") != std::string_view::npos) {
      emit(kDetRand, i,
           "std::random_device is nondeterministic; seed a hermes::engine::Rng stream instead");
    }

    // ---- determinism.clock ----
    for (const std::string_view id : kClockIdents) {
      if (find_identifier(code, id) != std::string_view::npos) {
        emit(kDetClock, i,
             "std::chrono::" + std::string(id) + " reads the wall clock; simulation "
             "code must use sim::Simulator::now() / SimTime");
      }
    }
    for (const std::string_view fn : kClockCalls) {
      for (std::size_t pos = find_identifier(code, fn); pos != std::string_view::npos;
           pos = find_identifier(code, fn, pos + 1)) {
        const Qualifier q = qualifier_before(code, pos);
        if ((q == Qualifier::kNone || q == Qualifier::kStd) && followed_by_call(code, pos + fn.size())) {
          emit(kDetClock, i,
               std::string(fn) + "() reads the wall clock; simulation code must use "
               "sim::Simulator::now() / SimTime");
        }
      }
    }

    // ---- determinism.unordered-iter ----
    for (std::size_t pos = find_identifier(code, "for"); pos != std::string_view::npos;
         pos = find_identifier(code, "for", pos + 1)) {
      std::size_t open = pos + 3;
      while (open < code.size() && std::isspace(static_cast<unsigned char>(code[open])) != 0)
        ++open;
      if (open >= code.size() || code[open] != '(') continue;
      // Join forward so wrapped for-headers parse; find the matching ')'.
      const std::string head = joined_code(lines, i, 8);
      const std::size_t fpos = head.find(code.substr(pos, open - pos + 1));
      if (fpos == std::string::npos) continue;
      const std::size_t hopen = head.find('(', fpos);
      int depth = 0;
      std::size_t hclose = std::string::npos;
      std::size_t colon = std::string::npos;
      bool classic = false;
      for (std::size_t p = hopen; p < head.size(); ++p) {
        const char ch = head[p];
        if (ch == '(' || ch == '[' || ch == '{') ++depth;
        if (ch == ')' || ch == ']' || ch == '}') {
          if (--depth == 0 && ch == ')') {
            hclose = p;
            break;
          }
        }
        if (depth == 1 && ch == ';') classic = true;
        if (depth == 1 && ch == ':' && colon == std::string::npos &&
            (p + 1 >= head.size() || head[p + 1] != ':') && (p == 0 || head[p - 1] != ':')) {
          colon = p;
        }
      }
      if (classic || colon == std::string::npos || hclose == std::string::npos) continue;
      const std::string name = range_expr_name(std::string_view(head).substr(colon + 1, hclose - colon - 1));
      if (!name.empty() && unordered(name)) {
        emit(kDetUnorderedIter, i,
             "range-for over unordered container '" + name +
                 "' leaks hash order; iterate sorted keys (or a sorted snapshot) "
                 "before feeding results");
      }
    }
    // The same walk through an iterator pair: std::accumulate(m.begin(),
    // m.end(), 0.0) sums in hash order just as a range-for does.
    for (const std::string_view fn : {std::string_view{"begin"}, std::string_view{"cbegin"}}) {
      for (std::size_t pos = find_identifier(code, fn); pos != std::string_view::npos;
           pos = find_identifier(code, fn, pos + 1)) {
        if (qualifier_before(code, pos) != Qualifier::kMember ||
            !followed_by_call(code, pos + fn.size())) {
          continue;
        }
        std::size_t dot = pos;
        while (std::isspace(static_cast<unsigned char>(code[dot - 1])) != 0) --dot;
        dot -= code[dot - 1] == '>' ? 2 : 1;  // back over the '.' or '->'
        const std::string name = range_expr_name(std::string_view(code).substr(0, dot));
        if (unordered(name)) {
          emit(kDetUnorderedIter, i,
               "'" + name + "." + std::string(fn) +
                   "()' walks an unordered container in hash order; iterate sorted keys "
                   "(or a sorted snapshot) before feeding results");
        }
      }
    }

    // ---- hotpath rules ----
    if (hot[i] != 0) {
      for (std::size_t pos = find_identifier(code, "new"); pos != std::string_view::npos;
           pos = find_identifier(code, "new", pos + 1)) {
        emit(kHotAlloc, i, "operator new in a HERMES_HOT region; use pooled or inline storage");
      }
      for (const std::string_view fn : {std::string_view{"make_shared"}, std::string_view{"make_unique"}}) {
        if (find_identifier(code, fn) != std::string_view::npos) {
          emit(kHotAlloc, i,
               "std::" + std::string(fn) + " allocates; HERMES_HOT code must use pooled or "
               "inline storage");
        }
      }
      for (std::size_t pos = find_identifier(code, "function"); pos != std::string_view::npos;
           pos = find_identifier(code, "function", pos + 1)) {
        if (qualifier_before(code, pos) == Qualifier::kStd) {
          emit(kHotAlloc, i,
               "std::function may heap-allocate its callable; use sim::InlineCallable "
               "in HERMES_HOT code");
        }
      }
      for (const std::string_view fn : kGrowthCalls) {
        for (std::size_t pos = find_identifier(code, fn); pos != std::string_view::npos;
             pos = find_identifier(code, fn, pos + 1)) {
          if (qualifier_before(code, pos) != Qualifier::kMember ||
              !followed_by_call(code, pos + fn.size())) {
            continue;
          }
          if (dir.reserve_audited.find(i) != dir.reserve_audited.end()) continue;
          emit(kHotGrowth, i,
               "." + std::string(fn) + "() may grow its container on the hot path; "
               "annotate the audited capacity with hermeslint:reserve-audited(<why>)");
        }
      }
    }

    // ---- hotpath.hot-file-member ----
    // A file with HERMES_HOT regions keeps its queues and hooks on the
    // fast path even when the declaration itself sits in cold code; flag
    // member/alias declarations of the two heap-backed types the arena
    // refactor banished. std::function on an already-hot line is
    // kHotAlloc's finding, not ours.
    if (hot_file) {
      for (const std::string_view type :
           {std::string_view{"deque"}, std::string_view{"function"}}) {
        if (type == "function" && hot[i] != 0) continue;
        for (std::size_t pos = find_identifier(code, type); pos != std::string_view::npos;
             pos = find_identifier(code, type, pos + 1)) {
          if (qualifier_before(code, pos) != Qualifier::kStd) continue;
          if (!member_style_decl_after(code, pos + type.size())) continue;
          emit(kHotFileMember, i,
               "std::" + std::string(type) + " member in a HERMES_HOT file; use " +
                   (type == "deque" ? "a PacketRing/SoA ring (contiguous, index-based)"
                                    : "sim::InlineCallable (fixed inline storage)") +
                   " or annotate genuinely cold state with hermeslint:allow(<rule>) <why>");
        }
      }
    }

    // ---- header.using-namespace ----
    if (summary.is_header) {
      for (std::size_t pos = find_identifier(code, "using"); pos != std::string_view::npos;
           pos = find_identifier(code, "using", pos + 1)) {
        std::size_t next = pos + 5;
        while (next < code.size() && std::isspace(static_cast<unsigned char>(code[next])) != 0)
          ++next;
        if (matches_identifier_at(code, next, "namespace")) {
          emit(kHdrUsingNamespace, i,
               "using-namespace in a header injects names into every includer");
        }
      }
    }

    // ---- header.direct-include (std:: symbols) ----
    for (std::size_t pos = code.find("std::"); pos != std::string::npos;
         pos = code.find("std::", pos + 1)) {
      if (pos > 0 && (is_ident_char(code[pos - 1]) || code[pos - 1] == ':')) continue;
      for (const SymbolHeader& sh : kSymbolHeaders) {
        if (!matches_identifier_at(code, pos + 5, sh.symbol)) continue;
        if (includes.find(sh.header) != includes.end()) continue;
        const std::string key = std::string(sh.symbol);
        if (!reported_symbols.insert(key).second) continue;
        emit(kHdrDirectInclude, i,
             "std::" + key + " needs a direct #include <" + std::string(sh.header) +
                 "> (transitive includes are not guaranteed)");
      }
    }

    // ---- header.direct-include (indexed hermes namespaces) ----
    // The symbol index is computed from the lexed tree (exported_symbols
    // over every header), not hand-curated: any namespace-scope symbol of
    // an indexed namespace resolves to the header that defines it.
    for (const std::string_view full : kIndexedNamespaces) {
      const std::size_t sep = full.rfind("::");
      const std::string_view tail = full.substr(sep + 2);
      const std::string_view parent = ident_before(full, sep);
      const std::string pat = std::string(tail) + "::";
      for (std::size_t pos = code.find(pat); pos != std::string::npos;
           pos = code.find(pat, pos + 1)) {
        if (pos > 0) {
          const char prev = code[pos - 1];
          if (is_ident_char(prev)) continue;
          if (prev == ':') {
            // Accept only <parent>::<tail>:: — some_other_ns::obs:: is not ours.
            if (pos < 2 || code[pos - 2] != ':' || ident_before(code, pos - 2) != parent) {
              continue;
            }
          }
        }
        std::size_t b = pos + pat.size();
        std::size_t e = b;
        while (e < code.size() && is_ident_char(code[e])) ++e;
        if (e == b) continue;
        const std::string sym = code.substr(b, e - b);
        const std::string key = std::string(tail) + "::" + sym;
        const auto it = ctx.symbol_headers.find(key);
        if (it == ctx.symbol_headers.end()) continue;
        if (includes.find(it->second) != includes.end()) continue;
        if (include_path_of(path) == it->second) continue;  // the defining header itself
        if (!reported_symbols.insert(key).second) continue;
        emit(kHdrDirectInclude, i,
             key + " needs a direct #include \"" + it->second +
                 "\" (transitive includes are not guaranteed)");
      }
    }
  }

  // ---- header.pragma-once ----
  if (summary.is_header) {
    std::size_t first = lines.size();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (!is_blank(lines[i].code)) {
        first = i;
        break;
      }
    }
    const std::string_view head = first < lines.size() ? trim(lines[first].code) : std::string_view{};
    if (head.rfind("#pragma", 0) != 0 || head.find("once") == std::string_view::npos) {
      emit(kHdrPragmaOnce, first < lines.size() ? first : 0,
           "header must start with #pragma once");
    }
  }
}

}  // namespace hermes::lint
