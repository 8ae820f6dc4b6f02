#include "hermes/lint/linter.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hermes/lint/dataflow.hpp"
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
constexpr std::string_view kObsPodRecord = "obs.pod-record";
constexpr std::string_view kSimShardRace = "sim.shard-race";
constexpr std::string_view kCoreArenaLifetime = "core.arena-lifetime";
constexpr std::string_view kSimFloatOrder = "sim.float-order";
constexpr std::string_view kArchLayering = "arch.layering";
constexpr std::string_view kMetaSuppression = "meta.suppression";

const std::vector<RuleInfo> kCatalogue = {
    {kDetRand,
     "rand()/srand()/random_device and friends banned; use hermes::engine::Rng streams"},
    {kDetClock,
     "wall clocks (system/steady/high_resolution_clock, time()) banned; use "
     "sim::Simulator::now() / SimTime"},
    {kDetUnorderedIter,
     "range-for over a std::unordered_* container feeds hash order into results; "
     "iterate a sorted view instead"},
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
    {kObsPodRecord,
     "HERMES_POD_RECORD structs are memcpy'd into the flight-recorder ring and dumped "
     "raw; heap-owning members (std::string, containers, smart pointers) are banned"},
    {kSimShardRace,
     "HERMES_SHARDED barrier code must not touch another shard's state: Port/Host "
     "pointer dereferences (including escaped aliases) and subscripts of "
     "HERMES_SHARD_OWNED state without shard provenance race the owning shard's event "
     "stream"},
    {kCoreArenaLifetime,
     "an ArenaHandle (and any Packet reference derived from it) is dead once the arena "
     "frees the slot or resets; later uses read recycled bytes, and handles cached "
     "across a barrier round outlive their slot"},
    {kSimFloatOrder,
     "floating-point accumulation over unordered-container iteration sums in hash "
     "order; iterate a sorted view or accumulate integers"},
    {kArchLayering,
     "module includes must respect the layering DAG (sim/obs at the bottom, then net, "
     "lb, core/transport/faults, stats/workload, harness, bench/tools); every edge "
     "points strictly down-rank"},
    {kMetaSuppression,
     "allow directives must name known rules (once each per line), carry a written "
     "reason, and any expires(YYYY-MM-DD) clause must be well-formed and in the future"},
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

/// Namespaces whose exported symbols are collected into the computed
/// cross-TU symbol index (header.direct-include). The `parent` is the
/// enclosing namespace a fully-qualified use spells before the tail
/// (`hermes::obs::X`, `faults::fuzz::Y`): any other scope with the same
/// tail name is not ours.
struct NsScope {
  std::string_view tail;
  std::string_view parent;
};
constexpr NsScope kIndexedNs[] = {
    {"obs", "hermes"},
    {"fuzz", "faults"},
    {"lint", "hermes"},
};

/// Member types banned inside HERMES_POD_RECORD structs (obs.pod-record):
/// anything that owns heap memory or is not trivially copyable. Records
/// are written to the ring with operator= on a raw 64-byte struct and
/// fwrite'n to disk, so a heap-owning member is silent corruption.
constexpr std::string_view kHeapOwningTypes[] = {
    "string",        "vector",        "deque",         "list",
    "forward_list",  "map",           "multimap",      "set",
    "multiset",      "unordered_map", "unordered_multimap",
    "unordered_set", "unordered_multiset",
    "function",      "unique_ptr",    "shared_ptr",    "weak_ptr",
    "any",
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
  std::map<std::size_t, std::string> allow_expires;                 ///< line -> ISO date
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

/// True when `date` is a well-formed YYYY-MM-DD.
bool is_iso_date(std::string_view date) {
  if (date.size() != 10 || date[4] != '-' || date[7] != '-') return false;
  for (const std::size_t i : {0U, 1U, 2U, 3U, 5U, 6U, 8U, 9U}) {
    if (std::isdigit(static_cast<unsigned char>(date[i])) == 0) return false;
  }
  return true;
}

Directives parse_directives(const std::string& path, const std::vector<Line>& lines,
                            std::string_view today, std::vector<Finding>& meta) {
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
          // Optional expiry clause inside the reason: expires(YYYY-MM-DD).
          const std::size_t exp = reason.find("expires(");
          if (exp != std::string::npos) {
            const std::size_t eclose = reason.find(')', exp);
            const std::string_view date =
                eclose == std::string::npos
                    ? std::string_view{}
                    : trim(std::string_view{reason}.substr(exp + 8, eclose - exp - 8));
            if (!is_iso_date(date)) {
              meta.push_back({path, line_no, std::string(kMetaSuppression),
                              "malformed expires clause: want expires(YYYY-MM-DD)",
                              std::string(trim(c))});
            } else {
              d.allow_expires[target] = std::string(date);
              if (!today.empty() && today > date) {
                meta.push_back({path, line_no, std::string(kMetaSuppression),
                                "suppression expired on " + std::string(date) +
                                    "; re-audit the site and renew or fix it",
                                std::string(trim(c))});
              }
            }
          }
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

/// Marks the lines covered by `// <tag>` comments: a tag before any code
/// covers the whole file (when `file_scope` is allowed); a tag elsewhere
/// covers the next brace block (i.e. the function or struct that follows
/// it). Only a comment that *starts* with the tag counts — prose that
/// merely mentions the marker is not a tag.
std::vector<char> tag_mask(const std::vector<Line>& lines, std::string_view tag,
                           bool file_scope) {
  std::vector<char> hot(lines.size(), 0);
  bool code_seen = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view ctext = trim(lines[i].comment);
    const bool tagged = ctext.rfind(tag, 0) == 0 &&
                        (ctext.size() == tag.size() || !is_ident_char(ctext[tag.size()]));
    if (tagged && file_scope && !code_seen && is_blank(lines[i].code)) {
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

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Names of variables lexically declared as `Port*` / `Host*` (any
/// qualification; `net::Port* p`, `Port *p`, `Port* const p`) anywhere in
/// the file. sim.shard-race flags dereferences of these names (and their
/// escaped aliases) inside HERMES_SHARDED regions: barrier-time code must
/// not reach into another shard's switches or hosts directly.
std::vector<std::string> boundary_pointer_names(const std::vector<Line>& lines) {
  std::vector<std::string> names;
  for (const Line& line : lines) {
    const std::string& code = line.code;
    for (const std::string_view type : {std::string_view{"Port"}, std::string_view{"Host"}}) {
      for (std::size_t pos = find_identifier(code, type); pos != std::string_view::npos;
           pos = find_identifier(code, type, pos + 1)) {
        std::size_t p = pos + type.size();
        while (p < code.size() && std::isspace(static_cast<unsigned char>(code[p])) != 0) ++p;
        if (p >= code.size() || code[p] != '*') continue;
        ++p;
        while (p < code.size() && (std::isspace(static_cast<unsigned char>(code[p])) != 0 ||
                                   code[p] == '*')) {
          ++p;
        }
        if (matches_identifier_at(code, p, "const")) {
          p += 5;
          while (p < code.size() && std::isspace(static_cast<unsigned char>(code[p])) != 0) ++p;
        }
        std::size_t end = p;
        while (end < code.size() && is_ident_char(code[end])) ++end;
        if (end > p) names.emplace_back(code.substr(p, end - p));
      }
    }
  }
  return names;
}

/// The direct #include targets of a file with the 0-based line of each.
/// Parsed from the raw line: the lexer strips string literals out of
/// `code`, which would erase the path of quoted ("hermes/...") includes.
std::vector<std::pair<std::string, std::size_t>> include_targets(const std::vector<Line>& lines) {
  std::vector<std::pair<std::string, std::size_t>> out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view code = trim(lines[i].raw);
    if (code.rfind("#", 0) != 0) continue;
    std::string_view rest = trim(code.substr(1));
    if (rest.rfind("include", 0) != 0) continue;
    rest = trim(rest.substr(7));
    if (rest.size() < 2) continue;
    const char close = rest.front() == '<' ? '>' : (rest.front() == '"' ? '"' : '\0');
    if (close == '\0') continue;
    const std::size_t end = rest.find(close, 1);
    if (end != std::string_view::npos) out.emplace_back(std::string(rest.substr(1, end - 1)), i);
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

void Linter::set_today(std::string iso_date) { today_ = std::move(iso_date); }

FileSummary Linter::summarize(const std::string& path, const std::vector<Line>& lines) {
  FileSummary s;
  s.path = path;
  s.module = module_of_path(path);
  s.is_header = ends_with(path, ".hpp") || ends_with(path, ".h");
  for (const auto& inc : include_targets(lines)) s.includes.push_back(inc.first);

  // Unordered-container variable names (cross-file: iteration over them is
  // flagged wherever it happens, not just in the declaring file).
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const std::string_view type : kUnorderedTypes) {
      for (std::size_t pos = find_identifier(lines[i].code, type); pos != std::string_view::npos;
           pos = find_identifier(lines[i].code, type, pos + 1)) {
        // Join ahead so multi-line template argument lists still parse.
        const std::string decl = joined_code(lines, i, 6);
        const std::size_t at = find_identifier(decl, type);
        if (at == std::string_view::npos) continue;
        std::size_t open = at + type.size();
        while (open < decl.size() && std::isspace(static_cast<unsigned char>(decl[open])) != 0)
          ++open;
        if (open >= decl.size() || decl[open] != '<') continue;
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
        if (end > after) {
          s.unordered_names.emplace_back(decl.substr(after, end - after));
        }
        break;  // one declaration per matched type occurrence is enough
      }
    }
  }

  // HERMES_SHARD_OWNED annotations: the tagged member declaration names a
  // per-shard container whose subscripts need shard provenance.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view ctext = trim(lines[i].comment);
    constexpr std::string_view kTag = "HERMES_SHARD_OWNED";
    const bool tagged = ctext.rfind(kTag, 0) == 0 &&
                        (ctext.size() == kTag.size() || !is_ident_char(ctext[kTag.size()]));
    if (!tagged) continue;
    const std::size_t target = directive_target(lines, i);
    const std::string decl = joined_code(lines, target, 4);
    const std::size_t semi = decl.find(';');
    if (semi == std::string::npos) continue;
    std::size_t e = semi;
    while (e > 0 && !is_ident_char(decl[e - 1])) --e;
    const std::string_view name = ident_before(decl, e);
    if (!name.empty() && std::isdigit(static_cast<unsigned char>(name.front())) == 0) {
      s.shard_owned.emplace_back(name);
    }
  }

  s.symbols = exported_symbols(path, lines);
  return s;
}

GlobalContext Linter::build_context(const std::vector<const FileSummary*>& summaries,
                                    std::string today) {
  GlobalContext ctx;
  ctx.today = std::move(today);
  // Deterministic regardless of discovery order: fold by sorted path.
  std::vector<const FileSummary*> sorted = summaries;
  std::sort(sorted.begin(), sorted.end(),
            [](const FileSummary* a, const FileSummary* b) { return a->path < b->path; });
  std::set<std::string> unordered;
  std::set<std::string> owned;
  for (const FileSummary* s : sorted) {
    unordered.insert(s->unordered_names.begin(), s->unordered_names.end());
    owned.insert(s->shard_owned.begin(), s->shard_owned.end());
    if (s->symbols.empty()) continue;
    const std::string header = include_path_of(s->path);
    if (header.empty()) continue;
    for (const SymbolDef& d : s->symbols) {
      // First writer (lexicographically smallest path) wins on conflicts.
      ctx.symbol_headers.emplace(d.ns + "::" + d.name, header);
    }
  }
  ctx.unordered_names.assign(unordered.begin(), unordered.end());
  ctx.shard_owned.assign(owned.begin(), owned.end());
  return ctx;
}

LintResult Linter::run() const {
  std::vector<const FileSummary*> sums;
  sums.reserve(files_.size());
  for (const File& f : files_) sums.push_back(&f.summary);
  const GlobalContext ctx = build_context(sums, today_);
  LintResult out;
  out.files_scanned = static_cast<int>(files_.size());
  for (const File& f : files_) {
    lint_file(f.path, f.lines, f.summary, ctx, out);
  }
  sort_result(out);
  return out;
}

void sort_result(LintResult& out) {
  std::sort(out.findings.begin(), out.findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });
  std::sort(out.suppressed.begin(), out.suppressed.end(),
            [](const Suppression& a, const Suppression& b) {
              return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
            });
}

void Linter::lint_file(const std::string& path, const std::vector<Line>& lines,
                       const FileSummary& summary, const GlobalContext& ctx, LintResult& out) {
  std::vector<Finding> meta;
  const Directives dir = parse_directives(path, lines, ctx.today, meta);
  for (Finding& m : meta) out.findings.push_back(std::move(m));
  const std::vector<char> hot = tag_mask(lines, "HERMES_HOT", /*file_scope=*/true);
  const std::vector<char> pod = tag_mask(lines, "HERMES_POD_RECORD", /*file_scope=*/false);
  const std::vector<char> sharded = tag_mask(lines, "HERMES_SHARDED", /*file_scope=*/true);
  const bool hot_file = std::any_of(hot.begin(), hot.end(), [](char h) { return h != 0; });
  const bool sharded_any =
      std::any_of(sharded.begin(), sharded.end(), [](char s) { return s != 0; });
  const std::vector<std::string> shard_ptrs =
      sharded_any ? boundary_pointer_names(lines) : std::vector<std::string>{};

  // Routes a raw finding through the suppression table.
  auto emit = [&](std::string_view rule, std::size_t line0, std::string message) {
    const auto it = dir.allow.find(line0);
    if (it != dir.allow.end() && it->second.find(rule) != it->second.end()) {
      const auto reason = dir.allow_reason.find(line0);
      const auto expires = dir.allow_expires.find(line0);
      out.suppressed.push_back({path, static_cast<int>(line0 + 1), std::string(rule),
                                reason != dir.allow_reason.end() ? reason->second : "",
                                expires != dir.allow_expires.end() ? expires->second : ""});
      return;
    }
    out.findings.push_back({path, static_cast<int>(line0 + 1), std::string(rule),
                            std::move(message),
                            line0 < lines.size() ? std::string(trim(lines[line0].raw)) : ""});
  };

  const std::vector<std::pair<std::string, std::size_t>> includes_at = include_targets(lines);
  std::set<std::string, std::less<>> includes;
  for (const auto& [inc, line0] : includes_at) includes.insert(inc);

  // ---- arch.layering ----
  // Cross-TU: the file's module may only include hermes headers of
  // strictly lower rank (or its own module). Computed from the include
  // graph, not a hand-curated map.
  const int my_rank = layer_rank(summary.module);
  if (!summary.module.empty() && my_rank >= 0) {
    for (const auto& [inc, line0] : includes_at) {
      const std::string target = module_of_include(inc);
      if (target.empty() || target == summary.module) continue;
      const int target_rank = layer_rank(target);
      if (target_rank < 0 || target_rank < my_rank) continue;
      std::string msg = "layering violation: module '" + summary.module + "' (rank " +
                        std::to_string(my_rank) + ") must not include \"" + inc +
                        "\" (module '" + target + "', rank " + std::to_string(target_rank) +
                        "); edges point strictly down-rank";
      const std::vector<std::string> legal = legal_path(target, summary.module);
      if (!legal.empty()) {
        msg += " — the legal direction is ";
        for (std::size_t k = 0; k < legal.size(); ++k) {
          if (k > 0) msg += " -> ";
          msg += legal[k];
        }
        msg += "; invert the dependency or move the shared piece below rank " +
               std::to_string(my_rank);
      } else {
        msg += " — same-rank modules are siblings; factor the shared piece into a lower "
               "layer instead of coupling them";
      }
      emit(kArchLayering, line0, std::move(msg));
    }
  }

  std::set<std::string, std::less<>> reported_symbols;

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
      if (!name.empty() &&
          std::find(ctx.unordered_names.begin(), ctx.unordered_names.end(), name) !=
              ctx.unordered_names.end()) {
        emit(kDetUnorderedIter, i,
             "range-for over unordered container '" + name +
                 "' leaks hash order; iterate sorted keys (or a sorted snapshot) "
                 "before feeding results");
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
               "std::function may heap-allocate its callable; use sim::InlineFunction "
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

    // ---- obs.pod-record ----
    if (pod[i] != 0) {
      for (std::size_t pos = code.find("std::"); pos != std::string::npos;
           pos = code.find("std::", pos + 1)) {
        if (pos > 0 && (is_ident_char(code[pos - 1]) || code[pos - 1] == ':')) continue;
        for (const std::string_view banned : kHeapOwningTypes) {
          if (!matches_identifier_at(code, pos + 5, banned)) continue;
          emit(kObsPodRecord, i,
               "std::" + std::string(banned) + " in a HERMES_POD_RECORD struct owns heap "
               "memory; trace records are memcpy'd and dumped raw, so members must be "
               "fixed-size trivially-copyable scalars (intern strings via obs::StringTable)");
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
    for (const NsScope& ns : kIndexedNs) {
      const std::string pat = std::string(ns.tail) + "::";
      for (std::size_t pos = code.find(pat); pos != std::string::npos;
           pos = code.find(pat, pos + 1)) {
        if (pos > 0) {
          const char prev = code[pos - 1];
          if (is_ident_char(prev)) continue;
          if (prev == ':') {
            // Accept only <parent>::<tail>:: — some_other_ns::obs:: is not ours.
            if (pos < 2 || code[pos - 2] != ':' || ident_before(code, pos - 2) != ns.parent) {
              continue;
            }
          }
        }
        std::size_t b = pos + pat.size();
        std::size_t e = b;
        while (e < code.size() && is_ident_char(code[e])) ++e;
        if (e == b) continue;
        const std::string sym = code.substr(b, e - b);
        const auto it = ctx.symbol_headers.find(std::string(ns.tail) + "::" + sym);
        if (it == ctx.symbol_headers.end()) continue;
        if (includes.find(it->second) != includes.end()) continue;
        if (include_path_of(path) == it->second) continue;  // the defining header itself
        if (!reported_symbols.insert(std::string(ns.tail) + "::" + sym).second) continue;
        emit(kHdrDirectInclude, i,
             std::string(ns.tail) + "::" + sym + " needs a direct #include \"" + it->second +
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

  // ---- dataflow rules: sim.shard-race / core.arena-lifetime /
  // ---- sim.float-order ----
  // One per-function token CFG serves all three analyses.
  const std::vector<Function> functions = extract_functions(lines);
  for (const Function& fn : functions) {
    check_arena_lifetime(fn, sharded, [&](int line0, const std::string& msg) {
      emit(kCoreArenaLifetime, static_cast<std::size_t>(line0), msg);
    });
    check_shard_indexing(fn, ctx.shard_owned, [&](int line0, const std::string& msg) {
      emit(kSimShardRace, static_cast<std::size_t>(line0), msg);
    });
    if (sharded_any) {
      check_shard_ptr_escape(fn, sharded, shard_ptrs, [&](int line0, const std::string& msg) {
        emit(kSimShardRace, static_cast<std::size_t>(line0), msg);
      });
    }
    check_float_order(fn, ctx.unordered_names, [&](int line0, const std::string& msg) {
      emit(kSimFloatOrder, static_cast<std::size_t>(line0), msg);
    });
  }
}

std::string to_json(const LintResult& r, const LintTiming* timing) {
  std::string s = "{\n  \"tool\": \"hermeslint\",\n  \"schema_version\": 2,\n";
  s += "  \"files_scanned\": " + std::to_string(r.files_scanned) + ",\n";
  s += "  \"clean\": " + std::string(r.findings.empty() ? "true" : "false") + ",\n";
  if (timing != nullptr) {
    s += "  \"timing\": {\"wall_ms\": " + std::to_string(timing->wall_ms) +
         ", \"files_linted\": " + std::to_string(timing->files_linted) + "},\n";
  }
  s += "  \"findings\": [";
  for (std::size_t i = 0; i < r.findings.size(); ++i) {
    const Finding& f = r.findings[i];
    s += i == 0 ? "\n" : ",\n";
    s += "    {\"file\": \"" + json_escape(f.file) + "\", \"line\": " + std::to_string(f.line) +
         ", \"rule\": \"" + json_escape(f.rule) + "\", \"message\": \"" + json_escape(f.message) +
         "\", \"snippet\": \"" + json_escape(f.snippet) + "\"}";
  }
  s += r.findings.empty() ? "],\n" : "\n  ],\n";
  s += "  \"suppressed\": [";
  for (std::size_t i = 0; i < r.suppressed.size(); ++i) {
    const Suppression& sp = r.suppressed[i];
    s += i == 0 ? "\n" : ",\n";
    s += "    {\"file\": \"" + json_escape(sp.file) + "\", \"line\": " + std::to_string(sp.line) +
         ", \"rule\": \"" + json_escape(sp.rule) + "\", \"reason\": \"" + json_escape(sp.reason) +
         "\", \"expires\": \"" + json_escape(sp.expires) + "\"}";
  }
  s += r.suppressed.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return s;
}

}  // namespace hermes::lint
