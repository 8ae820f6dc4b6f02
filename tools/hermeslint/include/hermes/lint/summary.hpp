#pragma once

#include <map>
#include <string>
#include <vector>

namespace hermes::lint {

/// A symbol exported by a header at namespace scope: `ns` is the short
/// namespace tail the tree qualifies with (`obs`, `fuzz`, `lint`), `name`
/// the identifier. Collected by the graph pass from the lexed tree; the
/// pair keys the computed symbol index that replaced the hand-curated
/// direct-include maps.
struct SymbolDef {
  std::string ns;
  std::string name;
};

/// Everything a single file contributes to cross-translation-unit
/// analysis. Summaries are cheap and position-free: the whole-tree context (unordered names, shard-owned state, the
/// symbol index, the include graph) is rebuilt from summaries alone.
struct FileSummary {
  std::string path;
  std::string module;  ///< layering module ("sim", "net", ..., "" unknown)
  bool is_header = false;
  std::vector<std::string> includes;         ///< direct #include targets
  std::vector<std::string> unordered_names;  ///< declared unordered containers
  std::vector<std::string> shard_owned;      ///< HERMES_SHARD_OWNED members
  std::vector<SymbolDef> symbols;            ///< exported namespace-scope symbols
};

/// Whole-tree facts shared by every per-file rule pass.
struct GlobalContext {
  std::vector<std::string> unordered_names;  ///< sorted, unique
  std::vector<std::string> shard_owned;      ///< sorted, unique
  /// "ns::name" -> include path of the defining header.
  std::map<std::string, std::string> symbol_headers;
  /// ISO date (YYYY-MM-DD) used to judge suppression expiry; empty
  /// disables the expiry check.
  std::string today;
};

}  // namespace hermes::lint
