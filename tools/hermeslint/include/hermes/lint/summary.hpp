#pragma once

#include <map>
#include <string>
#include <vector>

namespace hermes::lint {

/// A symbol exported by a header at namespace scope: `ns` is the short
/// namespace tail the tree qualifies with (`obs`, `fuzz`, `lint`), `name`
/// the identifier. Collected from the lexed tree; the pair keys the
/// computed symbol index that header.direct-include reads.
struct SymbolDef {
  std::string ns;
  std::string name;
};

/// Everything a single file contributes to cross-translation-unit
/// analysis. Summaries are cheap and position-free: the whole-tree
/// context (unordered names, the symbol index) is rebuilt from summaries
/// alone.
struct FileSummary {
  std::string path;
  bool is_header = false;
  std::vector<std::string> unordered_names;  ///< declared unordered containers
  std::vector<std::string> ordered_names;    ///< declared with any other std:: template
  std::vector<SymbolDef> symbols;            ///< exported namespace-scope symbols
};

/// Whole-tree facts shared by every per-file rule pass.
struct GlobalContext {
  std::vector<std::string> unordered_names;  ///< sorted, unique
  /// "ns::name" -> include path of the defining header.
  std::map<std::string, std::string> symbol_headers;
};

}  // namespace hermes::lint
