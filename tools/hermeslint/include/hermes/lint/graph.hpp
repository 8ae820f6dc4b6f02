#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "hermes/lint/lexer.hpp"
#include "hermes/lint/summary.hpp"

namespace hermes::lint {

/// The namespaces whose symbols header.direct-include indexes, spelled in
/// full. A use qualifies a symbol by the last component (`obs::X`), and
/// the component before it (`hermes::obs::X`, `faults::fuzz::Y`) tells
/// ours apart from another scope with the same tail.
inline constexpr std::string_view kIndexedNamespaces[] = {
    "hermes::obs",
    "hermes::faults::fuzz",
    "hermes::lint",
};

/// Namespace-scope symbols exported by a lexed header. Tracks namespace
/// and brace nesting so class members are not collected; records classes,
/// structs, enums, using-aliases, constants, and free-function names
/// declared while the innermost open scope is one of kIndexedNamespaces.
std::vector<SymbolDef> exported_symbols(const std::string& path, const std::vector<Line>& lines);

/// The include path other files must name to get `path`'s symbols:
/// ".../include/hermes/obs/metrics.hpp" -> "hermes/obs/metrics.hpp".
/// Empty when the path has no include/ segment.
std::string include_path_of(std::string_view path);

}  // namespace hermes::lint
