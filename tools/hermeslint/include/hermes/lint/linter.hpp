#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "hermes/lint/lexer.hpp"
#include "hermes/lint/summary.hpp"

namespace hermes::lint {

/// One rule violation. `line` is 1-based.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string snippet;
};

/// A finding silenced by an in-source allow directive (the syntax is
/// `allow(<rule>) <reason>` after the tool's own name and a colon); kept
/// so reports can audit every suppression and its reason.
struct Suppression {
  std::string file;
  int line = 0;
  std::string rule;
  std::string reason;
};

struct LintResult {
  std::vector<Finding> findings;
  std::vector<Suppression> suppressed;
  int files_scanned = 0;
};

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

/// The rule catalogue (stable ids; these are what allow() refers to).
const std::vector<RuleInfo>& rule_catalogue();
bool is_known_rule(std::string_view id);

/// Project-specific static analysis over a set of C++ sources.
///
/// Two-phase: summarize() collects a file's cross-TU facts (unordered
/// names, exported symbols) from its lexed lines; build_context() folds
/// all summaries into the GlobalContext; lint_file() runs every rule pass
/// for one file under that context. Callers add_file() everything, then
/// run().
class Linter {
 public:
  /// `path` is used verbatim in findings; `source` is the file contents.
  void add_file(std::string path, std::string source);

  /// Findings and suppressions of every added file, in (file, line,
  /// rule) order.
  [[nodiscard]] LintResult run() const;

 private:
  static FileSummary summarize(const std::string& path, const std::vector<Line>& lines);
  static GlobalContext build_context(const std::vector<const FileSummary*>& summaries);
  static void lint_file(const std::string& path, const std::vector<Line>& lines,
                        const FileSummary& summary, const GlobalContext& ctx, LintResult& out);

  struct File {
    std::string path;
    std::vector<Line> lines;
    FileSummary summary;
  };

  std::vector<File> files_;
};

}  // namespace hermes::lint
