#pragma once

#include <string>
#include <vector>

#include "hermes/lint/linter.hpp"

namespace hermes::lint {

/// One lint drive: discover files under root, then lint them all with
/// one Linter.
struct DriveOptions {
  std::string root = ".";           ///< tree root; result paths are relative to it
  std::vector<std::string> paths;   ///< files or directories, relative to root
};

struct DriveResult {
  LintResult result;
  bool io_error = false;  ///< an input file could not be read
};

/// Discovers the files and runs Linter::run over them: per-file summaries
/// fold into one whole-tree context, and every file is linted under it,
/// so a cross-file fact (an unordered container declared elsewhere)
/// reaches every file that uses it.
DriveResult drive(const DriveOptions& options);

}  // namespace hermes::lint
