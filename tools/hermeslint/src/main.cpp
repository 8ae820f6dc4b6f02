// hermeslint — project-specific static analysis for the Hermes tree.
//
// Enforces the invariants the compiler cannot see (DESIGN.md "Static
// analysis & invariants"): fixed-seed determinism, HERMES_HOT allocation
// freedom, header hygiene, the layering DAG, shard-race and
// arena-lifetime dataflow. Token/AST-lite pass; no libclang.
//
//   hermeslint [--root=DIR] [--json[=FILE]] [--sarif=FILE]
//              [--today=YYYY-MM-DD] [--list-rules]
//              [--suppressions] [paths...]
//
// Paths default to src bench tests examples tools; directories are walked
// recursively for .hpp/.h/.cpp/.cc files. Exit status: 0 clean, 1
// findings, 2 usage/IO.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "hermes/lint/driver.hpp"
#include "hermes/lint/linter.hpp"
#include "hermes/lint/sarif.hpp"

namespace {

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  out << body;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  hermes::lint::DriveOptions opts;
  std::string json_path;
  std::string sarif_path;
  bool want_json = false;
  bool want_sarif = false;
  bool want_suppressions = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--root=", 0) == 0) {
      opts.root = a.substr(7);
    } else if (a == "--json") {
      want_json = true;
    } else if (a.rfind("--json=", 0) == 0) {
      want_json = true;
      json_path = a.substr(7);
    } else if (a.rfind("--sarif=", 0) == 0) {
      want_sarif = true;
      sarif_path = a.substr(8);
    } else if (a.rfind("--today=", 0) == 0) {
      opts.today = a.substr(8);
    } else if (a == "--suppressions") {
      want_suppressions = true;
    } else if (a == "--list-rules") {
      for (const auto& r : hermes::lint::rule_catalogue()) {
        std::printf("%-28s %s\n", std::string(r.id).c_str(), std::string(r.summary).c_str());
      }
      return 0;
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage: hermeslint [--root=DIR] [--json[=FILE]] [--sarif=FILE]\n"
          "                  [--today=YYYY-MM-DD] [--list-rules]\n"
          "                  [--suppressions] [paths...]\n");
      return 0;
    } else if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr, "hermeslint: unknown option '%s'\n", a.c_str());
      return 2;
    } else {
      opts.paths.push_back(a);
    }
  }
  if (opts.paths.empty()) opts.paths = {"src", "bench", "tests", "examples", "tools"};

  const hermes::lint::DriveResult drive = hermes::lint::drive(opts);
  if (drive.io_error) {
    std::fprintf(stderr, "hermeslint: could not read one or more input files\n");
    return 2;
  }
  if (drive.result.files_scanned == 0) {
    std::fprintf(stderr, "hermeslint: no lintable files under the given paths\n");
    return 2;
  }
  const hermes::lint::LintResult& result = drive.result;

  // With --json (no =FILE) the JSON owns stdout; the report moves to
  // stderr so `hermeslint --json | jq` just works.
  std::FILE* report = want_json && json_path.empty() ? stderr : stdout;
  for (const auto& f : result.findings) {
    std::fprintf(report, "%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                 f.message.c_str());
    if (!f.snippet.empty()) std::fprintf(report, "    %s\n", f.snippet.c_str());
  }
  if (want_suppressions) {
    for (const auto& s : result.suppressed) {
      const std::string tail = s.expires.empty() ? "" : " (expires " + s.expires + ")";
      std::fprintf(report, "%s:%d: [suppressed %s] %s%s\n", s.file.c_str(), s.line,
                   s.rule.c_str(), s.reason.c_str(), tail.c_str());
    }
  }
  std::fprintf(report, "hermeslint: %zu finding(s), %zu suppression(s), %d file(s) scanned\n",
               result.findings.size(), result.suppressed.size(), result.files_scanned);

  if (want_json) {
    const std::string json = hermes::lint::to_json(result);
    if (json_path.empty()) {
      std::fputs(json.c_str(), stdout);
    } else if (!write_file(json_path, json)) {
      std::fprintf(stderr, "hermeslint: cannot write %s\n", json_path.c_str());
      return 2;
    }
  }
  if (want_sarif && !write_file(sarif_path, hermes::lint::to_sarif(result))) {
    std::fprintf(stderr, "hermeslint: cannot write %s\n", sarif_path.c_str());
    return 2;
  }
  return result.findings.empty() ? 0 : 1;
}
