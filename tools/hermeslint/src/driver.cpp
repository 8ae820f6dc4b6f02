#include "hermes/lint/driver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hermes/lint/summary.hpp"

namespace hermes::lint {

namespace fs = std::filesystem;

namespace {

// hermeslint:allow(determinism.clock) the lint driver times its own wall clock for the --json timing report; tool code, not simulation code
using Clock = std::chrono::steady_clock;

bool skip_dir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name.empty() || name.front() == '.' || name.rfind("build", 0) == 0 ||
         name == "fixtures";
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
}

void collect(const fs::path& root, const fs::path& arg, std::vector<fs::path>& out) {
  const fs::path full = arg.is_absolute() ? arg : root / arg;
  if (fs::is_regular_file(full)) {
    out.push_back(full);
    return;
  }
  if (!fs::is_directory(full)) return;
  for (auto it = fs::recursive_directory_iterator(full);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory() && skip_dir(it->path())) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && lintable(it->path())) out.push_back(it->path());
  }
}

/// Per-file pipeline state.
struct Work {
  std::string rel;      ///< repo-relative path (used in findings)
  std::string content;  ///< raw bytes
  FileSummary summary;
  std::vector<Line> lines;
  LintResult local;  ///< findings/suppressions for this file only
};

/// Runs `fn(i)` for every i in [0, n) across up to `threads` workers.
void fan_out(std::size_t n, int threads, const std::function<void(std::size_t)>& fn) {
  const std::size_t workers =
      std::min<std::size_t>(std::max(threads, 1), n == 0 ? 1 : n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace

DriveResult drive(const DriveOptions& options) {
  const Clock::time_point t0 = Clock::now();
  DriveResult out;

  const fs::path root = options.root.empty() ? fs::path(".") : fs::path(options.root);
  std::vector<fs::path> files;
  for (const std::string& a : options.paths) collect(root, a, files);
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<Work> work(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    Work& w = work[i];
    w.rel = fs::relative(files[i], root).generic_string();
    std::ifstream in(files[i], std::ios::binary);
    if (!in) {
      out.io_error = true;
      continue;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    w.content = std::move(ss).str();
  }

  // Phase 1 (parallel): lex + summarize every file.
  fan_out(work.size(), options.threads, [&](std::size_t i) {
    Work& w = work[i];
    w.lines = Lexer::scan(w.content);
    w.summary = Linter::summarize(w.rel, w.lines);
  });

  // Phase 2: fold summaries into the whole-tree context.
  std::vector<const FileSummary*> sums;
  sums.reserve(work.size());
  for (const Work& w : work) sums.push_back(&w.summary);
  const GlobalContext ctx = Linter::build_context(sums, options.today);

  // Phase 3 (parallel): lint every file under that context.
  fan_out(work.size(), options.threads, [&](std::size_t i) {
    Work& w = work[i];
    Linter::lint_file(w.rel, w.lines, w.summary, ctx, w.local);
  });

  // Deterministic merge in sorted-path order, then canonical sort.
  out.result.files_scanned = static_cast<int>(work.size());
  out.timing.files_linted = out.result.files_scanned;
  for (Work& w : work) {
    std::move(w.local.findings.begin(), w.local.findings.end(),
              std::back_inserter(out.result.findings));
    std::move(w.local.suppressed.begin(), w.local.suppressed.end(),
              std::back_inserter(out.result.suppressed));
  }
  sort_result(out.result);

  out.timing.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return out;
}

}  // namespace hermes::lint
