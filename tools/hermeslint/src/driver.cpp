#include "hermes/lint/driver.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace hermes::lint {

namespace fs = std::filesystem;

namespace {

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

}  // namespace

DriveResult drive(const DriveOptions& options) {
  DriveResult out;

  const fs::path root = options.root.empty() ? fs::path(".") : fs::path(options.root);
  std::vector<fs::path> files;
  for (const std::string& a : options.paths) collect(root, a, files);
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  Linter linter;
  linter.set_today(options.today);
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      out.io_error = true;
      continue;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    linter.add_file(fs::relative(file, root).generic_string(), std::move(ss).str());
  }
  out.result = linter.run();
  return out;
}

}  // namespace hermes::lint
