// Fixture-driven tests for hermeslint: each rule must catch its seeded
// violation, stay quiet on the clean twin, honor suppressions, carry
// cross-file context through the driver, and emit the documented SARIF
// shape.
#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hermes/lint/driver.hpp"
#include "hermes/lint/graph.hpp"
#include "hermes/lint/lexer.hpp"
#include "hermes/lint/linter.hpp"
#include "hermes/lint/sarif.hpp"

namespace {

namespace fs = std::filesystem;

using hermes::lint::Lexer;
using hermes::lint::Line;
using hermes::lint::Linter;
using hermes::lint::LintResult;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing file " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

std::string read_fixture(const std::string& name) {
  return read_file(std::string(HERMESLINT_FIXTURE_DIR) + "/" + name);
}

/// Lints one fixture in isolation (fresh Linter, so unordered-container
/// names collected from other fixtures cannot leak in).
LintResult lint_fixture(const std::string& name) {
  Linter linter;
  linter.add_file(name, read_fixture(name));
  return linter.run();
}

int count_rule(const LintResult& r, const std::string& rule) {
  return static_cast<int>(std::count_if(r.findings.begin(), r.findings.end(),
                                        [&](const auto& f) { return f.rule == rule; }));
}

/// The findings in the CLI's one-line form, for failure messages.
std::string dump(const LintResult& r) {
  std::string out;
  for (const auto& f : r.findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " + f.message + "\n";
  }
  return out;
}

void write_file(const fs::path& path, const std::string& body) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

// ---------------------------------------------------------------------- lexer

TEST(LexerTest, StripsCommentsAndStringsButKeepsPositions) {
  const auto lines = Lexer::scan("int x = 1; // rand()\nconst char* s = \"new int\";\n");
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0].code.substr(0, 10), "int x = 1;");
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  EXPECT_NE(lines[0].comment.find("rand()"), std::string::npos);
  EXPECT_EQ(lines[1].code.find("new"), std::string::npos);
  EXPECT_EQ(lines[1].raw, "const char* s = \"new int\";");
}

TEST(LexerTest, BlockCommentsSpanLines) {
  const auto lines = Lexer::scan("/* new\nrand()\n*/ int y;\n");
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0].code.find("new"), std::string::npos);
  EXPECT_EQ(lines[1].code.find("rand"), std::string::npos);
  EXPECT_NE(lines[1].comment.find("rand()"), std::string::npos);
  EXPECT_NE(lines[2].code.find("int y;"), std::string::npos);
}

TEST(LexerTest, RawStringsAndCharLiterals) {
  const auto lines = Lexer::scan("auto r = R\"(new rand())\"; char c = 'n'; int z = 1'000;\n");
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  EXPECT_NE(lines[0].code.find("int z = 1'000;"), std::string::npos);
}

// ------------------------------------------------------------- rule fixtures

TEST(HermeslintRules, DetRandCatchesSeededViolations) {
  const LintResult r = lint_fixture("det_rand_bad.cpp");
  EXPECT_GE(count_rule(r, "determinism.rand"), 4) << "rand, std::rand, srand, random_device";
  EXPECT_EQ(count_rule(r, "determinism.clock"), 0);
}

TEST(HermeslintRules, DetRandQuietOnCleanTwin) {
  const LintResult r = lint_fixture("det_rand_clean.cpp");
  EXPECT_EQ(count_rule(r, "determinism.rand"), 0) << dump(r);
}

TEST(HermeslintRules, DetClockCatchesSeededViolations) {
  const LintResult r = lint_fixture("det_clock_bad.cpp");
  // system/steady/high_resolution_clock + free time() + std::time().
  EXPECT_GE(count_rule(r, "determinism.clock"), 5);
}

TEST(HermeslintRules, DetClockQuietOnCleanTwin) {
  const LintResult r = lint_fixture("det_clock_clean.cpp");
  EXPECT_EQ(count_rule(r, "determinism.clock"), 0) << dump(r);
}

TEST(HermeslintRules, UnorderedIterCatchesSeededViolations) {
  const LintResult r = lint_fixture("det_unordered_bad.cpp");
  // Two range-fors + one std::accumulate over .begin()/.end().
  EXPECT_EQ(count_rule(r, "determinism.unordered-iter"), 3) << dump(r);
}

TEST(HermeslintRules, UnorderedIterQuietOnCleanTwin) {
  const LintResult r = lint_fixture("det_unordered_clean.cpp");
  EXPECT_EQ(count_rule(r, "determinism.unordered-iter"), 0) << dump(r);
}

TEST(HermeslintRules, UnorderedIterSeesDeclarationsAcrossFiles) {
  // The header declares the container; the .cpp iterates it. The pass is
  // global, mirroring scenario.cpp iterating a member declared in its .hpp.
  Linter linter;
  linter.add_file("holder.hpp",
                  "#pragma once\n#include <unordered_map>\n"
                  "struct H { std::unordered_map<int, int> cross_file_map_; };\n");
  linter.add_file("user.cpp",
                  "#include <vector>\n#include \"holder.hpp\"\n"
                  "int sum(const H& h) {\n  int s = 0;\n"
                  "  for (const auto& [k, v] : h.cross_file_map_) s += v;\n  return s;\n}\n");
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "determinism.unordered-iter"), 1) << dump(r);
  ASSERT_GE(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].file, "user.cpp");
}

TEST(HermeslintRules, HotAllocCatchesSeededViolations) {
  const LintResult r = lint_fixture("hot_alloc_bad.cpp");
  // new + make_shared + make_unique + std::function.
  EXPECT_GE(count_rule(r, "hotpath.alloc"), 4) << dump(r);
  // The untagged cold_setup() `new` must NOT be flagged.
  const bool cold_flagged =
      std::any_of(r.findings.begin(), r.findings.end(), [](const auto& f) {
        return f.snippet.find("cold_setup") != std::string::npos;
      });
  EXPECT_FALSE(cold_flagged);
}

TEST(HermeslintRules, HotAllocQuietOnCleanTwin) {
  const LintResult r = lint_fixture("hot_alloc_clean.cpp");
  EXPECT_EQ(count_rule(r, "hotpath.alloc"), 0) << dump(r);
  EXPECT_EQ(count_rule(r, "hotpath.container-growth"), 0) << dump(r);
}

TEST(HermeslintRules, HotGrowthNeedsAudit) {
  const LintResult bad = lint_fixture("hot_growth_bad.cpp");
  EXPECT_EQ(count_rule(bad, "hotpath.container-growth"), 1) << dump(bad);
  const LintResult audited = lint_fixture("hot_growth_audited.cpp");
  EXPECT_EQ(count_rule(audited, "hotpath.container-growth"), 0) << dump(audited);
  EXPECT_TRUE(audited.findings.empty()) << dump(audited);
}

TEST(HermeslintRules, HotFileMemberCatchesDequeAndFunctionDeclarations) {
  const LintResult r = lint_fixture("hot_file_member_bad.cpp");
  // Hook alias + queue_ member + hook_ member; the parameter and the
  // call-site use must not fire.
  EXPECT_EQ(count_rule(r, "hotpath.hot-file-member"), 3) << dump(r);
  const bool param_flagged =
      std::any_of(r.findings.begin(), r.findings.end(), [](const auto& f) {
        return f.snippet.find("install") != std::string::npos;
      });
  EXPECT_FALSE(param_flagged) << dump(r);
}

TEST(HermeslintRules, HotFileMemberQuietWithoutHotRegion) {
  const LintResult r = lint_fixture("hot_file_member_clean.cpp");
  EXPECT_EQ(count_rule(r, "hotpath.hot-file-member"), 0) << dump(r);
}

TEST(HermeslintRules, HotFileMemberSuppressibleWithReason) {
  Linter linter;
  linter.add_file("hot_with_cold_member.cpp",
                  "#include <functional>\n"
                  "struct S {\n"
                  "  // HERMES_HOT\n"
                  "  void fast() {}\n"
                  "  // hermeslint:allow(hotpath.hot-file-member) pull-model stats, read "
                  "once per report\n"
                  "  std::function<int()> reader_;\n"
                  "};\n");
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "hotpath.hot-file-member"), 0) << dump(r);
  EXPECT_EQ(r.suppressed.size(), 1u) << dump(r);
}

TEST(HermeslintRules, FileScopeHotTagCoversWholeFile) {
  Linter linter;
  linter.add_file("hot_file.cpp",
                  "// HERMES_HOT\n#include <memory>\n"
                  "int* a() { return new int(1); }\n"
                  "auto b() { return std::make_unique<int>(2); }\n");
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "hotpath.alloc"), 2) << dump(r);
}

TEST(HermeslintRules, HeaderHygieneCatchesSeededViolations) {
  const LintResult r = lint_fixture("hdr_bad.hpp");
  EXPECT_EQ(count_rule(r, "header.pragma-once"), 1) << dump(r);
  EXPECT_EQ(count_rule(r, "header.using-namespace"), 1) << dump(r);
  // std::vector and std::unique_ptr lack direct includes; std::map has one.
  EXPECT_EQ(count_rule(r, "header.direct-include"), 2) << dump(r);
}

TEST(HermeslintRules, HeaderHygieneQuietOnCleanTwin) {
  const LintResult r = lint_fixture("hdr_clean.hpp");
  EXPECT_TRUE(r.findings.empty()) << dump(r);
}

// ------------------------------------------------------- computed symbol index

TEST(HermeslintRules, ObsSymbolsNeedDirectIncludes) {
  // The index is computed from the lexed headers added to the run, not a
  // hand-curated table: FlightRecorder and MetricsRegistry resolve to the
  // headers that define them.
  Linter linter;
  linter.add_file("src/obs/include/hermes/obs/flight_recorder.hpp",
                  "#pragma once\nnamespace hermes::obs {\nclass FlightRecorder {};\n}\n");
  linter.add_file("src/obs/include/hermes/obs/metrics.hpp",
                  "#pragma once\nnamespace hermes::obs {\nclass MetricsRegistry {};\n}\n");
  linter.add_file("user.hpp",
                  "#pragma once\n#include \"hermes/obs/flight_recorder.hpp\"\n"
                  "struct S {\n"
                  "  obs::FlightRecorder* rec = nullptr;\n"          // included: quiet
                  "  void wire(hermes::obs::MetricsRegistry& m);\n"  // missing metrics.hpp
                  "};\n");
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "header.direct-include"), 1) << dump(r);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_NE(r.findings[0].message.find("hermes/obs/metrics.hpp"), std::string::npos)
      << dump(r);
}

TEST(HermeslintRules, DefiningHeaderDoesNotNeedItsOwnInclude) {
  Linter linter;
  linter.add_file("src/obs/include/hermes/obs/metrics.hpp",
                  "#pragma once\nnamespace hermes::obs {\nclass MetricsRegistry {};\n"
                  "inline obs::MetricsRegistry* self();\n}\n");
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "header.direct-include"), 0) << dump(r);
}

TEST(HermeslintRules, UsingNamespaceAllowedInSourceFiles) {
  Linter linter;
  linter.add_file("impl.cpp", "#include <vector>\nusing namespace std;\nvector<int> v;\n");
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "header.using-namespace"), 0) << dump(r);
}

// ----------------------------------------------------------------- graph unit

TEST(HermeslintGraph, ExportedSymbolsAndIncludePaths) {
  const auto lines = Lexer::scan(
      "#pragma once\n"
      "namespace hermes::obs {\n"
      "class FlightRecorder { public: void dump(); };\n"
      "struct TraceRecord { int id; };\n"
      "using RecordId = unsigned;\n"
      "}\n");
  const auto syms =
      hermes::lint::exported_symbols("src/obs/include/hermes/obs/flight_recorder.hpp", lines);
  std::set<std::string> names;
  for (const auto& s : syms) names.insert(s.ns + "::" + s.name);
  EXPECT_TRUE(names.count("obs::FlightRecorder"));
  EXPECT_TRUE(names.count("obs::TraceRecord"));
  EXPECT_TRUE(names.count("obs::RecordId"));
  // Class members must not be exported.
  EXPECT_FALSE(names.count("obs::dump"));
  EXPECT_EQ(hermes::lint::include_path_of("src/obs/include/hermes/obs/flight_recorder.hpp"),
            "hermes/obs/flight_recorder.hpp");
  EXPECT_EQ(hermes::lint::include_path_of("src/obs/flight_recorder.cpp"), "");
}

// -------------------------------------------------------------- suppressions

TEST(HermeslintSuppression, WellFormedAllowSilencesAndIsRecorded) {
  const LintResult r = lint_fixture("suppress_ok.cpp");
  EXPECT_TRUE(r.findings.empty()) << dump(r);
  ASSERT_EQ(r.suppressed.size(), 3u);
  for (const auto& s : r.suppressed) {
    EXPECT_FALSE(s.reason.empty()) << s.file << ":" << s.line;
  }
  EXPECT_EQ(r.suppressed[0].rule, "determinism.clock");
}

TEST(HermeslintSuppression, MalformedDirectivesAreFindings) {
  const LintResult r = lint_fixture("suppress_bad.cpp");
  // reasonless allow + unknown rule + unknown verb.
  EXPECT_EQ(count_rule(r, "meta.suppression"), 3) << dump(r);
  // The allow naming a nonexistent rule must not silence the real finding.
  EXPECT_EQ(count_rule(r, "determinism.rand"), 1) << dump(r);
}

TEST(HermeslintSuppression, SameLineAndPrecedingLineBothWork) {
  Linter linter;
  linter.add_file(
      "s.cpp",
      "#include <cstdlib>\n"
      "// hermeslint:allow(determinism.rand) seeding the adversary model\n"
      "int a = rand();\n"
      "int b = rand();  // hermeslint:allow(determinism.rand) same-line form\n");
  const LintResult r = linter.run();
  EXPECT_TRUE(r.findings.empty()) << dump(r);
  EXPECT_EQ(r.suppressed.size(), 2u);
}

TEST(HermeslintSuppression, ProseMentionOfToolNameIsNotADirective) {
  Linter linter;
  linter.add_file("p.cpp", "// notes for hermeslint: each rule has a fixture\nint x = 1;\n");
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "meta.suppression"), 0) << dump(r);
}

TEST(HermeslintSuppression, DuplicateAllowIsAFinding) {
  Linter linter;
  linter.add_file("d.cpp",
                  "#include <cstdlib>\n"
                  "// hermeslint:allow(determinism.rand) first reason\n"
                  "// hermeslint:allow(determinism.rand) second reason, same target\n"
                  "int a = rand();\n");
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "meta.suppression"), 1) << dump(r);
  EXPECT_EQ(count_rule(r, "determinism.rand"), 0) << dump(r);
}

// --------------------------------------------------------------------- SARIF

TEST(HermeslintSarif, ShapeMatchesCodeScanningExpectations) {
  LintResult r;
  r.findings.push_back({"src/net/port.cpp", 42, "determinism.rand", "boom", "snippet"});
  r.files_scanned = 1;
  const std::string s = hermes::lint::to_sarif(r);
  for (const char* key :
       {"\"$schema\"", "sarif-schema-2.1.0.json", "\"version\": \"2.1.0\"", "\"runs\"",
        "\"driver\"", "\"name\": \"hermeslint\"", "\"rules\"", "\"ruleId\": \"determinism.rand\"",
        "\"ruleIndex\"", "\"level\": \"error\"", "\"physicalLocation\"",
        "\"uri\": \"src/net/port.cpp\"", "\"startLine\": 42", "\"uriBaseId\": \"SRCROOT\""}) {
    EXPECT_NE(s.find(key), std::string::npos) << "missing " << key << " in\n" << s;
  }
  // Every catalogue rule is described, findings or not.
  for (const auto& rule : hermes::lint::rule_catalogue()) {
    EXPECT_NE(s.find("\"id\": \"" + std::string(rule.id) + "\""), std::string::npos)
        << rule.id;
  }
}

TEST(HermeslintSarif, SuppressionsCarryInSourceKind) {
  LintResult r;
  r.suppressed.push_back({"bench/b.cpp", 7, "determinism.clock", "bench measures wall time"});
  const std::string s = hermes::lint::to_sarif(r);
  EXPECT_NE(s.find("\"suppressions\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"kind\": \"inSource\""), std::string::npos) << s;
  EXPECT_NE(s.find("bench measures wall time"), std::string::npos) << s;
}

TEST(HermeslintRules, UnorderedIterReadsTheDeclarationTheFileSees) {
  // src/ declares unordered containers named state_; the fixture declares
  // a std::vector<int> state_ and walks it by range-for and by .begin().
  namespace hl = hermes::lint;
  hl::DriveOptions o;
  o.root = std::string(HERMESLINT_FIXTURE_DIR) + "/../../..";
  o.paths = {"src", "tools/hermeslint/fixtures/det_unordered_same_name_clean.cpp"};
  const hl::DriveResult r = hl::drive(o);
  ASSERT_FALSE(r.io_error);
  EXPECT_GT(r.result.files_scanned, 50) << "src/ was not scanned";
  EXPECT_EQ(count_rule(r.result, "determinism.unordered-iter"), 0) << dump(r.result);
  // Without its own declaration, the same walk resolves against src/.
  Linter linter;
  linter.add_file("flowbender.hpp",
                  "#include <unordered_map>\nstruct F { std::unordered_map<int, int> state_; };\n");
  linter.add_file("user.cpp", "int n(const F& f) {\n  int s = 0;\n"
                              "  for (const auto& kv : f.state_) s += kv.second;\n  return s;\n}\n");
  EXPECT_EQ(count_rule(linter.run(), "determinism.unordered-iter"), 1);
}

// -------------------------------------------------------------------- driver

TEST(HermeslintDriver, CrossFileContextChangeInvalidatesUntouchedFiles) {
  namespace hl = hermes::lint;
  const fs::path root = fs::temp_directory_path() / "hermeslint_ctx_test";
  fs::remove_all(root);
  fs::create_directories(root);
  // a.cpp iterates a container whose declaration does not exist yet.
  write_file(root / "a.cpp",
             "struct H;\n"
             "int go(const H& h);\n"
             "template <typename H2>\n"
             "int sum(const H2& h) {\n"
             "  int s = 0;\n"
             "  for (const auto& kv : h.weird_) {\n"
             "    s += kv.second;\n"
             "  }\n"
             "  return s;\n"
             "}\n");

  hl::DriveOptions o;
  o.root = root.string();
  o.paths = {"."};

  const hl::DriveResult r1 = hl::drive(o);
  EXPECT_EQ(count_rule(r1.result, "determinism.unordered-iter"), 0) << dump(r1.result);

  // Introduce the declaration in a *different* file: a.cpp is untouched,
  // yet its findings change because the whole-tree context did.
  write_file(root / "b.hpp",
             "#pragma once\n#include <unordered_map>\n"
             "struct H { std::unordered_map<int, int> weird_; };\n");
  const hl::DriveResult r2 = hl::drive(o);
  EXPECT_EQ(count_rule(r2.result, "determinism.unordered-iter"), 1) << dump(r2.result);
  fs::remove_all(root);
}

// ------------------------------------------------------------------ catalogue

TEST(HermeslintCatalogue, KnownRulesRoundTrip) {
  for (const auto& rule : hermes::lint::rule_catalogue()) {
    EXPECT_TRUE(hermes::lint::is_known_rule(rule.id));
  }
  EXPECT_FALSE(hermes::lint::is_known_rule("no.such.rule"));
  EXPECT_FALSE(hermes::lint::is_known_rule(""));
  // Rules whose bugs another check now fails on (DESIGN.md §7).
  for (const char* gone : {"sim.shard-race", "core.arena-lifetime", "sim.float-order",
                           "obs.pod-record", "arch.layering"}) {
    EXPECT_FALSE(hermes::lint::is_known_rule(gone)) << gone;
  }
}

}  // namespace
