// Fixture-driven tests for hermeslint v2: each rule must catch its
// seeded violation, stay quiet on the clean twin, honor suppressions
// (including expiry), carry cross-file context through the driver, and
// emit the documented JSON and SARIF shapes.
#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hermes/lint/dataflow.hpp"
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
  EXPECT_EQ(count_rule(r, "determinism.rand"), 0) << to_json(r);
}

TEST(HermeslintRules, DetClockCatchesSeededViolations) {
  const LintResult r = lint_fixture("det_clock_bad.cpp");
  // system/steady/high_resolution_clock + free time() + std::time().
  EXPECT_GE(count_rule(r, "determinism.clock"), 5);
}

TEST(HermeslintRules, DetClockQuietOnCleanTwin) {
  const LintResult r = lint_fixture("det_clock_clean.cpp");
  EXPECT_EQ(count_rule(r, "determinism.clock"), 0) << to_json(r);
}

TEST(HermeslintRules, UnorderedIterCatchesSeededViolations) {
  const LintResult r = lint_fixture("det_unordered_bad.cpp");
  EXPECT_EQ(count_rule(r, "determinism.unordered-iter"), 2) << to_json(r);
}

TEST(HermeslintRules, UnorderedIterQuietOnCleanTwin) {
  const LintResult r = lint_fixture("det_unordered_clean.cpp");
  EXPECT_EQ(count_rule(r, "determinism.unordered-iter"), 0) << to_json(r);
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
  EXPECT_EQ(count_rule(r, "determinism.unordered-iter"), 1) << to_json(r);
  ASSERT_GE(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].file, "user.cpp");
}

TEST(HermeslintRules, HotAllocCatchesSeededViolations) {
  const LintResult r = lint_fixture("hot_alloc_bad.cpp");
  // new + make_shared + make_unique + std::function.
  EXPECT_GE(count_rule(r, "hotpath.alloc"), 4) << to_json(r);
  // The untagged cold_setup() `new` must NOT be flagged.
  const bool cold_flagged =
      std::any_of(r.findings.begin(), r.findings.end(), [](const auto& f) {
        return f.snippet.find("cold_setup") != std::string::npos;
      });
  EXPECT_FALSE(cold_flagged);
}

TEST(HermeslintRules, HotAllocQuietOnCleanTwin) {
  const LintResult r = lint_fixture("hot_alloc_clean.cpp");
  EXPECT_EQ(count_rule(r, "hotpath.alloc"), 0) << to_json(r);
  EXPECT_EQ(count_rule(r, "hotpath.container-growth"), 0) << to_json(r);
}

TEST(HermeslintRules, HotGrowthNeedsAudit) {
  const LintResult bad = lint_fixture("hot_growth_bad.cpp");
  EXPECT_EQ(count_rule(bad, "hotpath.container-growth"), 1) << to_json(bad);
  const LintResult audited = lint_fixture("hot_growth_audited.cpp");
  EXPECT_EQ(count_rule(audited, "hotpath.container-growth"), 0) << to_json(audited);
  EXPECT_TRUE(audited.findings.empty()) << to_json(audited);
}

TEST(HermeslintRules, HotFileMemberCatchesDequeAndFunctionDeclarations) {
  const LintResult r = lint_fixture("hot_file_member_bad.cpp");
  // Hook alias + queue_ member + hook_ member; the parameter and the
  // call-site use must not fire.
  EXPECT_EQ(count_rule(r, "hotpath.hot-file-member"), 3) << to_json(r);
  const bool param_flagged =
      std::any_of(r.findings.begin(), r.findings.end(), [](const auto& f) {
        return f.snippet.find("install") != std::string::npos;
      });
  EXPECT_FALSE(param_flagged) << to_json(r);
}

TEST(HermeslintRules, HotFileMemberQuietWithoutHotRegion) {
  const LintResult r = lint_fixture("hot_file_member_clean.cpp");
  EXPECT_EQ(count_rule(r, "hotpath.hot-file-member"), 0) << to_json(r);
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
  EXPECT_EQ(count_rule(r, "hotpath.hot-file-member"), 0) << to_json(r);
  EXPECT_EQ(r.suppressed.size(), 1u) << to_json(r);
}

TEST(HermeslintRules, FileScopeHotTagCoversWholeFile) {
  Linter linter;
  linter.add_file("hot_file.cpp",
                  "// HERMES_HOT\n#include <memory>\n"
                  "int* a() { return new int(1); }\n"
                  "auto b() { return std::make_unique<int>(2); }\n");
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "hotpath.alloc"), 2) << to_json(r);
}

TEST(HermeslintRules, HeaderHygieneCatchesSeededViolations) {
  const LintResult r = lint_fixture("hdr_bad.hpp");
  EXPECT_EQ(count_rule(r, "header.pragma-once"), 1) << to_json(r);
  EXPECT_EQ(count_rule(r, "header.using-namespace"), 1) << to_json(r);
  // std::vector and std::unique_ptr lack direct includes; std::map has one.
  EXPECT_EQ(count_rule(r, "header.direct-include"), 2) << to_json(r);
}

TEST(HermeslintRules, HeaderHygieneQuietOnCleanTwin) {
  const LintResult r = lint_fixture("hdr_clean.hpp");
  EXPECT_TRUE(r.findings.empty()) << to_json(r);
}

TEST(HermeslintRules, PodRecordCatchesHeapOwningMembers) {
  const LintResult r = lint_fixture("obs_record_bad.cpp");
  // std::string + std::vector + std::unique_ptr inside the tagged struct.
  EXPECT_EQ(count_rule(r, "obs.pod-record"), 3) << to_json(r);
  // The untagged ColdConfig struct must NOT be flagged.
  const bool cold_flagged =
      std::any_of(r.findings.begin(), r.findings.end(), [](const auto& f) {
        return f.rule == "obs.pod-record" && f.line > 14;
      });
  EXPECT_FALSE(cold_flagged) << to_json(r);
}

TEST(HermeslintRules, PodRecordQuietOnCleanTwin) {
  const LintResult r = lint_fixture("obs_record_clean.cpp");
  EXPECT_TRUE(r.findings.empty()) << to_json(r);
}

// ------------------------------------------------------------ sim.shard-race

TEST(HermeslintRules, ShardRaceEscapeCatchesPortHostDerefInTaggedRegion) {
  const LintResult r = lint_fixture("shard_race_escape_bad.cpp");
  // remote_port-> (x2), (*remote_host). — all inside the tagged region.
  EXPECT_EQ(count_rule(r, "sim.shard-race"), 3) << to_json(r);
  // The untagged local_touch() dereference must NOT be flagged.
  const bool cold_flagged =
      std::any_of(r.findings.begin(), r.findings.end(), [](const auto& f) {
        return f.rule == "sim.shard-race" && f.line > 18;
      });
  EXPECT_FALSE(cold_flagged) << to_json(r);
}

TEST(HermeslintRules, ShardRaceEscapeQuietOnMailboxTwin) {
  const LintResult r = lint_fixture("shard_race_escape_clean.cpp");
  EXPECT_EQ(count_rule(r, "sim.shard-race"), 0) << to_json(r);
}

TEST(HermeslintRules, ShardRaceIgnoresDeclarations) {
  Linter linter;
  linter.add_file("decl.cpp",
                  "struct Port { int d; };\n"
                  "// HERMES_SHARDED\n"
                  "void f() {\n"
                  "  Port* p = nullptr;\n"  // a declarator, not a dereference
                  "  (void)p;\n"
                  "}\n");
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "sim.shard-race"), 0) << to_json(r);
}

TEST(HermeslintRules, ShardRaceIndexingNeedsProvenance) {
  const LintResult r = lint_fixture("shard_race_index_bad.cpp");
  // absorb(flow_id) + the literal-bound loop; the two provenanced
  // accesses stay quiet.
  EXPECT_EQ(count_rule(r, "sim.shard-race"), 2) << to_json(r);
  for (const auto& f : r.findings) {
    if (f.rule != "sim.shard-race") continue;
    EXPECT_NE(f.message.find("HERMES_SHARD_OWNED"), std::string::npos) << f.message;
  }
}

TEST(HermeslintRules, ShardRaceIndexingQuietOnProvenancedTwin) {
  const LintResult r = lint_fixture("shard_race_index_clean.cpp");
  EXPECT_EQ(count_rule(r, "sim.shard-race"), 0) << to_json(r);
}

// -------------------------------------------------------- core.arena-lifetime

TEST(HermeslintRules, ArenaLifetimeCatchesUseAfterFreeAndBarrierCaching) {
  const LintResult r = lint_fixture("arena_lifetime_bad.cpp");
  // alias-after-free + handle-after-reset + push_back cache + member
  // assignment cache.
  EXPECT_EQ(count_rule(r, "core.arena-lifetime"), 4) << to_json(r);
}

TEST(HermeslintRules, ArenaLifetimeQuietOnCleanTwin) {
  const LintResult r = lint_fixture("arena_lifetime_clean.cpp");
  EXPECT_EQ(count_rule(r, "core.arena-lifetime"), 0) << to_json(r);
}

// ------------------------------------------------------------ sim.float-order

TEST(HermeslintRules, FloatOrderCatchesHashOrderAccumulation) {
  const LintResult r = lint_fixture("float_order_bad.cpp");
  // += in the range-for + std::accumulate with a floating seed.
  EXPECT_EQ(count_rule(r, "sim.float-order"), 2) << to_json(r);
}

TEST(HermeslintRules, FloatOrderQuietOnSortedTwin) {
  const LintResult r = lint_fixture("float_order_clean.cpp");
  EXPECT_EQ(count_rule(r, "sim.float-order"), 0) << to_json(r);
}

// ------------------------------------------------------------- arch.layering

TEST(HermeslintRules, LayeringFlagsUpRankInclude) {
  Linter linter;
  linter.add_file("src/net/layering_bad.cpp", read_fixture("layering_bad.cpp"));
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "arch.layering"), 1) << to_json(r);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_NE(r.findings[0].message.find("'net'"), std::string::npos) << r.findings[0].message;
  EXPECT_NE(r.findings[0].message.find("'harness'"), std::string::npos)
      << r.findings[0].message;
}

TEST(HermeslintRules, LayeringQuietOnDownRankIncludes) {
  Linter linter;
  linter.add_file("src/net/layering_clean.cpp", read_fixture("layering_clean.cpp"));
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "arch.layering"), 0) << to_json(r);
}

TEST(HermeslintRules, LayeringNamesTheLegalDirection) {
  Linter linter;
  linter.add_file("src/net/bad_edge.cpp", "#include \"hermes/lb/letflow.hpp\"\nint x;\n");
  const LintResult r = linter.run();
  ASSERT_EQ(count_rule(r, "arch.layering"), 1) << to_json(r);
  // net (1) -> lb (2) is illegal; the legal direction is lb -> net.
  EXPECT_NE(r.findings[0].message.find("lb -> net"), std::string::npos)
      << r.findings[0].message;
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
  EXPECT_EQ(count_rule(r, "header.direct-include"), 1) << to_json(r);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_NE(r.findings[0].message.find("hermes/obs/metrics.hpp"), std::string::npos)
      << to_json(r);
}

TEST(HermeslintRules, DefiningHeaderDoesNotNeedItsOwnInclude) {
  Linter linter;
  linter.add_file("src/obs/include/hermes/obs/metrics.hpp",
                  "#pragma once\nnamespace hermes::obs {\nclass MetricsRegistry {};\n"
                  "inline obs::MetricsRegistry* self();\n}\n");
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "header.direct-include"), 0) << to_json(r);
}

TEST(HermeslintRules, UsingNamespaceAllowedInSourceFiles) {
  Linter linter;
  linter.add_file("impl.cpp", "#include <vector>\nusing namespace std;\nvector<int> v;\n");
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "header.using-namespace"), 0) << to_json(r);
}

// ----------------------------------------------------------------- graph unit

TEST(HermeslintGraph, ModuleOfPathAndRanks) {
  using hermes::lint::layer_rank;
  using hermes::lint::module_of_path;
  EXPECT_EQ(module_of_path("src/net/port.cpp"), "net");
  EXPECT_EQ(module_of_path("src/harness/include/hermes/harness/scenario.hpp"), "harness");
  EXPECT_EQ(module_of_path("tools/hermeslint/src/linter.cpp"), "lint");
  EXPECT_EQ(module_of_path("tools/hermesfuzz/main.cpp"), "tools");
  EXPECT_EQ(module_of_path("bench/bench_core_micro.cpp"), "bench");
  EXPECT_EQ(module_of_path("random/other.cpp"), "");
  EXPECT_LT(layer_rank("sim"), layer_rank("net"));
  EXPECT_LT(layer_rank("net"), layer_rank("lb"));
  EXPECT_LT(layer_rank("engine"), layer_rank("lb"));
  EXPECT_LT(layer_rank("lb"), layer_rank("stats"));
  EXPECT_LT(layer_rank("stats"), layer_rank("harness"));
  EXPECT_LT(layer_rank("harness"), layer_rank("bench"));
  EXPECT_EQ(layer_rank("nonexistent"), -1);
}

TEST(HermeslintGraph, LegalPathDescendsInRank) {
  using hermes::lint::legal_path;
  const auto p = legal_path("harness", "net");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], "harness");
  EXPECT_EQ(p[1], "net");
  EXPECT_TRUE(legal_path("net", "lb").empty());   // would ascend
  EXPECT_TRUE(legal_path("sim", "obs").empty());  // same rank
}

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
  EXPECT_TRUE(names.count("obs::FlightRecorder")) << to_json(LintResult{});
  EXPECT_TRUE(names.count("obs::TraceRecord"));
  EXPECT_TRUE(names.count("obs::RecordId"));
  // Class members must not be exported.
  EXPECT_FALSE(names.count("obs::dump"));
  EXPECT_EQ(hermes::lint::include_path_of("src/obs/include/hermes/obs/flight_recorder.hpp"),
            "hermes/obs/flight_recorder.hpp");
  EXPECT_EQ(hermes::lint::include_path_of("src/obs/flight_recorder.cpp"), "");
}

// -------------------------------------------------------------- dataflow unit

TEST(HermeslintDataflow, ExtractFunctionsFindsBodiesAndMethods) {
  const auto lines = Lexer::scan(
      "int free_fn(int a) {\n  return a + 1;\n}\n"
      "struct S {\n"
      "  int method() { return 2; }\n"
      "};\n");
  const auto fns = hermes::lint::extract_functions(lines);
  std::set<std::string> names;
  for (const auto& f : fns) names.insert(f.name);
  EXPECT_TRUE(names.count("free_fn"));
  EXPECT_TRUE(names.count("method"));
}

TEST(HermeslintDataflow, ShardProvenanceFollowsDefChainNotNames) {
  const auto lines = Lexer::scan(
      "void f(int shard_in) {\n"
      "  int x = shard_in * 2;\n"
      "  int y = 7;\n"
      "  int shard = 0;\n"  // shard-named but locally defined as a constant
      "}\n");
  const auto fns = hermes::lint::extract_functions(lines);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_TRUE(hermes::lint::has_shard_provenance(fns[0], "x"));
  EXPECT_FALSE(hermes::lint::has_shard_provenance(fns[0], "y"));
  // A local def of `shard = 0` proves nothing, name notwithstanding.
  EXPECT_FALSE(hermes::lint::has_shard_provenance(fns[0], "shard"));
  // An undefined (parameter) name that names the shard is accepted.
  EXPECT_TRUE(hermes::lint::has_shard_provenance(fns[0], "shard_in"));
}

// -------------------------------------------------------------- suppressions

TEST(HermeslintSuppression, WellFormedAllowSilencesAndIsRecorded) {
  const LintResult r = lint_fixture("suppress_ok.cpp");
  EXPECT_TRUE(r.findings.empty()) << to_json(r);
  ASSERT_EQ(r.suppressed.size(), 3u);
  for (const auto& s : r.suppressed) {
    EXPECT_FALSE(s.reason.empty()) << s.file << ":" << s.line;
  }
  EXPECT_EQ(r.suppressed[0].rule, "determinism.clock");
}

TEST(HermeslintSuppression, MalformedDirectivesAreFindings) {
  const LintResult r = lint_fixture("suppress_bad.cpp");
  // reasonless allow + unknown rule + unknown verb.
  EXPECT_EQ(count_rule(r, "meta.suppression"), 3) << to_json(r);
  // The allow naming a nonexistent rule must not silence the real finding.
  EXPECT_EQ(count_rule(r, "determinism.rand"), 1) << to_json(r);
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
  EXPECT_TRUE(r.findings.empty()) << to_json(r);
  EXPECT_EQ(r.suppressed.size(), 2u);
}

TEST(HermeslintSuppression, ProseMentionOfToolNameIsNotADirective) {
  Linter linter;
  linter.add_file("p.cpp", "// notes for hermeslint: each rule has a fixture\nint x = 1;\n");
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "meta.suppression"), 0) << to_json(r);
}

TEST(HermeslintSuppression, DuplicateAllowIsAFinding) {
  Linter linter;
  linter.add_file("d.cpp",
                  "#include <cstdlib>\n"
                  "// hermeslint:allow(determinism.rand) first reason\n"
                  "// hermeslint:allow(determinism.rand) second reason, same target\n"
                  "int a = rand();\n");
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "meta.suppression"), 1) << to_json(r);
  EXPECT_EQ(count_rule(r, "determinism.rand"), 0) << to_json(r);
}

TEST(HermeslintSuppression, FutureExpiryIsRecordedOnTheSuppression) {
  Linter linter;
  linter.set_today("2026-08-09");
  linter.add_file("e.cpp",
                  "#include <cstdlib>\n"
                  "// hermeslint:allow(determinism.rand) legacy seed path, "
                  "expires(2099-01-01)\n"
                  "int a = rand();\n");
  const LintResult r = linter.run();
  EXPECT_TRUE(r.findings.empty()) << to_json(r);
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].expires, "2099-01-01");
}

TEST(HermeslintSuppression, ExpiredAllowIsAFinding) {
  Linter linter;
  linter.set_today("2026-08-09");
  linter.add_file("e.cpp",
                  "#include <cstdlib>\n"
                  "// hermeslint:allow(determinism.rand) temporary shim, expires(2024-01-01)\n"
                  "int a = rand();\n");
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "meta.suppression"), 1) << to_json(r);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_NE(r.findings[0].message.find("expired"), std::string::npos) << to_json(r);
}

TEST(HermeslintSuppression, MalformedExpiryIsAFinding) {
  Linter linter;
  linter.set_today("2026-08-09");
  linter.add_file("e.cpp",
                  "#include <cstdlib>\n"
                  "// hermeslint:allow(determinism.rand) shim, expires(01/02/2026)\n"
                  "int a = rand();\n");
  const LintResult r = linter.run();
  EXPECT_EQ(count_rule(r, "meta.suppression"), 1) << to_json(r);
}

// ---------------------------------------------------------------------- JSON

TEST(HermeslintJson, SchemaFieldsPresent) {
  const LintResult r = lint_fixture("hdr_bad.hpp");
  const std::string j = to_json(r);
  for (const char* key :
       {"\"tool\": \"hermeslint\"", "\"schema_version\": 2", "\"files_scanned\": 1",
        "\"clean\": false", "\"findings\": [", "\"suppressed\": [", "\"file\": ", "\"line\": ",
        "\"rule\": ", "\"message\": ", "\"snippet\": "}) {
    EXPECT_NE(j.find(key), std::string::npos) << "missing " << key << " in\n" << j;
  }
}

TEST(HermeslintJson, CleanResultSaysClean) {
  const LintResult r = lint_fixture("hdr_clean.hpp");
  const std::string j = to_json(r);
  EXPECT_NE(j.find("\"clean\": true"), std::string::npos) << j;
  EXPECT_NE(j.find("\"findings\": []"), std::string::npos) << j;
}

TEST(HermeslintJson, EscapesQuotesAndBackslashes) {
  LintResult r;
  r.findings.push_back({"a\"b.cpp", 1, "determinism.rand", "msg with \\ and \"quote\"", "x"});
  const std::string j = to_json(r);
  EXPECT_NE(j.find("a\\\"b.cpp"), std::string::npos) << j;
  EXPECT_NE(j.find("msg with \\\\ and \\\"quote\\\""), std::string::npos) << j;
}

// --------------------------------------------------------------------- SARIF

TEST(HermeslintSarif, ShapeMatchesCodeScanningExpectations) {
  LintResult r;
  r.findings.push_back({"src/net/port.cpp", 42, "sim.shard-race", "boom", "snippet"});
  r.files_scanned = 1;
  const std::string s = hermes::lint::to_sarif(r);
  for (const char* key :
       {"\"$schema\"", "sarif-schema-2.1.0.json", "\"version\": \"2.1.0\"", "\"runs\"",
        "\"driver\"", "\"name\": \"hermeslint\"", "\"rules\"", "\"ruleId\": \"sim.shard-race\"",
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
  r.suppressed.push_back(
      {"bench/b.cpp", 7, "determinism.clock", "bench measures wall time", ""});
  const std::string s = hermes::lint::to_sarif(r);
  EXPECT_NE(s.find("\"suppressions\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"kind\": \"inSource\""), std::string::npos) << s;
  EXPECT_NE(s.find("bench measures wall time"), std::string::npos) << s;
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
  EXPECT_EQ(count_rule(r1.result, "determinism.unordered-iter"), 0) << to_json(r1.result);

  // Introduce the declaration in a *different* file: a.cpp is untouched,
  // yet its findings change because the whole-tree context did.
  write_file(root / "b.hpp",
             "#pragma once\n#include <unordered_map>\n"
             "struct H { std::unordered_map<int, int> weird_; };\n");
  const hl::DriveResult r2 = hl::drive(o);
  EXPECT_EQ(count_rule(r2.result, "determinism.unordered-iter"), 1) << to_json(r2.result);
  fs::remove_all(root);
}

// ------------------------------------------------------------ guard mutations

namespace mutation {

std::string src_file(const std::string& rel) {
  return read_file(std::string(HERMESLINT_SOURCE_ROOT) + "/" + rel);
}

LintResult lint_real_shard_sources(const std::string& cpp_content) {
  Linter linter;
  linter.add_file("src/harness/include/hermes/harness/scenario.hpp",
                  src_file("src/harness/include/hermes/harness/scenario.hpp"));
  linter.add_file("src/net/include/hermes/net/fattree.hpp",
                  src_file("src/net/include/hermes/net/fattree.hpp"));
  linter.add_file("src/harness/scenario.cpp", cpp_content);
  return linter.run();
}

std::string replace_all(std::string text, const std::string& from, const std::string& to,
                        int* count) {
  *count = 0;
  for (std::size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size())) {
    text.replace(pos, from.size(), to);
    ++*count;
  }
  return text;
}

}  // namespace mutation

TEST(HermeslintGuardMutation, RealShardSourcesAreCleanAtBaseline) {
  const std::string cpp = mutation::src_file("src/harness/scenario.cpp");
  const LintResult r = mutation::lint_real_shard_sources(cpp);
  EXPECT_EQ(count_rule(r, "sim.shard-race"), 0) << to_json(r);
  EXPECT_EQ(count_rule(r, "core.arena-lifetime"), 0) << to_json(r);
}

TEST(HermeslintGuardMutation, DroppingShardOfHostRoutingIsCaught) {
  const std::string cpp = mutation::src_file("src/harness/scenario.cpp");
  int n = 0;
  const std::string mutated = mutation::replace_all(
      cpp, "const int shard = shard_of_host(f.src);", "const int shard = 0;", &n);
  ASSERT_GE(n, 1) << "guard site moved; update the mutation";
  const LintResult r = mutation::lint_real_shard_sources(mutated);
  EXPECT_GE(count_rule(r, "sim.shard-race"), 1) << to_json(r);
}

TEST(HermeslintGuardMutation, ReplacingNumShardsBoundIsCaught) {
  const std::string cpp = mutation::src_file("src/harness/scenario.cpp");
  int n = 0;
  const std::string mutated = mutation::replace_all(cpp, "s < num_shards()", "s < 4", &n);
  ASSERT_GE(n, 1) << "guard site moved; update the mutation";
  const LintResult r = mutation::lint_real_shard_sources(mutated);
  EXPECT_GE(count_rule(r, "sim.shard-race"), 1) << to_json(r);
}

TEST(HermeslintGuardMutation, HardcodingShardStateIndexIsCaught) {
  const std::string cpp = mutation::src_file("src/harness/scenario.cpp");
  int n = 0;
  const std::string mutated = mutation::replace_all(
      cpp, "shard_states_[static_cast<std::size_t>(shard)]", "shard_states_[0]", &n);
  ASSERT_GE(n, 1) << "guard site moved; update the mutation";
  const LintResult r = mutation::lint_real_shard_sources(mutated);
  EXPECT_GE(count_rule(r, "sim.shard-race"), 1) << to_json(r);
}

// ------------------------------------------------------------------ catalogue

TEST(HermeslintCatalogue, KnownRulesRoundTrip) {
  for (const auto& rule : hermes::lint::rule_catalogue()) {
    EXPECT_TRUE(hermes::lint::is_known_rule(rule.id));
  }
  EXPECT_FALSE(hermes::lint::is_known_rule("no.such.rule"));
  EXPECT_FALSE(hermes::lint::is_known_rule(""));
  EXPECT_FALSE(hermes::lint::is_known_rule("sim.shard-boundary")) << "superseded in v2";
  EXPECT_TRUE(hermes::lint::is_known_rule("sim.shard-race"));
  EXPECT_TRUE(hermes::lint::is_known_rule("core.arena-lifetime"));
  EXPECT_TRUE(hermes::lint::is_known_rule("sim.float-order"));
  EXPECT_TRUE(hermes::lint::is_known_rule("arch.layering"));
}

}  // namespace
