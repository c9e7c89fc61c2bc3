// test_lint_rules.cpp — unit suite of the shep_lint rules library.
//
// The committed fixture mini-trees under tools/lint/fixtures/ are the
// primary drivers: each bad/<case>/ must produce the finding class it is
// named after (and the same trees run as WILL_FAIL CTest cases through
// the shep_lint binary), while good/ must lint clean with its justified
// suppressions honoured.  On top of that: scanner token-class tests, the
// layer-DAG closure semantics, and the Describe/Parse round trip pinned
// against the committed tools/lint/layer_dag.txt.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>
#include "include_graph.hpp"
#include "lint_rules.hpp"
#include "source_scan.hpp"

namespace shep::lint {
namespace {

std::string FixtureDir(const std::string& name) {
  return std::string(SHEP_LINT_DIR) + "/fixtures/" + name;
}

/// Count of findings carrying `rule` in the report.
std::size_t CountRule(const LintReport& report, const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(report.findings.begin(), report.findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

std::string Dump(const LintReport& report) {
  return FormatFindings(report, /*github=*/false);
}

// ---------------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------------

TEST(SourceScan, BlanksLineCommentsButKeepsCode) {
  const SourceFile f =
      ScanSource("int x = rand();  // rand() is fine in prose\n", "f.cpp");
  ASSERT_EQ(f.code.size(), 1u);
  EXPECT_NE(f.code[0].find("rand()"), std::string::npos);
  EXPECT_EQ(f.code[0].find("prose"), std::string::npos);
}

TEST(SourceScan, BlanksBlockCommentsAcrossLines) {
  const SourceFile f = ScanSource(
      "/* system_clock everywhere\n   second line system_clock */\n"
      "int y;\n",
      "f.cpp");
  ASSERT_EQ(f.code.size(), 3u);
  EXPECT_EQ(f.code[0].find("system_clock"), std::string::npos);
  EXPECT_EQ(f.code[1].find("system_clock"), std::string::npos);
  EXPECT_NE(f.code[2].find("int y;"), std::string::npos);
}

TEST(SourceScan, BlanksStringAndCharLiteralContents) {
  const SourceFile f = ScanSource(
      "const char* s = \"std::random_device\"; char c = 'r';\n", "f.cpp");
  EXPECT_EQ(f.code[0].find("random_device"), std::string::npos);
  // The quotes themselves survive so the line keeps its shape.
  EXPECT_NE(f.code[0].find('"'), std::string::npos);
}

TEST(SourceScan, BlanksRawStringsIncludingMultiline) {
  const SourceFile f = ScanSource(
      "auto s = R\"(rand() inside)\";\n"
      "auto t = R\"x(line one rand()\nline two getenv)x\"; int z;\n",
      "f.cpp");
  EXPECT_EQ(f.code[0].find("rand"), std::string::npos);
  EXPECT_EQ(f.code[1].find("rand"), std::string::npos);
  EXPECT_EQ(f.code[2].find("getenv"), std::string::npos);
  EXPECT_NE(f.code[2].find("int z;"), std::string::npos);
}

TEST(SourceScan, ParsesSuppressionWithJustification) {
  const SourceFile f = ScanSource(
      "use();  // shep-lint: allow(determinism-rand) exercised error path\n",
      "f.cpp");
  ASSERT_EQ(f.suppressions.size(), 1u);
  EXPECT_EQ(f.suppressions[0].line, 1u);
  EXPECT_EQ(f.suppressions[0].rule, "determinism-rand");
  EXPECT_EQ(f.suppressions[0].justification, "exercised error path");
}

TEST(SourceScan, SuppressionSeparatorsAreCosmetic) {
  const SourceFile f = ScanSource(
      "use();  // shep-lint: allow(layer-dag) -- legacy bridge\n", "f.cpp");
  ASSERT_EQ(f.suppressions.size(), 1u);
  EXPECT_EQ(f.suppressions[0].justification, "legacy bridge");
}

TEST(SourceScan, SuppressionInsideStringLiteralIsIgnored) {
  const SourceFile f = ScanSource(
      "auto s = \"// shep-lint: allow(determinism-rand) nope\";\n", "f.cpp");
  EXPECT_TRUE(f.suppressions.empty());
}

TEST(SourceScan, MarkerMustLeadTheComment) {
  // Prose that merely mentions the marker syntax must parse as prose —
  // the tool's own doc comments quote it constantly.
  const SourceFile f = ScanSource(
      "// waivers use `// shep-lint: allow(layer-dag)` trailing comments\n",
      "f.cpp");
  EXPECT_TRUE(f.suppressions.empty());
}

// ---------------------------------------------------------------------------
// Layer DAG
// ---------------------------------------------------------------------------

TEST(LayerDag, ClosureAllowsTransitiveAndReflexiveEdges) {
  const LayerDag& dag = LayerDag::Project();
  EXPECT_TRUE(dag.Allows("core", "core"));
  EXPECT_TRUE(dag.Allows("core", "timeseries"));
  EXPECT_TRUE(dag.Allows("core", "common"));      // via timeseries.
  EXPECT_TRUE(dag.Allows("hw", "timeseries"));    // via core.
  EXPECT_TRUE(dag.Allows("fleet", "timeseries"));  // via solar/core.
}

TEST(LayerDag, ClosureForbidsEverythingElse) {
  const LayerDag& dag = LayerDag::Project();
  EXPECT_FALSE(dag.Allows("solar", "core"));
  EXPECT_FALSE(dag.Allows("common", "timeseries"));
  EXPECT_FALSE(dag.Allows("mgmt", "hw"));
  EXPECT_FALSE(dag.Allows("core", "fleet"));
  EXPECT_FALSE(dag.Allows("report", "metrics"));
  EXPECT_FALSE(dag.Allows("sweep", "fleet"));
}

TEST(LayerDag, DescribeParseRoundTrip) {
  const std::string text = LayerDag::Project().Describe();
  EXPECT_EQ(LayerDag::Parse(text).Describe(), text);
}

TEST(LayerDag, MatchesCommittedTable) {
  // tools/lint/layer_dag.txt is the reviewable twin of ProjectDag(); the
  // two must be byte-identical so the table cannot drift from the file
  // (and the file in turn mirrors the README diagram).
  std::ifstream in(std::string(SHEP_LINT_DIR) + "/layer_dag.txt");
  ASSERT_TRUE(in) << "missing tools/lint/layer_dag.txt";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), LayerDag::Project().Describe());
}

TEST(LayerDag, ParseRejectsForwardReferences) {
  EXPECT_THROW(LayerDag::Parse("shep-layer-dag v1\n"
                               "layer a : b\n"
                               "layer b :\n"
                               "end\n"),
               std::invalid_argument);
}

TEST(LayerDag, ParseRejectsMissingFraming) {
  EXPECT_THROW(LayerDag::Parse("layer a :\nend\n"), std::invalid_argument);
  EXPECT_THROW(LayerDag::Parse("shep-layer-dag v1\nlayer a :\n"),
               std::invalid_argument);
}

TEST(LayerDag, ExtractIncludesSkipsAngleAndCommentedOnes) {
  const SourceFile f = ScanSource(
      "#include <vector>\n"
      "#include \"fleet/runner.hpp\"\n"
      "// #include \"core/wcma.hpp\"\n",
      "src/fleet/x.cpp");
  const auto refs = ExtractIncludes(f);
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].line, 2u);
  EXPECT_EQ(refs[0].path, "fleet/runner.hpp");
}

// ---------------------------------------------------------------------------
// Rule fixtures (bad trees must fire their class, good tree stays clean)
// ---------------------------------------------------------------------------

TEST(Fixtures, LayerDagViolation) {
  const LintReport r = LintTree(FixtureDir("bad/layer_dag"));
  EXPECT_EQ(CountRule(r, "layer-dag"), 1u) << Dump(r);
  EXPECT_EQ(r.findings.size(), 1u) << Dump(r);  // timeseries include is fine.
}

TEST(Fixtures, RandAndRandomDevice) {
  const LintReport r = LintTree(FixtureDir("bad/rand"));
  EXPECT_EQ(CountRule(r, "determinism-rand"), 2u) << Dump(r);
}

TEST(Fixtures, WallClock) {
  const LintReport r = LintTree(FixtureDir("bad/wallclock"));
  EXPECT_EQ(CountRule(r, "determinism-time"), 1u) << Dump(r);
}

TEST(Fixtures, EnvironmentRead) {
  const LintReport r = LintTree(FixtureDir("bad/env"));
  EXPECT_EQ(CountRule(r, "determinism-env"), 1u) << Dump(r);
}

TEST(Fixtures, UnorderedIteration) {
  const LintReport r = LintTree(FixtureDir("bad/unordered"));
  // The include line and the range-for's container type both carry the
  // token; what matters is that the fold cannot slip through unseen.
  EXPECT_GE(CountRule(r, "determinism-unordered"), 2u) << Dump(r);
}

TEST(Fixtures, MissingNodiscard) {
  const LintReport r = LintTree(FixtureDir("bad/nodiscard"));
  EXPECT_EQ(CountRule(r, "nodiscard"), 2u) << Dump(r);  // Parse + Merge.
}

TEST(Fixtures, SuppressionWithoutJustification) {
  const LintReport r = LintTree(FixtureDir("bad/suppression_empty"));
  // The unjustified waiver does not waive: original finding + waiver
  // finding.
  EXPECT_EQ(CountRule(r, "determinism-rand"), 1u) << Dump(r);
  EXPECT_EQ(CountRule(r, "suppression"), 1u) << Dump(r);
}

TEST(Fixtures, SuppressionOfUnknownRule) {
  const LintReport r = LintTree(FixtureDir("bad/suppression_unknown"));
  EXPECT_EQ(CountRule(r, "suppression"), 1u) << Dump(r);
}

TEST(Fixtures, StaleSuppression) {
  const LintReport r = LintTree(FixtureDir("bad/suppression_stale"));
  EXPECT_EQ(CountRule(r, "suppression"), 1u) << Dump(r);
}

TEST(Fixtures, GoodTreeLintsClean) {
  const LintReport r = LintTree(FixtureDir("good"));
  EXPECT_TRUE(r.findings.empty()) << Dump(r);
  // Both unordered waivers were exercised, not ignored.
  EXPECT_EQ(r.suppressions_honoured, 2u);
  EXPECT_GE(r.files_scanned, 8u);
}

// ---------------------------------------------------------------------------
// The real tree
// ---------------------------------------------------------------------------

TEST(RealTree, LintsClean) {
  // Same check as the `lint_tree` CTest case, but through the library so
  // a failure prints the findings in the gtest log.  The floor guards
  // against the walk silently losing a directory; it is deliberately not
  // an exact pin so adding files never breaks this test.
  const LintReport r = LintTree(SHEP_REPO_ROOT);
  EXPECT_TRUE(r.findings.empty()) << Dump(r);
  EXPECT_GE(r.files_scanned, 180u);
}

TEST(Findings, GithubFormatAnnotatesFileAndLine) {
  LintReport r;
  r.findings.push_back({"src/fleet/runner.cpp", 12, "layer-dag", "bad edge"});
  EXPECT_EQ(FormatFindings(r, /*github=*/true),
            "::error file=src/fleet/runner.cpp,line=12,"
            "title=shep_lint layer-dag::bad edge\n");
}

TEST(Findings, TextFormatIsGccStyle) {
  LintReport r;
  r.findings.push_back({"src/a.cpp", 7, "nodiscard", "declare it"});
  EXPECT_EQ(FormatFindings(r, /*github=*/false),
            "src/a.cpp:7: [nodiscard] declare it\n");
}

}  // namespace
}  // namespace shep::lint
