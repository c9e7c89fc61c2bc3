// shep_lint — project-specific static analysis for the shep tree.
//
// Usage:
//   shep_lint [--github] <repo-root>     lint src/ tests/ bench/ examples/ tools/
//   shep_lint --dag                      print the layer DAG table
//   shep_lint --list-rules               print the rule catalogue
//   shep_lint --list-waivers <repo-root> print every allow() suppression
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.  Unknown flags are
// rejected with the usage message (matching shep_trace's treatment) so a
// typo like `--githb` fails loudly instead of being swallowed as a path.
//
// The tool runs as a CTest case over the real tree (`ctest -R lint_tree`)
// and as the CI `lint` job; the rule catalogue and the suppression syntax
// are documented in README.md ("Correctness tooling").  Every rule is
// line-level; contracts no line pattern can prove (the hot path's
// allocation freedom) are runtime tests instead.

#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "include_graph.hpp"
#include "lint_rules.hpp"

namespace {

constexpr const char* kUsage =
    "usage: shep_lint [--github] <repo-root>\n"
    "       shep_lint --dag\n"
    "       shep_lint --list-rules\n"
    "       shep_lint --list-waivers <repo-root>\n";

}  // namespace

int main(int argc, char** argv) {
  bool github = false;
  bool list_waivers = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--github") {
      github = true;
    } else if (arg == "--dag") {
      std::cout << shep::lint::LayerDag::Project().Describe();
      return 0;
    } else if (arg == "--list-rules") {
      for (const shep::lint::RuleInfo& info : shep::lint::RuleCatalog()) {
        std::cout << info.id << "\n    " << info.description << '\n';
      }
      return 0;
    } else if (arg == "--list-waivers") {
      list_waivers = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.empty() && arg.front() == '-') {
      std::cerr << "shep_lint: unknown flag `" << arg << "`\n" << kUsage;
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 1) {
    std::cerr << kUsage;
    return 2;
  }

  try {
    if (list_waivers) {
      std::cout << shep::lint::ListWaivers(positional[0]);
      return 0;
    }
    const shep::lint::LintReport report = shep::lint::LintTree(positional[0]);
    if (report.files_scanned == 0) {
      std::cerr << "shep_lint: nothing to scan under " << positional[0]
                << " (expected src/, tests/, bench/, examples/, or tools/)\n";
      return 2;
    }
    std::cout << shep::lint::FormatFindings(report, github);
    std::cerr << "shep_lint: " << report.findings.size() << " finding"
              << (report.findings.size() == 1 ? "" : "s") << " in "
              << report.files_scanned << " files ("
              << report.suppressions_honoured << " suppression"
              << (report.suppressions_honoured == 1 ? "" : "s")
              << " honoured)\n";
    return report.findings.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "shep_lint: " << e.what() << '\n';
    return 2;
  }
}
