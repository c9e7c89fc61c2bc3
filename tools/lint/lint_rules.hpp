// lint_rules.hpp — the shep_lint rule catalogue.
//
// Every rule is line-level: it judges a file by its own (blanked) text,
// plus the layer DAG for include edges.  Three families guard the
// invariants the fleet subsystem's tests can only sample:
//
//  * layer-dag            — every `#include "<layer>/..."` edge must be in
//                           the (reflexive-transitive closure of the) layer
//                           DAG; tests/bench/examples are consumers and may
//                           include any layer, but unknown layers and
//                           unresolvable local includes still fail.
//  * determinism-*        — bit-identity at any thread count / shard
//                           grouping / process boundary is the fleet
//                           contract, so nondeterminism sources are banned
//                           in src/: C PRNGs and std::random_device
//                           (determinism-rand), wall-clock reads via
//                           system_clock (determinism-time; steady_clock is
//                           fine — it only feeds runtime metadata),
//                           environment reads (determinism-env), and
//                           unordered associative containers, whose
//                           iteration order is a hash-seed accident that
//                           must never feed an accumulator or a serialized
//                           stream (determinism-unordered).
//  * nodiscard            — value-returning Parse*/Merge*/Deserialize*/
//                           Validate entry points declared in src/ headers
//                           must be [[nodiscard]]: discarding a parse or
//                           merge result is always a bug.
//
// plus the hygiene rule:
//
//  * suppression          — `// shep-lint: allow(<rule>)` waivers must name
//                           a real rule, carry a justification, and waive
//                           something; this rule is itself unsuppressable.
//
// Contracts a line pattern cannot prove are checked at runtime instead:
// the kernel's no-allocation contract by tests/test_hot_path_alloc.cpp,
// and "every double is written through serdes::WriteDouble" by
// serdes::ReadDouble, which reads back only WriteDouble's own spelling, so
// a double streamed bare by any writer fails that format's round-trip test.
//
// Any rule except `suppression` is waived on a line carrying
// `// shep-lint: allow(<rule>) <justification>`.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "include_graph.hpp"
#include "source_scan.hpp"

namespace shep::lint {

/// Where a file sits, which decides the rule set applied to it:
/// layer sources get every family; consumers (tests/bench/examples) only
/// the include checks — a test may legitimately use clocks or rand to
/// exercise error paths.
enum class FileCategory { kLayerSource, kConsumer };

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// All rule ids, for validating allow(...) names.
const std::vector<std::string>& RuleIds();

/// One catalogue entry, for `shep_lint --list-rules`.
struct RuleInfo {
  std::string id;
  std::string description;  ///< one line, matches the header comment above.
};

/// The full catalogue in stable order (line rules, then the hygiene
/// rule).
const std::vector<RuleInfo>& RuleCatalog();

/// Result of linting a tree.
struct LintReport {
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
  std::size_t suppressions_honoured = 0;
};

/// Lints every *.hpp/*.cpp under root/{src,tests,bench,examples,tools};
/// any `fixtures` directory under tools is skipped (shep_lint's own bad
/// fixtures must not lint the real tree red).  `root` must exist; missing
/// subdirectories are skipped (fixture trees usually carry only src/).
LintReport LintTree(const std::filesystem::path& root);

/// Every suppression in the tree, one line each
/// (`path:line: allow(rule) justification`), for `--list-waivers` audits.
std::string ListWaivers(const std::filesystem::path& root);

/// One finding per line, gcc-style (`path:line: [rule] message`), or as
/// GitHub Actions workflow commands when `github` is set so CI failures
/// annotate the offending file:line in the diff view.
std::string FormatFindings(const LintReport& report, bool github);

}  // namespace shep::lint
