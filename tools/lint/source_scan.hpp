// source_scan.hpp — lexical front end of shep_lint.
//
// The lint rules (tools/lint/lint_rules.hpp) are line-oriented pattern
// checks, so the scanner's job is to make pattern matching honest:
//
//  * `code` holds each line with comments, string literals (including raw
//    strings), and character literals blanked out to spaces — a rule that
//    greps `code` can never fire on prose in a comment or on the contents
//    of a log message, and column numbers still line up with `raw`;
//  * `suppressions` holds the per-line `// shep-lint: allow(<rule>)`
//    waivers parsed out of the comments, each with its justification text,
//    so rules can honour them without re-tokenizing.
//
// A marker is only recognised when `shep-lint:` is the FIRST token of the
// comment — prose that merely mentions the marker syntax (like this
// header) parses as prose.
//
// The scanner is deliberately NOT a C++ parser: it only understands the
// token classes that would otherwise cause false positives.  That keeps it
// dependency-free (no libclang in the build image) and fast enough to run
// over the whole tree on every build.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace shep::lint {

/// One `// shep-lint: allow(<rule>) <justification>` waiver.  The
/// justification is required by the lint (an empty one is itself a
/// finding): a suppression documents WHY the hazard is safe here, not just
/// that someone wanted the tool to be quiet.
struct Suppression {
  std::size_t line = 0;  ///< 1-based line the waiver sits on.
  std::string rule;      ///< rule id inside allow(...).
  std::string justification;  ///< trimmed text after the closing paren.
};

/// A scanned translation unit (or header).
struct SourceFile {
  /// Path as reported in findings; repo-relative with '/' separators.
  std::string path;
  std::vector<std::string> raw;   ///< original lines, no trailing '\n'.
  std::vector<std::string> code;  ///< raw with comments/literals blanked.
  std::vector<Suppression> suppressions;  ///< all waivers, any line.

  /// Waivers attached to `line` (1-based).
  std::vector<const Suppression*> SuppressionsOn(std::size_t line) const;
};

/// Scans in-memory content.  `path` is only recorded for reporting.
SourceFile ScanSource(std::string_view content, std::string path);

/// Loads `file` from disk and scans it; `report_path` becomes
/// SourceFile::path.  Throws std::runtime_error if the file can't be read.
SourceFile LoadSource(const std::filesystem::path& file,
                      std::string report_path);

}  // namespace shep::lint
