#include "lint_rules.hpp"

#include <algorithm>
#include <map>
#include <regex>
#include <set>
#include <sstream>

namespace shep::lint {

namespace {

namespace fs = std::filesystem;

const char* kRuleLayerDag = "layer-dag";
const char* kRuleRand = "determinism-rand";
const char* kRuleTime = "determinism-time";
const char* kRuleEnv = "determinism-env";
const char* kRuleUnordered = "determinism-unordered";
const char* kRuleNodiscard = "nodiscard";
const char* kRuleSuppression = "suppression";

/// A finding before suppression processing.
struct Candidate {
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// Everything the per-file rules need to see beyond their own file.
struct TreeContext {
  fs::path root;
  const LayerDag* dag = nullptr;
};

std::string DirName(const std::string& rel) {
  const std::size_t slash = rel.rfind('/');
  return slash == std::string::npos ? std::string() : rel.substr(0, slash);
}

// ---------------------------------------------------------------------------
// layer-dag
// ---------------------------------------------------------------------------

void CheckLayerDag(const TreeContext& ctx, const SourceFile& file,
                   FileCategory category, std::vector<Candidate>& out) {
  const std::optional<std::string> layer = LayerOfPath(file.path);
  if (category == FileCategory::kLayerSource && !layer) {
    out.push_back({1, kRuleLayerDag,
                   "file sits under src/ but not in a layer directory"});
    return;
  }
  if (layer && !ctx.dag->Knows(*layer)) {
    out.push_back({1, kRuleLayerDag,
                   "layer `" + *layer +
                       "` is not in the layer DAG table "
                       "(tools/lint/layer_dag.txt)"});
    return;
  }
  for (const IncludeRef& inc : ExtractIncludes(file)) {
    const std::size_t slash = inc.path.find('/');
    const std::string first =
        slash == std::string::npos ? std::string() : inc.path.substr(0, slash);
    if (!first.empty() && ctx.dag->Knows(first)) {
      if (layer && !ctx.dag->Allows(*layer, first)) {
        out.push_back(
            {inc.line, kRuleLayerDag,
             "layer `" + *layer + "` must not include `" + inc.path +
                 "`: edge " + *layer + " -> " + first +
                 " is not in the layer DAG"});
      }
      continue;
    }
    // Not a layer path: the include must resolve next to the including
    // file (bench/repro_common.hpp style) or in an ancestor directory
    // (tools/<tool>/test/ files see tools/<tool>/ via the target's include
    // dirs) — never the repo root itself, so a layer header cannot be
    // reached by spelling out "src/...".  Anything else is a typo or an
    // attempt to bypass the layer tree with a relative path.
    bool resolved = false;
    for (std::string dir = DirName(file.path); !dir.empty();
         dir = DirName(dir)) {
      std::error_code ec;
      if (fs::exists(ctx.root / (dir + "/" + inc.path), ec)) {
        resolved = true;
        break;
      }
    }
    if (!resolved) {
      out.push_back({inc.line, kRuleLayerDag,
                     "include `" + inc.path +
                         "` is neither a `<layer>/...` path nor a file next "
                         "to (or above) the including one"});
    }
  }
}

// ---------------------------------------------------------------------------
// determinism-*
// ---------------------------------------------------------------------------

void CheckDeterminism(const SourceFile& file, std::vector<Candidate>& out) {
  static const std::regex kRand(R"(\b(s?rand|rand_r|drand48)\s*\()");
  static const std::regex kRandomDevice(R"(\brandom_device\b)");
  static const std::regex kSystemClock(R"(\bsystem_clock\b)");
  static const std::regex kGetenv(R"(\b(secure_)?getenv\b)");
  static const std::regex kUnordered(
      R"(\bunordered_(map|set|multimap|multiset)\b)");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    if (std::regex_search(line, kRand) ||
        std::regex_search(line, kRandomDevice)) {
      out.push_back({i + 1, kRuleRand,
                     "C PRNG / std::random_device is nondeterministic across "
                     "runs; draw from common/Rng (its sequence is part of "
                     "the fleet bit-identity contract)"});
    }
    if (std::regex_search(line, kSystemClock)) {
      out.push_back({i + 1, kRuleTime,
                     "wall-clock reads make results time-dependent; use "
                     "steady_clock for durations (metadata only) or thread "
                     "time in explicitly"});
    }
    if (std::regex_search(line, kGetenv)) {
      out.push_back({i + 1, kRuleEnv,
                     "environment reads make behaviour host-dependent; "
                     "thread configuration through explicit parameters"});
    }
    if (std::regex_search(line, kUnordered)) {
      out.push_back({i + 1, kRuleUnordered,
                     "unordered container iteration order is a hash-seed "
                     "accident; folding it into an accumulator or stream "
                     "breaks bit-identity — use std::map/std::vector or "
                     "iterate a sorted key list"});
    }
  }
}

// ---------------------------------------------------------------------------
// nodiscard
// ---------------------------------------------------------------------------

bool IsHeader(const std::string& path) {
  return path.size() > 4 && (path.rfind(".hpp") == path.size() - 4 ||
                             path.rfind(".h") == path.size() - 2);
}

void CheckNodiscard(const SourceFile& file, std::vector<Candidate>& out) {
  if (!IsHeader(file.path)) return;
  static const std::regex kEntryPoint(
      R"((^|[\s&*>])((?:Parse|Merge|Deserialize)\w*|Validate)\s*\()");
  static const std::set<std::string> kNotATypeWord = {
      "return", "co_return", "case", "goto", "new", "delete", "throw"};
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    std::smatch m;
    if (!std::regex_search(line, m, kEntryPoint)) continue;
    // The text before the name must look like a declaration's return type:
    // type-ish characters only, non-empty, not `void`, and not an
    // expression keyword — otherwise this is a call, not a declaration.
    std::string prefix = line.substr(0, static_cast<std::size_t>(m.position(2)));
    if (prefix.find_first_not_of(
            " \t[]&*<>,:abcdefghijklmnopqrstuvwxyz"
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_") != std::string::npos) {
      continue;
    }
    std::istringstream words(prefix);
    std::string word, last;
    bool has_type = false;
    while (words >> word) {
      last = word;
      if (word != "static" && word != "inline" && word != "constexpr" &&
          word != "friend" && word != "virtual" && word != "explicit") {
        has_type = true;
      }
    }
    if (!has_type || kNotATypeWord.count(last)) continue;
    if (prefix.find("void") != std::string::npos &&
        prefix.find("void*") == std::string::npos) {
      continue;  // throw-based Validate() style: nothing to discard.
    }
    const bool marked =
        line.find("[[nodiscard]]") != std::string::npos ||
        (i > 0 && file.code[i - 1].find("[[nodiscard]]") != std::string::npos);
    if (!marked) {
      out.push_back({i + 1, kRuleNodiscard,
                     "`" + m[2].str() +
                         "` returns a value that is always a bug to ignore "
                         "(parse/validate/merge entry point); declare it "
                         "[[nodiscard]]"});
    }
  }
}

// ---------------------------------------------------------------------------
// suppression processing
// ---------------------------------------------------------------------------

void ApplySuppressions(const SourceFile& file,
                       std::vector<Candidate>& candidates, LintReport& report) {
  const std::vector<std::string>& rules = RuleIds();
  std::set<const Suppression*> used;
  std::vector<Candidate> kept;
  for (Candidate& c : candidates) {
    bool suppressed = false;
    for (const Suppression* s : file.SuppressionsOn(c.line)) {
      if (s->rule == c.rule && c.rule != kRuleSuppression &&
          !s->justification.empty()) {
        used.insert(s);
        suppressed = true;
      }
    }
    if (suppressed) {
      ++report.suppressions_honoured;
    } else {
      kept.push_back(std::move(c));
    }
  }
  for (const Suppression& s : file.suppressions) {
    if (std::find(rules.begin(), rules.end(), s.rule) == rules.end()) {
      kept.push_back({s.line, kRuleSuppression,
                      "allow(" + s.rule + ") names no shep_lint rule"});
      continue;
    }
    if (s.justification.empty()) {
      kept.push_back({s.line, kRuleSuppression,
                      "allow(" + s.rule +
                          ") needs a one-line justification after the "
                          "closing paren — a waiver documents WHY the "
                          "hazard is safe here"});
      continue;
    }
    if (!used.count(&s)) {
      kept.push_back({s.line, kRuleSuppression,
                      "allow(" + s.rule +
                          ") waives nothing on this line; delete the stale "
                          "suppression"});
    }
  }
  for (Candidate& c : kept) {
    report.findings.push_back(
        {file.path, c.line, std::move(c.rule), std::move(c.message)});
  }
}

/// Loads every lintable file under root/{src,tests,bench,examples,tools},
/// skipping any `fixtures` subtree (shep_lint's own bad fixtures would
/// otherwise lint the real tree red).
std::map<std::string, SourceFile> CollectFiles(const fs::path& root) {
  static const std::vector<std::string> kDirs = {"src", "tests", "bench",
                                                 "examples", "tools"};
  static const std::set<std::string> kExtensions = {".hpp", ".h", ".cpp",
                                                    ".cc"};
  std::map<std::string, SourceFile> files;
  for (const std::string& dir : kDirs) {
    const fs::path base = root / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    for (fs::recursive_directory_iterator it(base), end; it != end; ++it) {
      if (!it->is_regular_file()) continue;
      if (!kExtensions.count(it->path().extension().string())) continue;
      const std::string rel =
          fs::relative(it->path(), root).generic_string();
      if (rel.find("/fixtures/") != std::string::npos) continue;
      files.emplace(rel, LoadSource(it->path(), rel));
    }
  }
  return files;
}

}  // namespace

const std::vector<std::string>& RuleIds() {
  static const std::vector<std::string> kIds = [] {
    std::vector<std::string> ids;
    for (const RuleInfo& info : RuleCatalog()) ids.push_back(info.id);
    return ids;
  }();
  return kIds;
}

const std::vector<RuleInfo>& RuleCatalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {kRuleLayerDag,
       "every #include \"<layer>/...\" edge must be in the layer DAG "
       "closure; local includes must resolve next to (or above) the "
       "including file"},
      {kRuleRand,
       "C PRNGs and std::random_device are banned in src/; draw from "
       "common/Rng (its sequence is part of the bit-identity contract)"},
      {kRuleTime,
       "wall-clock reads (system_clock) are banned in src/; durations use "
       "steady_clock"},
      {kRuleEnv,
       "environment reads are banned in src/; configuration threads "
       "through explicit parameters"},
      {kRuleUnordered,
       "unordered container iteration order is a hash-seed accident; "
       "banned in src/"},
      {kRuleNodiscard,
       "value-returning Parse*/Merge*/Deserialize*/Validate entry points "
       "in src/ headers must be [[nodiscard]]"},
      {kRuleSuppression,
       "allow(...) waivers must name a real rule, carry a justification, "
       "and waive something (unsuppressable)"},
  };
  return kCatalog;
}

LintReport LintTree(const std::filesystem::path& root) {
  TreeContext ctx;
  ctx.root = root;
  ctx.dag = &LayerDag::Project();
  const std::map<std::string, SourceFile> files = CollectFiles(root);

  LintReport report;
  report.files_scanned = files.size();

  for (const auto& [rel, file] : files) {
    const FileCategory category = rel.rfind("src/", 0) == 0
                                      ? FileCategory::kLayerSource
                                      : FileCategory::kConsumer;
    std::vector<Candidate> candidates;
    CheckLayerDag(ctx, file, category, candidates);
    if (category == FileCategory::kLayerSource) {
      CheckDeterminism(file, candidates);
      CheckNodiscard(file, candidates);
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.line != b.line ? a.line < b.line : a.rule < b.rule;
              });
    ApplySuppressions(file, candidates, report);
  }
  return report;
}

std::string ListWaivers(const std::filesystem::path& root) {
  const std::map<std::string, SourceFile> files = CollectFiles(root);
  std::ostringstream os;
  for (const auto& [rel, file] : files) {
    for (const Suppression& s : file.suppressions) {
      os << rel << ':' << s.line << ": allow(" << s.rule << ") "
         << (s.justification.empty() ? "(no justification)" : s.justification)
         << '\n';
    }
  }
  return os.str();
}

std::string FormatFindings(const LintReport& report, bool github) {
  std::ostringstream os;
  for (const Finding& f : report.findings) {
    if (github) {
      os << "::error file=" << f.file << ",line=" << f.line
         << ",title=shep_lint " << f.rule << "::" << f.message << '\n';
    } else {
      os << f.file << ':' << f.line << ": [" << f.rule << "] " << f.message
         << '\n';
    }
  }
  return os.str();
}

}  // namespace shep::lint
