#include "source_scan.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace shep::lint {

namespace {

/// Lexer state that survives a newline.  Strings and character literals
/// cannot span lines in standard C++ (unescaped newline terminates them),
/// so only block comments and raw strings carry over.
struct CarryState {
  bool in_block_comment = false;
  bool in_raw_string = false;
  std::string raw_delimiter;  ///< the ")delim" that ends the raw string.
};

/// Blanks the non-code spans of `raw` in place on a copy: comment bodies,
/// string/char literal contents (the quotes themselves survive so code
/// still "shapes" right), and raw-string bodies become spaces.
std::string StripLine(const std::string& raw, CarryState& st) {
  std::string out(raw.size(), ' ');
  std::size_t i = 0;
  const std::size_t n = raw.size();
  while (i < n) {
    if (st.in_block_comment) {
      if (raw[i] == '*' && i + 1 < n && raw[i + 1] == '/') {
        st.in_block_comment = false;
        i += 2;
      } else {
        ++i;
      }
      continue;
    }
    if (st.in_raw_string) {
      const std::size_t end = raw.find(st.raw_delimiter, i);
      if (end == std::string::npos) {
        i = n;
      } else {
        i = end + st.raw_delimiter.size();
        st.in_raw_string = false;
        if (i <= n) out[i - 1] = '"';
      }
      continue;
    }
    const char c = raw[i];
    if (c == '/' && i + 1 < n && raw[i + 1] == '/') break;  // line comment.
    if (c == '/' && i + 1 < n && raw[i + 1] == '*') {
      st.in_block_comment = true;
      i += 2;
      continue;
    }
    // Raw string: R"delim( ... )delim", with an optional encoding prefix
    // handled by the fact that R immediately precedes the quote.
    if (c == 'R' && i + 1 < n && raw[i + 1] == '"' &&
        (i == 0 || (!std::isalnum(static_cast<unsigned char>(raw[i - 1])) &&
                    raw[i - 1] != '_'))) {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && raw[j] != '(' && delim.size() <= 16) {
        delim += raw[j];
        ++j;
      }
      if (j < n && raw[j] == '(') {
        out[i] = 'R';
        out[i + 1] = '"';
        st.raw_delimiter = ")" + delim + "\"";
        const std::size_t end = raw.find(st.raw_delimiter, j + 1);
        if (end == std::string::npos) {
          st.in_raw_string = true;
          i = n;
        } else {
          i = end + st.raw_delimiter.size();
          out[i - 1] = '"';
        }
        continue;
      }
      // Not actually a raw string ("R" followed by a normal literal):
      // fall through and let the '"' branch below handle the literal.
      out[i] = c;
      ++i;
      continue;
    }
    if (c == '"' || c == '\'') {
      out[i] = c;
      ++i;
      while (i < n) {
        if (raw[i] == '\\' && i + 1 < n) {
          i += 2;
          continue;
        }
        if (raw[i] == c) {
          out[i] = c;
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    out[i] = c;
    ++i;
  }
  return out;
}

std::string_view TrimView(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses `// shep-lint: allow(<rule>) <justification>` out of the raw
/// line.  The marker must
/// live in a genuine `//` comment — one whose `//` the stripper blanked
/// out of `code` — so a string literal containing the marker text can
/// never waive anything, and it must be the comment's first token, so
/// prose that merely quotes the syntax stays prose.
void ParseSuppressions(const std::string& raw, const std::string& code,
                       std::size_t line_number,
                       std::vector<Suppression>& out) {
  // Locate the line comment: "//" present in raw but blanked in code, with
  // nothing but blanks after it — a "//" inside a string literal is also
  // blanked, but real code (the closing quote's statement) follows it.
  std::size_t comment = std::string::npos;
  for (std::size_t p = 0; p + 1 < raw.size(); ++p) {
    if (raw[p] == '/' && raw[p + 1] == '/' && p < code.size() &&
        code[p] == ' ' && code.find_first_not_of(' ', p) == std::string::npos) {
      comment = p;
      break;
    }
  }
  if (comment == std::string::npos) return;
  static constexpr std::string_view kMarker = "shep-lint:";
  std::string_view rest = std::string_view(raw).substr(comment + 2);
  rest = TrimView(rest);
  if (rest.substr(0, kMarker.size()) != kMarker) return;
  rest = TrimView(rest.substr(kMarker.size()));
  static constexpr std::string_view kAllow = "allow(";
  if (rest.substr(0, kAllow.size()) != kAllow) return;
  rest.remove_prefix(kAllow.size());
  const std::size_t close = rest.find(')');
  if (close == std::string::npos) return;
  Suppression s;
  s.line = line_number;
  s.rule = std::string(TrimView(rest.substr(0, close)));
  s.justification = std::string(TrimView(rest.substr(close + 1)));
  // A leading "--" or ":" separator before the justification is cosmetic;
  // strip it so emptiness checks see the real text.
  while (!s.justification.empty() &&
         (s.justification.front() == '-' || s.justification.front() == ':')) {
    s.justification.erase(s.justification.begin());
  }
  s.justification = std::string(TrimView(s.justification));
  out.push_back(std::move(s));
}

}  // namespace

std::vector<const Suppression*> SourceFile::SuppressionsOn(
    std::size_t line) const {
  std::vector<const Suppression*> on;
  for (const Suppression& s : suppressions) {
    if (s.line == line) on.push_back(&s);
  }
  return on;
}

SourceFile ScanSource(std::string_view content, std::string path) {
  SourceFile file;
  file.path = std::move(path);
  CarryState st;
  std::size_t start = 0;
  while (start < content.size()) {
    std::size_t end = content.find('\n', start);
    if (end == std::string_view::npos) end = content.size();
    std::string raw(content.substr(start, end - start));
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    file.code.push_back(StripLine(raw, st));
    ParseSuppressions(raw, file.code.back(), file.raw.size() + 1,
                      file.suppressions);
    file.raw.push_back(std::move(raw));
    if (end == content.size()) break;
    start = end + 1;
  }
  return file;
}

SourceFile LoadSource(const std::filesystem::path& file,
                      std::string report_path) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    throw std::runtime_error("shep_lint: cannot read " + file.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ScanSource(buffer.str(), std::move(report_path));
}

}  // namespace shep::lint
