#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace shep {

std::string_view Trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::optional<long long> ParseInt(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return std::nullopt;
  long long value = 0;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

std::string FormatFixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return std::string(buf);
}

std::string FormatPercent(double ratio, int digits) {
  return FormatFixed(ratio * 100.0, digits) + "%";
}

}  // namespace shep
