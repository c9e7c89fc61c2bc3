#include "common/serdes.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/check.hpp"

namespace shep::serdes {

namespace {

std::string ReadToken(std::istream& is) {
  std::string token;
  is >> token;
  SHEP_REQUIRE(!token.empty(), "unexpected end of serialized input");
  return token;
}

}  // namespace

void WriteDouble(std::ostream& os, double value) {
  // Hexfloat is exact for every finite double; infinities and NaNs print
  // as "inf"/"nan", which strtod parses back (NaN payloads don't matter —
  // no serialized field ever merges on one).
  const auto flags = os.flags();
  os << std::hexfloat << value;
  os.flags(flags);
}

double ReadDouble(std::istream& is) {
  const std::string token = ReadToken(is);
  const char* begin = token.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  // Reject overflowed decimals ("1e999" → ±HUGE_VAL + ERANGE): no
  // Serialize call emits them (hexfloat never overflows strtod), so one
  // in the wire text is corruption, not data.  Underflow (ERANGE with a
  // tiny result) stays accepted — subnormal hexfloats parse exactly.
  SHEP_REQUIRE(end == begin + token.size() &&
                   !(errno == ERANGE && std::abs(value) == HUGE_VAL),
               "malformed serialized double: " + token);
  return value;
}

std::uint64_t ParseU64(std::string_view token) {
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  // from_chars takes no sign and reports overflow; it does take leading
  // zeros, which no writer emits.
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  SHEP_REQUIRE(error == std::errc() && stop == end &&
                   (token[0] != '0' || token.size() == 1),
               "malformed serialized integer: " + std::string(token));
  return value;
}

std::uint64_t ReadU64(std::istream& is) { return ParseU64(ReadToken(is)); }

std::uint32_t ReadU32(std::istream& is) {
  const std::uint64_t value = ReadU64(is);
  SHEP_REQUIRE(value <= std::numeric_limits<std::uint32_t>::max(),
               "serialized value does not fit 32 bits: " +
                   std::to_string(value));
  return static_cast<std::uint32_t>(value);
}

int ReadInt(std::istream& is) {
  const std::uint64_t value = ReadU64(is);
  SHEP_REQUIRE(value <= static_cast<std::uint64_t>(
                            std::numeric_limits<int>::max()),
               "serialized value does not fit an int: " +
                   std::to_string(value));
  return static_cast<int>(value);
}

void ExpectToken(std::istream& is, std::string_view keyword) {
  std::string token;
  is >> token;
  SHEP_REQUIRE(token == keyword, "expected `" + std::string(keyword) +
                                     "`, got `" + token + "`");
}

bool IsToken(std::string_view text) {
  return !text.empty() && text.find_first_of(" \t\n\v\f\r") == text.npos;
}

void Writer::Field(const std::string& token) {
  SHEP_REQUIRE(IsToken(token),
               "a serialized string must be one whitespace-free token: `" +
                   token + "`");
  os_ << ' ' << token;
}

void Reader::Field(std::string& token) { token = ReadToken(is_); }

void Reader::Field(bool& value) {
  const std::uint64_t flag = ReadU64(is_);
  SHEP_REQUIRE(flag <= 1, "serialized flag must be 0 or 1");
  value = flag == 1;
}

}  // namespace shep::serdes
