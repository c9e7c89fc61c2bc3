#include "common/serdes.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>

#include "common/check.hpp"

namespace shep::serdes {

void WriteDouble(std::ostream& os, double value) {
  // Hexfloat is exact for every finite double; infinities and NaNs print
  // as "inf"/"nan", which strtod parses back (NaN payloads don't matter —
  // no serialized field ever merges on one).
  const auto flags = os.flags();
  os << std::hexfloat << value;
  os.flags(flags);
}

double ReadDouble(std::istream& is) {
  std::string token;
  is >> token;
  SHEP_REQUIRE(!token.empty(), "unexpected end of serialized input");
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

std::uint64_t ReadU64(std::istream& is) {
  std::string token;
  is >> token;
  SHEP_REQUIRE(!token.empty(), "unexpected end of serialized input");
  const char* begin = token.c_str();
  char* end = nullptr;
  errno = 0;  // strtoull reports overflow only through ERANGE.
  const unsigned long long value = std::strtoull(begin, &end, 10);
  SHEP_REQUIRE(end == begin + token.size() && token[0] != '-' &&
                   errno != ERANGE,
               "malformed serialized integer: " + token);
  return static_cast<std::uint64_t>(value);
}

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

void ExpectToken(std::istream& is, const std::string& keyword) {
  std::string token;
  is >> token;
  SHEP_REQUIRE(token == keyword,
               "expected `" + keyword + "`, got `" + token + "`");
}

}  // namespace shep::serdes
