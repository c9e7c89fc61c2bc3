#include "common/serdes.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <iterator>
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

/// Room for the longest spelling, "-0x1.fffffffffffffp+1023".
constexpr std::size_t kDoubleChars = 32;

/// The one spelling of `value`: glibc printf's "%a", which std::hexfloat
/// prints too.  It is exact for every finite double; infinities and NaNs
/// spell "inf"/"nan" (no NaN payload: no serialized field ever merges on
/// one).  Built from the bits rather than by printf, whose cost per token
/// would show in every spec parse, or by to_chars, whose subnormal
/// spelling differs between libstdc++ releases.
std::string_view SpellDouble(double value, char (&buf)[kDoubleChars]) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const int biased = static_cast<int>(bits >> 52 & 0x7FF);
  std::uint64_t fraction = bits & ((std::uint64_t{1} << 52) - 1);
  char* out = buf;
  if (bits >> 63 != 0) *out++ = '-';
  if (biased == 0x7FF) {
    out = std::copy_n(fraction != 0 ? "nan" : "inf", 3, out);
    return {buf, static_cast<std::size_t>(out - buf)};
  }
  // Zero is 0x0p+0; a subnormal keeps its leading 0 and exponent -1022.
  const int exponent =
      biased != 0 ? biased - 1023 : (fraction != 0 ? -1022 : 0);
  out = std::copy_n(biased != 0 ? "0x1" : "0x0", 3, out);
  if (fraction != 0) *out++ = '.';
  // The 13 fraction digits, most significant first, up to the last non-zero.
  for (int shift = 48; fraction != 0; shift -= 4) {
    *out++ = "0123456789abcdef"[fraction >> shift];
    fraction &= (std::uint64_t{1} << shift) - 1;
  }
  *out++ = 'p';
  *out++ = exponent < 0 ? '-' : '+';
  out = std::to_chars(out, std::end(buf), exponent < 0 ? -exponent : exponent)
            .ptr;
  return {buf, static_cast<std::size_t>(out - buf)};
}

}  // namespace

void WriteDouble(std::ostream& os, double value) {
  char buf[kDoubleChars];
  os << SpellDouble(value, buf);
}

double ReadDouble(std::istream& is) {
  const std::string token = ReadToken(is);
  const double value = std::strtod(token.c_str(), nullptr);
  // Only WriteDouble's own spelling of the parsed value reads back, so a
  // decimal, an overflow, trailing junk or a double streamed bare by any
  // writer ("0" for 0x0p+0) all throw here instead of changing bytes.
  char buf[kDoubleChars];
  SHEP_REQUIRE(SpellDouble(value, buf) == token,
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
