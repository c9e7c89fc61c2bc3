// serdes.hpp — the one exact text codec of the tree.
//
// Every text that crosses a process or file boundary (the ScenarioSpec,
// the CellAccumulators of a FleetPartial, the trace records and trace
// files) uses one grammar: tokens separated by one space, lines by '\n',
// and a final '\n'.  Doubles travel as hexfloats: exact round trip for
// every finite double, no precision pitfalls ("inf"/"nan" for the
// non-finite values, whose payloads no consumer merges on).  Integers
// travel as canonical decimals.  Every token has one spelling, and a reader
// accepts only that one: it throws std::invalid_argument, naming the
// token, on anything a writer would not print back byte for byte.  That is
// the check that every double goes through WriteDouble — one streamed bare
// ("0", "0.5") by any writer cannot be read back.
//
// A format lists its fields once, in text order, as a walk
//   constexpr auto WalkX = [](auto& io, auto& value) { ... };
// that Write runs with a Writer to print the text and Read runs with a
// Reader to parse it back.  A policy has
//   Keyword(word, new_line)  format framing; new_line starts a text line,
//   Field(value)             one string token, integer, bool or double, or
//                            a nested format: a value with its own
//                            Serialize(os)/Deserialize(is), whose lines
//                            start on a fresh line and end with '\n',
//   List(items, visit)       the item count, then visit(item) per item.
// A reader-side check runs right after its format's walk, in Deserialize
// or Parse, so a nested value is checked wherever it is read.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace shep::serdes {

/// Prints `value` as printf's "%a" hexfloat ("0x1.8p+1", "-0x0p+0", "inf").
void WriteDouble(std::ostream& os, double value);
/// Reads one token that WriteDouble of its value prints back byte for byte;
/// any other spelling of a double ("1.5", "0X1P+0", "+0x1p+0") throws.
double ReadDouble(std::istream& is);
/// A canonical decimal: "0" or [1-9][0-9]* that fits 64 bits.  A sign, a
/// leading zero or anything else no writer emits throws.
[[nodiscard]] std::uint64_t ParseU64(std::string_view token);
/// Reads one token through ParseU64.
std::uint64_t ReadU64(std::istream& is);
/// ReadU64 narrowed with a range check: a value that does not fit throws
/// instead of wrapping to a legal one (2^32 + 48 is corruption, not 48).
std::uint32_t ReadU32(std::istream& is);
/// ReadU64 narrowed to a non-negative int, range-checked the same way.
int ReadInt(std::istream& is);
/// Reads one token and requires it to equal `keyword` (format framing).
void ExpectToken(std::istream& is, std::string_view keyword);
/// True when `text` reads back as one token: non-empty, no whitespace.
bool IsToken(std::string_view text);

/// Prints a walk's text to any stream.
class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  void Keyword(const char* word, bool new_line) {
    if (new_line) {
      EndLine();
    } else {
      os_ << ' ';
    }
    os_ << word;
    line_open_ = true;
  }
  void Field(double value) {
    os_ << ' ';
    WriteDouble(os_, value);
  }
  template <std::integral T>
  void Field(T value) {
    os_ << ' ' << +value;  // unary + prints a bool as 0 or 1.
  }
  /// Throws std::invalid_argument unless IsToken(token): an empty or
  /// whitespace-bearing string would not read back as one field.
  void Field(const std::string& token);
  template <class T>
    requires requires(const T& v, std::ostream& os) { v.Serialize(os); }
  void Field(const T& value) {
    value.Serialize(EndLine());
  }
  template <class T, class Visit>
  void List(const std::vector<T>& items, Visit&& visit) {
    os_ << ' ' << items.size();
    for (const T& item : items) visit(item);
  }

  /// Ends the open line and returns the stream: a text ends with this,
  /// and a nested format's lines start with it.
  std::ostream& EndLine() {
    if (line_open_) os_ << '\n';
    line_open_ = false;
    return os_;
  }

 private:
  std::ostream& os_;
  bool line_open_ = false;
};

/// Parses a walk's text back, range-checking every field at its width.
class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {}

  void Keyword(const char* word, bool /*new_line*/) {
    ExpectToken(is_, word);
  }
  void Field(std::string& token);
  void Field(double& value) { value = ReadDouble(is_); }
  void Field(std::uint64_t& value) { value = ReadU64(is_); }
  void Field(std::uint32_t& value) { value = ReadU32(is_); }
  void Field(int& value) { value = ReadInt(is_); }
  void Field(bool& value);
  template <class T>
    requires requires(std::istream& is) {
      { T::Deserialize(is) } -> std::same_as<T>;
    }
  void Field(T& value) {
    value = T::Deserialize(is_);
  }
  /// One emplace_back per item read: the count is input, so it never sizes
  /// an allocation (a short text ends the loop by throwing).
  template <class T, class Visit>
  void List(std::vector<T>& items, Visit&& visit) {
    const std::uint64_t count = ReadU64(is_);
    items.clear();
    for (std::uint64_t i = 0; i < count; ++i) visit(items.emplace_back());
  }

 private:
  std::istream& is_;
};

/// `keyword`, then each of `values`, on the current line.
template <class Io, class... T>
void Key(Io& io, const char* keyword, T&&... values) {
  io.Keyword(keyword, false);
  (io.Field(values), ...);
}

/// Like Key, but `keyword` starts a new line of the text.
template <class Io, class... T>
void Line(Io& io, const char* keyword, T&&... values) {
  io.Keyword(keyword, true);
  (io.Field(values), ...);
}

/// Prints `value` through `walk` as one whole text, final '\n' included.
template <class T, class Walk>
void Write(std::ostream& os, const T& value, Walk walk) {
  Writer writer(os);
  walk(writer, value);
  writer.EndLine();
}

/// Parses one T through `walk`; the format's checks run on the result.
template <class T, class Walk>
[[nodiscard]] T Read(std::istream& is, Walk walk) {
  Reader reader(is);
  T value;
  walk(reader, value);
  return value;
}

/// FNV-1a 64-bit, behind the shard-plan fingerprint (ScenarioSpec::Hash
/// mixes the spec's values into it) and the frame checksum.
/// Not cryptographic: it only has to make accidental mismatches fail loudly.
class Fnv1a {
 public:
  /// The bytes as they are, with no length mixed in.
  void Bytes(std::string_view bytes) {
    for (char c : bytes) Byte(static_cast<unsigned char>(c));
  }
  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<unsigned char>(v >> (8 * i)));
    }
  }
  void Mix(const std::string& s) {
    Mix(static_cast<std::uint64_t>(s.size()));
    Bytes(s);
  }
  void Mix(double v) { Mix(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return hash_; }

 private:
  void Byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001B3ull;
  }
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

}  // namespace shep::serdes
