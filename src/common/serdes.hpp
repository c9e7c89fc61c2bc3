// serdes.hpp — token-level helpers shared by every exact text
// (de)serializer in the tree.
//
// Doubles travel as hexfloats: exact round trip for every finite double,
// no locale or precision pitfalls ("inf"/"nan" for the non-finite values,
// whose payloads no consumer merges on).  Readers throw
// std::invalid_argument on malformed input, naming the offending token.
//
// Historically these lived in fleet/aggregate; they moved down to common
// when the trace layer (src/trace) needed the same exact wire discipline
// for per-slot telemetry records without depending on the fleet layer.
// fleet/aggregate.hpp still re-exports them by including this header, so
// every serializer (aggregates, FleetPartial, ScenarioSpec, the worker job
// and the trace files) spells them shep::serdes::*.
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace shep::serdes {

void WriteDouble(std::ostream& os, double value);
double ReadDouble(std::istream& is);
std::uint64_t ReadU64(std::istream& is);
/// ReadU64 narrowed with a range check: a value that does not fit throws
/// instead of wrapping to a legal one (2^32 + 48 is corruption, not 48).
std::uint32_t ReadU32(std::istream& is);
/// ReadU64 narrowed to a non-negative int, range-checked the same way.
int ReadInt(std::istream& is);
/// Reads one token and requires it to equal `keyword` (format framing).
void ExpectToken(std::istream& is, const std::string& keyword);

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
