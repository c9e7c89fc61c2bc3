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
// every existing serializer (aggregates, FleetPartial, ShardPlan) keeps
// spelling them shep::serdes::*.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

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

}  // namespace shep::serdes
