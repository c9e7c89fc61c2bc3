// strings.hpp — string helpers for argument parsing and report formatting.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace shep {

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Parses a non-negative integer; nullopt on failure.
[[nodiscard]] std::optional<long long> ParseInt(std::string_view s);

/// Formats `value` with `digits` digits after the decimal point.
std::string FormatFixed(double value, int digits);

/// Formats a ratio as a percentage string, e.g. 0.1580 -> "15.80%".
std::string FormatPercent(double ratio, int digits = 2);

}  // namespace shep
