// Small string formatting helpers shared by the table/CSV writers and the
// benchmark harnesses.
#pragma once

#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace clip {

/// printf-style double formatting with a fixed number of decimals, every
/// digit kept however large the value.
[[nodiscard]] std::string format_double(double v, int decimals = 3);

/// Format as a percentage with sign, e.g. +23.4%.
[[nodiscard]] std::string format_percent(double fraction, int decimals = 1);

/// Left/right padding to a fixed width (spaces).
[[nodiscard]] std::string pad_left(std::string_view s, std::size_t width);
[[nodiscard]] std::string pad_right(std::string_view s, std::size_t width);

/// Split on a delimiter; keeps empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// Trim ASCII whitespace from both ends.
[[nodiscard]] std::string trim(std::string_view s);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Parse all of `s` as a double (strtod syntax), or throw PreconditionError
/// "<context>: bad number '<s>'". Trailing garbage ("0.6zz") is an error,
/// never a silent prefix parse.
[[nodiscard]] double parse_double(std::string_view s, std::string_view context);

/// Parse all of `s` as a base-10 integer in [lo, hi], or throw
/// PreconditionError naming `context`: "1.5" and "1e10" are rejected, not
/// truncated, and a value outside [lo, hi] (by default int's range) is
/// refused rather than wrapped by a narrowing cast.
[[nodiscard]] long long parse_int(
    std::string_view s, std::string_view context,
    long long lo = std::numeric_limits<int>::min(),
    long long hi = std::numeric_limits<int>::max());

/// Escape a CSV field (quote when it contains comma/quote/newline).
[[nodiscard]] std::string csv_escape(std::string_view field);

}  // namespace clip
