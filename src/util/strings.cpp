#include "util/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/check.hpp"

namespace clip {

std::string format_double(double v, int decimals) {
  char buf[64];
  // clip-lint: allow(D3) deliberate fixed-decimal rendering for human-facing tables; exact exports use obs::format_exact
  const int n = std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  if (n < static_cast<int>(sizeof buf)) return buf;
  // Past 1e56 or so the digits outgrow the buffer; a cut-off rendering
  // would read back as a different number.
  std::string out(static_cast<std::size_t>(n), '\0');
  // clip-lint: allow(D3) the same human-facing fixed-decimal rendering, into a buffer sized to the value
  std::snprintf(out.data(), out.size() + 1, "%.*f", decimals, v);
  return out;
}

std::string format_percent(double fraction, int decimals) {
  char buf[64];
  // clip-lint: allow(D3) deliberate fixed-decimal percentage for human-facing tables; exact exports use obs::format_exact
  std::snprintf(buf, sizeof buf, "%+.*f%%", decimals, fraction * 100.0);
  return buf;
}

std::string pad_left(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(width - s.size(), ' ') + std::string(s);
}

std::string pad_right(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(s) + std::string(width - s.size(), ' ');
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

double parse_double(std::string_view s, std::string_view context) {
  const std::string text(s);
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  CLIP_REQUIRE(!text.empty() && end == text.c_str() + text.size(),
               std::string(context) + ": bad number '" + text + "'");
  return v;
}

long long parse_int(std::string_view s, std::string_view context,
                    long long lo, long long hi) {
  const std::string text(s);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  CLIP_REQUIRE(!text.empty() && end == text.c_str() + text.size(),
               std::string(context) + ": bad integer '" + text + "'");
  CLIP_REQUIRE(errno != ERANGE && v >= lo && v <= hi,
               std::string(context) + ": " + text + " is outside [" +
                   std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return v;
}

std::string csv_escape(std::string_view field) {
  const bool needs_quote =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quote) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace clip
