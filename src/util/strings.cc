#include "util/strings.h"

#include <cstdio>

namespace rootless::util {

std::string ToLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(AsciiToLower(c));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  return simd::EqualFold(reinterpret_cast<const std::uint8_t*>(a.data()),
                         reinterpret_cast<const std::uint8_t*>(b.data()),
                         a.size());
}

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> SplitWhitespace(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < s.size() && s[i] != ' ' && s[i] != '\t') ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n'))
    ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
                   s[e - 1] == '\n'))
    --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

Result<std::uint64_t> ParseU64(std::string_view s) {
  if (s.empty()) return Error("empty integer");
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return Error("non-digit in integer");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (~0ULL - digit) / 10) return Error("integer overflow");
    v = v * 10 + digit;
  }
  return v;
}

Result<std::uint32_t> ParseU32(std::string_view s) {
  auto v = ParseU64(s);
  if (!v.ok()) return v.error();
  if (*v > 0xFFFFFFFFULL) return Error("integer overflow");
  return static_cast<std::uint32_t>(*v);
}

std::string FormatCount(double v) {
  char buf[64];
  if (v >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fB", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fK", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  }
  return buf;
}

std::string FormatBytes(double bytes) {
  char buf[64];
  if (bytes >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", bytes / (1024.0 * 1024.0 * 1024.0));
  } else if (bytes >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", bytes / (1024.0 * 1024.0));
  } else if (bytes >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

std::string FormatPercent(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

}  // namespace rootless::util
