// ASCII string helpers shared across modules. DNS is ASCII-case-insensitive
// (RFC 1034 §3.1), so lowercase folding here is deliberately ASCII-only.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/simd.h"

namespace rootless::util {

inline char AsciiToLower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

std::string ToLower(std::string_view s);

bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Transparent hash/equality for std::string-keyed unordered containers so
// lookups can take std::string_view without materializing a std::string.
struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
struct TransparentStringEqual {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return a == b;
  }
};

// Case-insensitive transparent hash/equality (ASCII fold), for TLD-keyed
// tables that must accept mixed-case views straight out of a dns::Name.
struct CaseInsensitiveHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return static_cast<std::size_t>(simd::HashFold(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }
};
struct CaseInsensitiveEqual {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return EqualsIgnoreCase(a, b);
  }
};

// Splits on a single character; keeps empty fields.
std::vector<std::string_view> Split(std::string_view s, char sep);

// Splits on runs of spaces/tabs; drops empty fields.
std::vector<std::string_view> SplitWhitespace(std::string_view s);

std::string_view TrimWhitespace(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

// Strict unsigned parse of the entire string; fails on junk or overflow.
Result<std::uint64_t> ParseU64(std::string_view s);
Result<std::uint32_t> ParseU32(std::string_view s);

// Human-readable quantities for reports: "5.70B", "1.1 MB", "61.0%".
std::string FormatCount(double v);
std::string FormatBytes(double bytes);
std::string FormatPercent(double fraction, int decimals = 1);

}  // namespace rootless::util
