// RFC 1035 §5 master-file parser and serializer.
//
// Supports: $ORIGIN and $TTL directives, '@' for the origin, inherited owner
// names and TTLs, parenthesized multi-line records, ';' comments, quoted TXT
// strings, relative names, and RFC 3597 \# unknown-type syntax.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "dns/rr.h"
#include "util/result.h"

namespace rootless::zone {

struct ParseOptions {
  // Origin appended to relative names; overridden by $ORIGIN.
  dns::Name origin;
  // Default TTL when a record omits one; overridden by $TTL.
  std::uint32_t default_ttl = 86400;
};

// Parses master-file text into records, in file order. A failure is
// kTruncated when the text ends inside parentheses or a quoted string, and
// kCorrupted otherwise.
util::Result<std::vector<dns::ResourceRecord>> ParseMasterFile(
    std::string_view text, const ParseOptions& options = {});

// Serializes records as master-file lines (absolute names, explicit TTLs).
std::string SerializeMasterFile(const std::vector<dns::ResourceRecord>& records);

}  // namespace rootless::zone
