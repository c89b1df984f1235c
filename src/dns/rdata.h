// Typed RDATA for the record types the root zone and the resolver use.
//
// Each alternative knows its wire encoding (RFC 1035/4034) and its
// presentation format (master-file field syntax). Unknown types round-trip as
// RawData (RFC 3597 \# syntax). RdataRun is the stored form: rdatas kept as
// their wire bytes in an arena someone else owns (a zone snapshot page),
// decoded to Rdata only where a consumer reads a field.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "dns/name.h"
#include "dns/types.h"
#include "util/bytes.h"
#include "util/result.h"

namespace rootless::dns {

// IPv4 address, network order.
struct Ipv4 {
  std::uint32_t addr = 0;

  static util::Result<Ipv4> Parse(std::string_view text);
  std::string ToString() const;
  bool operator==(const Ipv4&) const = default;
  auto operator<=>(const Ipv4&) const = default;
};

// IPv6 address, 16 bytes network order.
struct Ipv6 {
  std::array<std::uint8_t, 16> addr{};

  static util::Result<Ipv6> Parse(std::string_view text);
  std::string ToString() const;  // RFC 5952 canonical form
  bool operator==(const Ipv6&) const = default;
  auto operator<=>(const Ipv6&) const = default;
};

struct AData {
  Ipv4 address;
  bool operator==(const AData&) const = default;
};

struct AaaaData {
  Ipv6 address;
  bool operator==(const AaaaData&) const = default;
};

struct NsData {
  Name nameserver;
  bool operator==(const NsData&) const = default;
};

struct CnameData {
  Name target;
  bool operator==(const CnameData&) const = default;
};

struct SoaData {
  Name mname;
  Name rname;
  std::uint32_t serial = 0;
  std::uint32_t refresh = 0;
  std::uint32_t retry = 0;
  std::uint32_t expire = 0;
  std::uint32_t minimum = 0;
  bool operator==(const SoaData&) const = default;
};

struct MxData {
  std::uint16_t preference = 0;
  Name exchange;
  bool operator==(const MxData&) const = default;
};

struct TxtData {
  std::vector<std::string> strings;  // each <= 255 bytes on the wire
  bool operator==(const TxtData&) const = default;
};

struct DsData {
  std::uint16_t key_tag = 0;
  std::uint8_t algorithm = 0;
  std::uint8_t digest_type = 0;
  util::Bytes digest;
  bool operator==(const DsData&) const = default;
};

struct DnskeyData {
  std::uint16_t flags = 0;  // 256 = ZSK, 257 = KSK
  std::uint8_t protocol = 3;
  std::uint8_t algorithm = 0;
  util::Bytes public_key;
  bool operator==(const DnskeyData&) const = default;

  bool is_ksk() const { return (flags & 0x0001) != 0 && (flags & 0x0100) != 0; }
};

struct RrsigData {
  RRType type_covered = RRType::kA;
  std::uint8_t algorithm = 0;
  std::uint8_t labels = 0;
  std::uint32_t original_ttl = 0;
  std::uint32_t expiration = 0;  // unix seconds
  std::uint32_t inception = 0;   // unix seconds
  std::uint16_t key_tag = 0;
  Name signer;
  util::Bytes signature;
  bool operator==(const RrsigData&) const = default;
};

struct NsecData {
  Name next;
  std::vector<RRType> types;  // sorted ascending
  bool operator==(const NsecData&) const = default;
};

// Fallback for types without a typed representation.
struct RawData {
  util::Bytes bytes;
  bool operator==(const RawData&) const = default;
};

using Rdata = std::variant<AData, AaaaData, NsData, CnameData, SoaData, MxData,
                           TxtData, DsData, DnskeyData, RrsigData, NsecData,
                           RawData>;

// The most bytes one RDATA may take: RDLENGTH is 16 bits (RFC 1035 §3.2.1).
inline constexpr std::size_t kMaxRdataLength = 0xFFFF;

// Wire encoding of the RDATA only (no RDLENGTH prefix). Names inside RDATA
// are never compressed (safe for all types, required for DNSSEC types).
void EncodeRdata(const Rdata& rdata, util::ByteWriter& writer);

// True if EncodeRdata writes at most kMaxRdataLength bytes for `rdata`.
bool RdataFitsRdlength(const Rdata& rdata);

// Decodes `rdlength` bytes of RDATA of the given type. Name fields inside
// RDATA may be compressed in the surrounding message, so the reader is the
// full-message reader positioned at the RDATA start. What it returns
// encodes to at most kMaxRdataLength bytes: a longer `rdlength`, or an
// RRSIG whose compressed signer expands past that, is kCorrupted.
util::Result<Rdata> DecodeRdata(RRType type, std::size_t rdlength,
                                util::ByteReader& reader);

// Presentation format of the RDATA fields, e.g. "198.41.0.4" or
// "a.root-servers.net." Matches what the master-file parser accepts.
std::string RdataToString(const Rdata& rdata);

// Parses presentation fields for the given type. `fields` are the
// whitespace-split tokens after the type name. Name fields not ending in '.'
// are taken relative to `origin` (master-file convention). Fails for rdata
// that would encode to more than kMaxRdataLength bytes.
util::Result<Rdata> RdataFromFields(RRType type,
                                    const std::vector<std::string_view>& fields,
                                    const Name& origin = Name());

// True if the Rdata alternative matches the RR type code. Exactly then does
// DecodeRdata of `type` read back what EncodeRdata wrote.
bool RdataMatchesType(const Rdata& rdata, RRType type);

// A run of rdatas stored back to back in a byte arena owned elsewhere. Each
// element is a two-byte big-endian length followed by the bytes EncodeRdata
// writes: uncompressed wire, so an encoder copies it into a message as it
// stands. The run borrows the arena and is valid while the arena lives.
// Every read goes through std::span, so a bounds-checked build
// (-D_GLIBCXX_ASSERTIONS) stops a walk that reads past the run.
class RdataRun {
 public:
  // Yields each element's wire bytes (without the length prefix).
  class Iterator {
   public:
    using value_type = std::span<const std::uint8_t>;
    using reference = value_type;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::input_iterator_tag;
    using iterator_concept = std::forward_iterator_tag;

    Iterator() = default;
    value_type operator*() const { return rest_.subspan(2, Length()); }
    Iterator& operator++() {
      rest_ = rest_.subspan(2 + Length());
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    // Iterators of one run are equal iff as many bytes remain after them.
    bool operator==(const Iterator& other) const {
      return rest_.size() == other.rest_.size();
    }

   private:
    friend class RdataRun;
    explicit Iterator(std::span<const std::uint8_t> rest) : rest_(rest) {}
    std::size_t Length() const {
      return std::size_t{rest_[0]} << 8 | rest_[1];
    }
    std::span<const std::uint8_t> rest_;
  };

  RdataRun() = default;
  // The run of `count` elements whose stored form is exactly `stored`.
  RdataRun(std::span<const std::uint8_t> stored, std::size_t count)
      : data_(stored.data()),
        bytes_(static_cast<std::uint32_t>(stored.size())),
        count_(static_cast<std::uint32_t>(count)) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  Iterator begin() const { return Iterator(stored()); }
  Iterator end() const { return Iterator(); }
  std::span<const std::uint8_t> front() const { return *begin(); }

  // The stored form, length prefixes included: two runs hold the same
  // bytes in the same order iff their stored forms are equal.
  std::span<const std::uint8_t> stored() const { return {data_, bytes_}; }

  // The first `n` elements, and all but the first `n` (n <= size()).
  RdataRun first(std::size_t n) const;
  RdataRun subspan(std::size_t n) const;

  // The run of one empty rdata, in static storage (an OPT record's).
  static RdataRun OneEmpty();

  // Appends `rdata` to an arena in the stored form. It must encode to at
  // most kMaxRdataLength bytes (checked), as whatever DecodeRdata and
  // RdataFromFields return does.
  static void Append(const Rdata& rdata, util::ByteWriter& arena);
  // Decodes one element of a run of `type`. The element must have been
  // stored from an Rdata that RdataMatchesType(type) (checked).
  static Rdata Decode(RRType type, std::span<const std::uint8_t> wire);

 private:
  // Bytes of the stored form that the first `n` elements take.
  std::size_t PrefixBytes(std::size_t n) const;

  // The stored form as a pointer and a size: an RRsetView stays 32 bytes,
  // and a server copies its scratch views once per answer.
  const std::uint8_t* data_ = nullptr;
  std::uint32_t bytes_ = 0;
  std::uint32_t count_ = 0;
};

}  // namespace rootless::dns
