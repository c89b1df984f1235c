// DNS domain names (RFC 1034/1035).
//
// A Name is a sequence of labels, root-last ("www", "example", "com" for
// www.example.com.). Names compare case-insensitively and are stored with the
// original case preserved (useful for 0x20 encoding experiments); canonical
// operations fold to lowercase. All names in this library are absolute.
//
// Representation: one flattened buffer of (length octet, label bytes) pairs —
// the uncompressed wire form minus the trailing root octet — held inline for
// names up to kInlineCapacity bytes (which covers essentially all real query
// names) and heap-allocated beyond that. The case-insensitive hash is
// computed lazily on first use and cached, so the per-lookup cost of keying
// caches and zone tables by Name is a single load after warm-up. A Name never
// allocates per label, and short names never allocate at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace rootless::dns {

class Name;

// Borrowed view of a name: a pointer into some Name's flattened
// (length, label)* buffer plus its size and label count. Used for suffix
// probes (Name::SuffixView) where materializing a Name — buffer copy plus a
// fresh hash computation per probe — is pure overhead. A view never owns and
// never caches: Hash() recomputes on each call (it equals the Hash() of an
// equal Name), and the view dangles once the backing Name is destroyed or
// assigned.
class NameView {
 public:
  NameView() = default;
  explicit NameView(const Name& name);

  // A view of an uncompressed wire-form name (labels, then the root octet),
  // such as one stored inside rdata, whose label count the caller already
  // knows: the bytes are not re-parsed.
  static NameView OfWire(std::span<const std::uint8_t> wire,
                         std::size_t label_count) {
    return NameView(wire.data(), wire.size() - 1, label_count);
  }

  std::size_t label_count() const { return label_count_; }
  bool is_root() const { return label_count_ == 0; }
  std::span<const std::uint8_t> flat() const { return {data_, size_}; }

  // Same value as the Hash() of an equal Name (uncached).
  std::size_t Hash() const;

 private:
  friend class Name;
  friend bool operator==(const Name& a, const NameView& b);

  NameView(const std::uint8_t* data, std::size_t size,
           std::size_t label_count)
      : data_(data),
        size_(static_cast<std::uint8_t>(size)),
        label_count_(static_cast<std::uint8_t>(label_count)) {}

  const std::uint8_t* data_ = nullptr;
  std::uint8_t size_ = 0;
  std::uint8_t label_count_ = 0;
};

class Name {
 public:
  // Longest possible flattened buffer: 255-byte wire form minus the root
  // length octet.
  static constexpr std::size_t kMaxFlatBytes = 254;
  // Names at most this many flattened bytes are stored inline (no heap).
  static constexpr std::size_t kInlineCapacity = 38;

  // The root name ".".
  Name() = default;

  ~Name() {
    if (!is_inline()) delete[] rep_.heap;
  }

  Name(const Name& other) { CopyFrom(other); }
  Name& operator=(const Name& other) {
    if (this != &other) {
      if (!is_inline()) delete[] rep_.heap;
      CopyFrom(other);
    }
    return *this;
  }
  Name(Name&& other) noexcept { MoveFrom(other); }
  Name& operator=(Name&& other) noexcept {
    if (this != &other) {
      if (!is_inline()) delete[] rep_.heap;
      MoveFrom(other);
    }
    return *this;
  }

  // Constructs from labels, left-most label first. Precondition: each label
  // is 1..63 bytes and the total wire length is <= 255 (checked).
  static util::Result<Name> FromLabels(std::vector<std::string> labels);

  // Parses presentation format: "www.example.com." or "www.example.com"
  // (a trailing dot is optional; "." or "" is the root). Supports the
  // \DDD and \X escapes of RFC 1035 §5.1.
  static util::Result<Name> Parse(std::string_view text);

  // Decodes a (possibly compressed) name from a DNS message. `reader` must be
  // positioned at the name; on success it is positioned after it. Pointer
  // chains are validated: they must strictly decrease to guarantee
  // termination.
  static util::Result<Name> DecodeWire(util::ByteReader& reader);

  // Encodes without compression (used for rdata names and canonical forms).
  void EncodeWire(util::ByteWriter& writer) const;

  // Canonical (lowercase) uncompressed wire form, for DNSSEC signing and
  // ordering (RFC 4034 §6).
  util::Bytes CanonicalWire() const;

  std::size_t label_count() const { return label_count_; }
  bool is_root() const { return label_count_ == 0; }

  // The i-th label (0 = left-most), original case. Precondition: i is in
  // range. O(label_count), which is at most 127 and typically <= 4.
  std::string_view label(std::size_t i) const;

  // All labels as views into this Name's buffer; the views are invalidated
  // by destroying or assigning the Name. Materializes a vector — hot paths
  // should iterate with label()/label_count() or the flat data() instead.
  std::vector<std::string_view> labels() const;

  // The flattened (length, bytes)* buffer — the uncompressed wire form
  // without the trailing root octet.
  std::span<const std::uint8_t> flat() const { return {data(), size_}; }

  // Length of the uncompressed wire encoding (labels + length octets + root).
  std::size_t wire_length() const { return size_ + std::size_t{1}; }

  // The last label, lowercase — "com" for www.example.com. Empty for root.
  std::string tld() const;

  // The last label with original case, as a view into this Name (no
  // allocation). Empty for root.
  std::string_view tld_view() const;

  // Parent name with the left-most label removed. Precondition: !is_root().
  Name Parent() const;

  // The name formed by the last `n` labels ("example.com" for
  // www.example.com with n=2). n >= label_count() returns a copy.
  Name Suffix(std::size_t n) const;

  // Borrowed equivalent of Suffix(): a NameView over the last `n` labels of
  // this Name's own buffer — no copy, no allocation, no hash-cache slot.
  // Valid only while this Name is alive and unmodified.
  NameView SuffixView(std::size_t n) const;

  // Appends `suffix`'s labels after this name's labels
  // ("www" + "example.com" = "www.example.com").
  util::Result<Name> Concat(const Name& suffix) const;

  // True if this name equals `other` or is beneath it ("a.b.com" is a
  // subdomain of "com" and of "."), case-insensitive.
  bool IsSubdomainOf(const Name& other) const;

  // Case-insensitive equality.
  bool operator==(const Name& other) const;
  bool operator!=(const Name& other) const { return !(*this == other); }

  // Canonical DNS ordering (RFC 4034 §6.1): by reversed label sequence,
  // case-insensitive, shorter label sets first.
  std::weak_ordering operator<=>(const Name& other) const;

  // Presentation format with trailing dot; "." for root.
  std::string ToString() const;

  // Stable case-insensitive hash (for unordered containers). Computed once
  // per Name and cached; copies carry the cached value. The cache slot is a
  // relaxed atomic so Names inside shared immutable structures (a
  // zone::ZoneSnapshot replayed by several shard threads) can be hashed
  // concurrently: racing threads compute the same value, and no ordering
  // is needed because the buffer itself is immutable after construction.
  std::size_t Hash() const {
    std::uint64_t h = hash_.load(std::memory_order_relaxed);
    if (h == 0) {
      h = ComputeHash();
      hash_.store(h, std::memory_order_relaxed);
    }
    return static_cast<std::size_t>(h);
  }

 private:
  friend class NameView;
  friend bool operator==(const Name& a, const NameView& b);

  // Builds a Name from an already-validated flattened buffer.
  Name(const std::uint8_t* flat, std::size_t size, std::size_t label_count) {
    AdoptBuffer(flat, size, label_count);
  }

  bool is_inline() const { return size_ <= kInlineCapacity; }
  const std::uint8_t* data() const {
    return is_inline() ? rep_.inline_buf : rep_.heap;
  }

  void AdoptBuffer(const std::uint8_t* flat, std::size_t size,
                   std::size_t label_count) {
    size_ = static_cast<std::uint8_t>(size);
    label_count_ = static_cast<std::uint8_t>(label_count);
    hash_.store(0, std::memory_order_relaxed);
    if (size <= kInlineCapacity) {
      std::memcpy(rep_.inline_buf, flat, size);
    } else {
      rep_.heap = new std::uint8_t[size];
      std::memcpy(rep_.heap, flat, size);
    }
  }

  void CopyFrom(const Name& other) {
    size_ = other.size_;
    label_count_ = other.label_count_;
    hash_.store(other.hash_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    if (other.is_inline()) {
      std::memcpy(rep_.inline_buf, other.rep_.inline_buf, other.size_);
    } else {
      rep_.heap = new std::uint8_t[other.size_];
      std::memcpy(rep_.heap, other.rep_.heap, other.size_);
    }
  }

  void MoveFrom(Name& other) noexcept {
    size_ = other.size_;
    label_count_ = other.label_count_;
    hash_.store(other.hash_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    if (other.is_inline()) {
      std::memcpy(rep_.inline_buf, other.rep_.inline_buf, other.size_);
    } else {
      rep_.heap = other.rep_.heap;
      // Leave `other` as a valid root name that owns nothing.
      other.size_ = 0;
      other.label_count_ = 0;
      other.hash_.store(0, std::memory_order_relaxed);
    }
  }

  std::uint64_t ComputeHash() const;

  // Writes the offset of every length octet into `offsets` (capacity must be
  // >= label_count_); returns label_count_.
  std::size_t LabelOffsets(std::uint8_t* offsets) const;

  union Rep {
    std::uint8_t inline_buf[kInlineCapacity];
    std::uint8_t* heap;
  } rep_ = {};
  std::uint8_t size_ = 0;         // flattened bytes used
  std::uint8_t label_count_ = 0;  // cached label count
  // Cached case-insensitive hash; 0 = not yet computed (a computed hash of
  // 0 is remapped to 1, costing nothing but a vanishingly rare extra mix).
  // Relaxed atomic: see Hash(). A relaxed load/store compiles to the same
  // plain move as the old non-atomic field on x86/ARM.
  mutable std::atomic<std::uint64_t> hash_{0};
};

inline NameView::NameView(const Name& name)
    : NameView(name.data(), name.size_, name.label_count_) {}

// Case-insensitive equality of an owning Name and a borrowed view.
bool operator==(const Name& a, const NameView& b);
inline bool operator==(const NameView& a, const Name& b) { return b == a; }

struct NameHash {
  std::size_t operator()(const Name& n) const { return n.Hash(); }
};

}  // namespace rootless::dns
