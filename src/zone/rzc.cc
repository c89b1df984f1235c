#include "zone/rzc.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace rootless::zone {

using util::ByteReader;
using util::Bytes;
using util::ByteWriter;
using util::Error;

namespace {

constexpr std::uint32_t kMagic = 0x525A4331;  // "RZC1"
constexpr std::size_t kWindowSize = 64 * 1024;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 1024;
constexpr std::size_t kHashBits = 16;
constexpr std::size_t kMaxChain = 32;

// Token stream: a control byte per token.
//   0x00 lit_len(varint) literals...   — literal run
//   0x01 length(varint) distance(varint) — back-reference
inline std::uint32_t HashAt(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

}  // namespace

Bytes RzcCompress(std::span<const std::uint8_t> input) {
  ByteWriter w;
  w.WriteU32(kMagic);
  w.WriteVarint(input.size());

  const std::size_t n = input.size();
  std::vector<std::int64_t> head(1u << kHashBits, -1);
  std::vector<std::int64_t> prev(n, -1);

  std::size_t literal_start = 0;
  auto flush_literals = [&](std::size_t end) {
    if (end <= literal_start) return;
    w.WriteU8(0x00);
    w.WriteVarint(end - literal_start);
    w.WriteBytes(input.subspan(literal_start, end - literal_start));
  };

  std::size_t i = 0;
  while (i < n) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      const std::uint32_t h = HashAt(input.data() + i);
      std::int64_t candidate = head[h];
      std::size_t chain = 0;
      while (candidate >= 0 && chain < kMaxChain) {
        const std::size_t c = static_cast<std::size_t>(candidate);
        if (i - c > kWindowSize) break;
        const std::size_t limit = std::min(kMaxMatch, n - i);
        std::size_t len = 0;
        while (len < limit && input[c + len] == input[i + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = i - c;
          if (len >= limit) break;
        }
        candidate = prev[c];
        ++chain;
      }
    }

    if (best_len >= kMinMatch) {
      flush_literals(i);
      w.WriteU8(0x01);
      w.WriteVarint(best_len);
      w.WriteVarint(best_dist);
      // Insert hash entries for the matched region (sparsely, every byte is
      // affordable at our sizes).
      const std::size_t end = i + best_len;
      while (i < end && i + kMinMatch <= n) {
        const std::uint32_t h = HashAt(input.data() + i);
        prev[i] = head[h];
        head[h] = static_cast<std::int64_t>(i);
        ++i;
      }
      i = end;
      literal_start = i;
    } else {
      if (i + kMinMatch <= n) {
        const std::uint32_t h = HashAt(input.data() + i);
        prev[i] = head[h];
        head[h] = static_cast<std::int64_t>(i);
      }
      ++i;
    }
  }
  flush_literals(n);
  return w.TakeData();
}

util::Result<Bytes> RzcDecompress(std::span<const std::uint8_t> input) {
  ByteReader r(input);
  std::uint32_t magic = 0;
  if (!r.ReadU32(magic))
    return Error(ErrorCode::kTruncated, "rzc: truncated magic");
  if (magic != kMagic) return Error(ErrorCode::kCorrupted, "rzc: bad magic");
  std::uint64_t raw_size = 0;
  if (!r.ReadVarint(raw_size))
    return Error(ErrorCode::kTruncated, "rzc: truncated header");
  if (raw_size > (1ULL << 32))
    return Error(ErrorCode::kCorrupted, "rzc: implausible size");
  // Every token is at least 3 bytes and yields at most kMaxMatch bytes, so
  // the bytes left bound the output; a larger header size cannot be met by
  // this input and must not size the reservation.
  if (raw_size > r.remaining() / 3 * kMaxMatch)
    return Error(ErrorCode::kTruncated, "rzc: stream shorter than its size");

  Bytes out;
  out.reserve(raw_size);
  while (!r.at_end()) {
    std::uint8_t control = 0;
    r.ReadU8(control);  // the loop condition guarantees a byte
    if (control == 0x00) {
      std::uint64_t len = 0;
      std::span<const std::uint8_t> lits;
      if (!r.ReadVarint(len) || !r.ReadSpan(len, lits))
        return Error(ErrorCode::kTruncated, "rzc: truncated literals");
      if (out.size() + len > raw_size)
        return Error(ErrorCode::kCorrupted, "rzc: output overflow");
      out.insert(out.end(), lits.begin(), lits.end());
    } else if (control == 0x01) {
      std::uint64_t len = 0, dist = 0;
      if (!r.ReadVarint(len) || !r.ReadVarint(dist))
        return Error(ErrorCode::kTruncated, "rzc: truncated match");
      if (dist == 0 || dist > out.size())
        return Error(ErrorCode::kCorrupted, "rzc: bad distance");
      if (len < kMinMatch || len > kMaxMatch)
        return Error(ErrorCode::kCorrupted, "rzc: bad length");
      if (out.size() + len > raw_size)
        return Error(ErrorCode::kCorrupted, "rzc: output overflow");
      std::size_t from = out.size() - dist;
      for (std::uint64_t k = 0; k < len; ++k) {
        out.push_back(out[from + k]);  // overlapping copies are well-defined
      }
    } else {
      return Error(ErrorCode::kCorrupted, "rzc: unknown control byte");
    }
  }
  if (out.size() != raw_size)
    return Error(ErrorCode::kTruncated, "rzc: stream ended before its size");
  return out;
}

Bytes RzcCompressText(std::string_view text) {
  return RzcCompress(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

util::Result<std::string> RzcDecompressText(
    std::span<const std::uint8_t> input) {
  auto bytes = RzcDecompress(input);
  if (!bytes.ok()) return bytes.error();
  return std::string(bytes->begin(), bytes->end());
}

}  // namespace rootless::zone
