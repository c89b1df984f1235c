// RZC ("root zone compression"): a from-scratch LZ77 byte compressor.
//
// SUBSTITUTION (DESIGN.md §2): the paper works with the gzip'd root zone
// (~1.1 MB). We ship no zlib dependency, so RZC provides an equivalent
// compressed-artifact: hash-chained LZ77 matching over a 64 KiB window with
// varint-encoded (distance, length) pairs. Zone master files compress at a
// broadly similar ratio, and §5.1's "extract one TLD from the compressed
// zone" experiment decompresses RZC and scans, exactly like the paper's
// Python-over-gzip script.
#pragma once

#include <cstdint>
#include <span>

#include "util/bytes.h"
#include "util/result.h"

namespace rootless::zone {

// Compresses `input`. Output layout: magic | varint(raw_size) | token stream.
util::Bytes RzcCompress(std::span<const std::uint8_t> input);

// Decompresses a buffer produced by RzcCompress. A failure carries
// kTruncated (the stream ended before its header's size was produced, or
// that size exceeds what the bytes left could decode to) or kCorrupted (bad
// magic, unknown token, bad distance or length, output past the size).
util::Result<util::Bytes> RzcDecompress(std::span<const std::uint8_t> input);

// Convenience for strings (zone master files).
util::Bytes RzcCompressText(std::string_view text);
util::Result<std::string> RzcDecompressText(
    std::span<const std::uint8_t> input);

}  // namespace rootless::zone
