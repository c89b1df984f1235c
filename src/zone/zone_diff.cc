#include "zone/zone_diff.h"

#include "zone/snapshot.h"

namespace rootless::zone {

using dns::RRsetKey;
using util::ByteReader;
using util::Bytes;
using util::ByteWriter;
using util::Error;

namespace {

void WriteKey(const RRsetKey& k, ByteWriter& w) {
  k.name.EncodeWire(w);
  w.WriteU16(static_cast<std::uint16_t>(k.type));
  w.WriteU16(static_cast<std::uint16_t>(k.rrclass));
}

util::Result<RRsetKey> ReadKey(ByteReader& r) {
  RRsetKey k;
  auto name = dns::Name::DecodeWire(r);
  if (!name.ok()) return name.error();
  k.name = std::move(*name);
  std::uint16_t type = 0, rrclass = 0;
  if (!r.ReadU16(type) || !r.ReadU16(rrclass))
    return Error(ErrorCode::kTruncated, "diff: truncated key");
  k.type = static_cast<dns::RRType>(type);
  k.rrclass = static_cast<dns::RRClass>(rrclass);
  return k;
}

constexpr std::uint32_t kDiffMagic = 0x52444946;  // "RDIF"

}  // namespace

Bytes SerializeDiff(const ZoneDiff& diff) {
  ByteWriter w;
  w.WriteU32(kDiffMagic);
  w.WriteVarint(diff.added.size());
  for (const auto& s : diff.added) WriteRRsetWire(s, w);
  w.WriteVarint(diff.removed.size());
  for (const auto& k : diff.removed) WriteKey(k, w);
  w.WriteVarint(diff.changed.size());
  for (const auto& s : diff.changed) WriteRRsetWire(s, w);
  return w.TakeData();
}

util::Result<ZoneDiff> DeserializeDiff(std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  std::uint32_t magic = 0;
  if (!r.ReadU32(magic))
    return Error(ErrorCode::kTruncated, "diff: truncated magic");
  if (magic != kDiffMagic)
    return Error(ErrorCode::kCorrupted, "diff: bad magic");
  ZoneDiff diff;
  std::uint64_t n = 0;
  if (!r.ReadVarint(n))
    return Error(ErrorCode::kTruncated, "diff: truncated count");
  for (std::uint64_t i = 0; i < n; ++i) {
    auto s = ReadRRsetWire(r);
    if (!s.ok()) return s.error();
    diff.added.push_back(std::move(*s));
  }
  if (!r.ReadVarint(n))
    return Error(ErrorCode::kTruncated, "diff: truncated count");
  for (std::uint64_t i = 0; i < n; ++i) {
    auto k = ReadKey(r);
    if (!k.ok()) return k.error();
    diff.removed.push_back(std::move(*k));
  }
  if (!r.ReadVarint(n))
    return Error(ErrorCode::kTruncated, "diff: truncated count");
  for (std::uint64_t i = 0; i < n; ++i) {
    auto s = ReadRRsetWire(r);
    if (!s.ok()) return s.error();
    diff.changed.push_back(std::move(*s));
  }
  if (!r.at_end())
    return Error(ErrorCode::kCorrupted, "diff: trailing bytes");
  return diff;
}

}  // namespace rootless::zone
