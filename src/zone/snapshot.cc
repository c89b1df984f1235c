#include "zone/snapshot.h"

namespace rootless::zone {

using util::ByteReader;
using util::Bytes;
using util::ByteWriter;
using util::Error;

namespace {
constexpr std::uint32_t kSnapshotMagic = 0x525A4F4E;  // "RZON"

void WriteRRsetHeader(const dns::Name& name, dns::RRType type,
                      dns::RRClass rrclass, std::uint32_t ttl,
                      std::size_t rdata_count, ByteWriter& w) {
  name.EncodeWire(w);
  w.WriteU16(static_cast<std::uint16_t>(type));
  w.WriteU16(static_cast<std::uint16_t>(rrclass));
  w.WriteU32(ttl);
  w.WriteVarint(rdata_count);
}
}  // namespace

void WriteRRsetWire(const dns::RRsetView& s, ByteWriter& w) {
  WriteRRsetHeader(*s.name, s.type, s.rrclass, s.ttl, s.rdatas.size(), w);
  for (const auto wire : s.rdatas) {
    w.WriteVarint(wire.size());
    w.WriteBytes(wire);
  }
}

void WriteRRsetWire(const dns::RRset& s, ByteWriter& w) {
  WriteRRsetHeader(s.name, s.type, s.rrclass, s.ttl, s.rdatas.size(), w);
  ByteWriter rw;
  for (const auto& rd : s.rdatas) {
    rw.Clear();
    dns::EncodeRdata(rd, rw);
    w.WriteVarint(rw.size());
    w.WriteBytes(rw.span());
  }
}

util::Result<dns::RRset> ReadRRsetWire(ByteReader& r) {
  dns::RRset s;
  auto name = dns::Name::DecodeWire(r);
  if (!name.ok()) return name.error();
  s.name = std::move(*name);
  std::uint16_t type = 0, rrclass = 0;
  if (!r.ReadU16(type) || !r.ReadU16(rrclass) || !r.ReadU32(s.ttl))
    return Error(ErrorCode::kTruncated, "rrset: truncated header");
  s.type = static_cast<dns::RRType>(type);
  s.rrclass = static_cast<dns::RRClass>(rrclass);
  std::uint64_t count = 0;
  if (!r.ReadVarint(count))
    return Error(ErrorCode::kTruncated, "rrset: truncated rdata count");
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t len = 0;
    if (!r.ReadVarint(len))
      return Error(ErrorCode::kTruncated, "rrset: truncated rdata length");
    auto rdata = dns::DecodeRdata(s.type, len, r);
    if (!rdata.ok()) return rdata.error();
    s.rdatas.push_back(std::move(*rdata));
  }
  return s;
}

Bytes SerializeSnapshot(const ZoneSnapshot& snapshot) {
  ByteWriter w;
  w.WriteU32(kSnapshotMagic);
  snapshot.apex().EncodeWire(w);
  w.WriteU32(snapshot.Serial());
  w.WriteVarint(snapshot.rrset_count());
  snapshot.ForEachRRset(
      [&](const dns::RRsetView& s) { WriteRRsetWire(s, w); });
  return w.TakeData();
}

util::Result<SnapshotPtr> DeserializeSnapshot(
    std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  std::uint32_t magic = 0;
  if (!r.ReadU32(magic))
    return Error(ErrorCode::kTruncated, "snapshot: truncated magic");
  if (magic != kSnapshotMagic)
    return Error(ErrorCode::kCorrupted, "snapshot: bad magic");
  auto apex = dns::Name::DecodeWire(r);
  if (!apex.ok()) return apex.error();
  std::uint32_t serial = 0;
  if (!r.ReadU32(serial))
    return Error(ErrorCode::kTruncated, "snapshot: truncated serial");
  std::uint64_t count = 0;
  if (!r.ReadVarint(count))
    return Error(ErrorCode::kTruncated, "snapshot: truncated count");
  // The Zone merges and orders the RRsets; the snapshot is built from it.
  Zone zone(std::move(*apex));
  for (std::uint64_t i = 0; i < count; ++i) {
    auto rrset = ReadRRsetWire(r);
    if (!rrset.ok()) return rrset.error();
    if (auto added = zone.AddRRset(std::move(*rrset)); !added.ok())
      return Error(ErrorCode::kCorrupted, added.message());
  }
  if (!r.at_end())
    return Error(ErrorCode::kCorrupted, "snapshot: trailing bytes");
  return ZoneSnapshot::Build(zone);
}

}  // namespace rootless::zone
