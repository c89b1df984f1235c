#include "dns/message.h"

#include <algorithm>
#include <array>

#include "util/strings.h"

namespace rootless::dns {

using util::Error;
using util::Result;

namespace {

// Compression dictionary with zero heap use: the candidate set is the wire
// offsets where a name's encoding starts (every label position we have
// emitted), and matching compares the query suffix against the bytes already
// written — following compression pointers — instead of storing keys. The
// dictionary contents, first-match-wins order, and therefore the produced
// bytes are identical to a map keyed by flattened lowered suffixes; this
// form just never allocates, which keeps the zero-copy AnswerWire path at
// O(1) allocations per response.
class NameCompressor {
 public:
  void EncodeName(const Name& name, util::ByteWriter& w) {
    const auto flat = name.flat();
    std::size_t offset = 0;
    for (std::size_t i = 0; i < name.label_count(); ++i) {
      const std::size_t match = FindSuffix(w.span(), flat, offset);
      if (match != kNoMatch) {
        w.WriteU16(static_cast<std::uint16_t>(0xC000 | match));
        return;
      }
      if (w.size() <= 0x3FFF && count_ < kMaxStarts) {
        starts_[count_++] = static_cast<std::uint16_t>(w.size());
      }
      const std::size_t len = flat[offset];
      w.WriteBytes(flat.subspan(offset, 1 + len));
      offset += 1 + len;
    }
    w.WriteU8(0);
  }

 private:
  static constexpr std::size_t kNoMatch = static_cast<std::size_t>(-1);
  // More starts than any response holds; overflow just means later names
  // compress a little less (never triggered by DNS-sized messages).
  static constexpr std::size_t kMaxStarts = 192;

  // True iff the name encoded in `wire` at `at` equals the suffix of `flat`
  // beginning at `from` (label content ASCII case-insensitive). Encodings
  // still being written simply run out of bytes and fail the match.
  static bool WireMatches(std::span<const std::uint8_t> wire, std::size_t at,
                          std::span<const std::uint8_t> flat,
                          std::size_t from) {
    for (;;) {
      if (at >= wire.size()) return false;
      const std::uint8_t len = wire[at];
      if ((len & 0xC0) == 0xC0) {
        if (at + 1 >= wire.size()) return false;
        at = static_cast<std::size_t>(len & 0x3F) << 8 | wire[at + 1];
        continue;
      }
      if (len == 0) return from == flat.size();
      if (from >= flat.size() || flat[from] != len ||
          at + 1 + len > wire.size()) {
        return false;
      }
      for (std::size_t i = 0; i < len; ++i) {
        if (util::AsciiToLower(static_cast<char>(wire[at + 1 + i])) !=
            util::AsciiToLower(static_cast<char>(flat[from + 1 + i]))) {
          return false;
        }
      }
      at += 1 + len;
      from += 1 + len;
    }
  }

  std::size_t FindSuffix(std::span<const std::uint8_t> wire,
                         std::span<const std::uint8_t> flat,
                         std::size_t from) const {
    for (std::size_t k = 0; k < count_; ++k) {
      if (WireMatches(wire, starts_[k], flat, from)) return starts_[k];
    }
    return kNoMatch;
  }

  std::array<std::uint16_t, kMaxStarts> starts_;
  std::size_t count_ = 0;
};

std::uint16_t HeaderFlags(const Header& h) {
  std::uint16_t flags = 0;
  if (h.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(static_cast<std::uint8_t>(h.opcode) & 0xF)
           << 11;
  if (h.aa) flags |= 0x0400;
  if (h.tc) flags |= 0x0200;
  if (h.rd) flags |= 0x0100;
  if (h.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(static_cast<std::uint8_t>(h.rcode) & 0xF);
  return flags;
}

// Appends one record unless it ends past `max_size` (0 = unlimited), in
// which case the record is cut off again and the caller must stop there.
// Returns whether the record was kept.
bool AppendRecord(const Name& name, RRType type, RRClass rrclass,
                  std::uint32_t ttl, const Rdata& rdata, std::size_t max_size,
                  NameCompressor& compressor, util::ByteWriter& w) {
  const std::size_t record_start = w.size();
  compressor.EncodeName(name, w);
  w.WriteU16(static_cast<std::uint16_t>(type));
  w.WriteU16(static_cast<std::uint16_t>(rrclass));
  w.WriteU32(ttl);
  const std::size_t len_offset = w.size();
  w.WriteU16(0);  // placeholder RDLENGTH
  const std::size_t start = w.size();
  EncodeRdata(rdata, w);
  w.PatchU16(len_offset, static_cast<std::uint16_t>(w.size() - start));
  if (max_size == 0 || w.size() <= max_size) return true;
  w.Truncate(record_start);
  return false;
}

// Appends a section's records in wire order, counting them in `kept`, until
// one does not fit; returns false if one did not. A Message section holds
// one record per element; a MessageView section expands each RRset view to
// one record per rdata, in rdata order.
bool AppendSection(const std::vector<ResourceRecord>& section,
                   std::size_t max_size, std::uint16_t& kept,
                   NameCompressor& compressor, util::ByteWriter& w) {
  for (const auto& rr : section) {
    if (!AppendRecord(rr.name, rr.type, rr.rrclass, rr.ttl, rr.rdata,
                      max_size, compressor, w)) {
      return false;
    }
    ++kept;
  }
  return true;
}

bool AppendSection(const std::vector<RRsetView>& section, std::size_t max_size,
                   std::uint16_t& kept, NameCompressor& compressor,
                   util::ByteWriter& w) {
  for (const auto& set : section) {
    for (const auto& rd : set.rdatas) {
      if (!AppendRecord(*set.name, set.type, set.rrclass, set.ttl, rd,
                        max_size, compressor, w)) {
        return false;
      }
      ++kept;
    }
  }
  return true;
}

// Up-front buffer size: the largest EDNS payload a UDP answer is held to.
// TCP answers (limit 65535) grow past it only as far as they need.
constexpr std::size_t kReserveCap = 4096;

// The one encoder body, for Message and MessageView alike. It encodes once
// and stops at the first record that ends past `max_size`, cut back to the
// end of the record before it. Compression pointers only point backwards,
// so every kept byte is what a shorter re-encode would write; only the
// section counts and TC need patching.
template <typename Msg>
util::Bytes Encode(const Msg& m, std::size_t max_size) {
  util::ByteWriter w;
  w.Reserve(std::min(max_size ? max_size : 512, kReserveCap));
  Header h = m.header;
  h.tc = false;
  w.WriteU16(h.id);
  w.WriteU16(HeaderFlags(h));
  w.WriteU16(static_cast<std::uint16_t>(m.questions.size()));
  w.WriteU16(0);  // ANCOUNT, NSCOUNT, ARCOUNT: patched below
  w.WriteU16(0);
  w.WriteU16(0);
  NameCompressor compressor;
  for (const auto& q : m.questions) {
    compressor.EncodeName(q.name, w);
    w.WriteU16(static_cast<std::uint16_t>(q.type));
    w.WriteU16(static_cast<std::uint16_t>(q.rrclass));
  }

  std::uint16_t counts[3] = {0, 0, 0};
  const bool complete =
      AppendSection(m.answers, max_size, counts[0], compressor, w) &&
      AppendSection(m.authority, max_size, counts[1], compressor, w) &&
      AppendSection(m.additional, max_size, counts[2], compressor, w);
  if (!complete) {
    h.tc = true;
    w.PatchU16(2, HeaderFlags(h));
  }
  for (std::size_t s = 0; s < 3; ++s) w.PatchU16(6 + 2 * s, counts[s]);
  return w.TakeData();
}

}  // namespace

std::size_t Message::WireSize() const { return EncodeMessage(*this).size(); }

util::Bytes EncodeMessage(const Message& m, std::size_t max_size) {
  return Encode(m, max_size);
}

util::Bytes EncodeMessage(const MessageView& m, std::size_t max_size) {
  return Encode(m, max_size);
}

Result<Message> DecodeMessage(std::span<const std::uint8_t> wire) {
  util::ByteReader r(wire);
  Message m;
  std::uint16_t flags = 0, qd = 0, an = 0, ns = 0, ar = 0;
  if (!r.ReadU16(m.header.id) || !r.ReadU16(flags) || !r.ReadU16(qd) ||
      !r.ReadU16(an) || !r.ReadU16(ns) || !r.ReadU16(ar))
    return Error(ErrorCode::kTruncated, "message: truncated header");
  m.header.qr = flags & 0x8000;
  m.header.opcode = static_cast<Opcode>((flags >> 11) & 0xF);
  m.header.aa = flags & 0x0400;
  m.header.tc = flags & 0x0200;
  m.header.rd = flags & 0x0100;
  m.header.ra = flags & 0x0080;
  m.header.rcode = static_cast<RCode>(flags & 0xF);

  for (int i = 0; i < qd; ++i) {
    Question q;
    auto name = Name::DecodeWire(r);
    if (!name.ok()) return name.error();
    q.name = std::move(*name);
    std::uint16_t type = 0, cls = 0;
    if (!r.ReadU16(type) || !r.ReadU16(cls))
      return Error(ErrorCode::kTruncated, "message: truncated question");
    q.type = static_cast<RRType>(type);
    q.rrclass = static_cast<RRClass>(cls);
    m.questions.push_back(std::move(q));
  }

  auto read_records = [&](int count,
                          std::vector<ResourceRecord>& out) -> util::Status {
    for (int i = 0; i < count; ++i) {
      ResourceRecord rr;
      auto name = Name::DecodeWire(r);
      if (!name.ok()) return name.error();
      rr.name = std::move(*name);
      std::uint16_t type = 0, cls = 0, rdlength = 0;
      if (!r.ReadU16(type) || !r.ReadU16(cls) || !r.ReadU32(rr.ttl) ||
          !r.ReadU16(rdlength))
        return Error(ErrorCode::kTruncated, "message: truncated record header");
      rr.type = static_cast<RRType>(type);
      rr.rrclass = static_cast<RRClass>(cls);
      auto rdata = DecodeRdata(rr.type, rdlength, r);
      if (!rdata.ok()) return rdata.error();
      rr.rdata = std::move(*rdata);
      out.push_back(std::move(rr));
    }
    return util::Status::Ok();
  };

  ROOTLESS_RETURN_IF_ERROR(read_records(an, m.answers));
  ROOTLESS_RETURN_IF_ERROR(read_records(ns, m.authority));
  ROOTLESS_RETURN_IF_ERROR(read_records(ar, m.additional));

  if (!r.at_end()) return Error(ErrorCode::kCorrupted, "message: trailing bytes");
  return m;
}

Message MakeQuery(std::uint16_t id, const Name& name, RRType type,
                  bool recursion_desired) {
  Message m;
  m.header.id = id;
  m.header.rd = recursion_desired;
  m.questions.push_back(Question{name, type, RRClass::kIN});
  return m;
}

Message MakeResponse(const Message& query, RCode rcode) {
  Message m;
  m.header = query.header;
  m.header.qr = true;
  m.header.ra = false;
  m.header.rcode = rcode;
  m.questions = query.questions;
  return m;
}

}  // namespace rootless::dns
