// DNS message (RFC 1035 §4) with wire codec.
//
// Encoding applies name compression to owner names (RDATA names are written
// uncompressed, which is always legal and required for DNSSEC types).
// Decoding is hardened against malformed input: forward pointers, truncation
// and trailing garbage are all reported as errors, never undefined behaviour.
#pragma once

#include <cstdint>
#include <vector>

#include "dns/name.h"
#include "dns/rr.h"
#include "dns/types.h"
#include "util/bytes.h"
#include "util/result.h"

namespace rootless::dns {

struct Header {
  std::uint16_t id = 0;
  bool qr = false;  // response flag
  Opcode opcode = Opcode::kQuery;
  bool aa = false;  // authoritative answer
  bool tc = false;  // truncated
  bool rd = false;  // recursion desired
  bool ra = false;  // recursion available
  RCode rcode = RCode::kNoError;

  bool operator==(const Header&) const = default;
};

struct Question {
  Name name;
  RRType type = RRType::kA;
  RRClass rrclass = RRClass::kIN;

  bool operator==(const Question&) const = default;
};

struct Message {
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authority;
  std::vector<ResourceRecord> additional;

  // Total RR count excluding questions.
  std::size_t record_count() const {
    return answers.size() + authority.size() + additional.size();
  }

  // Serialized size (convenience: encodes and measures).
  std::size_t WireSize() const;

  bool operator==(const Message&) const = default;
};

// Encodes with owner-name compression. `max_size` of 0 means unlimited;
// otherwise the response is truncated to fit, mimicking UDP truncation at 512
// or an EDNS size: records are kept in wire order (answers, authority,
// additional) up to the last whole record that ends within `max_size`, the
// section counts say what was kept, and TC is set iff a record was dropped
// (the query's TC bit is never copied). The kept records are a byte-exact
// prefix of the untruncated encoding — compression pointers only point
// backwards — so one encoding pass suffices. The returned buffer's capacity
// equals its size.
util::Bytes EncodeMessage(const Message& message, std::size_t max_size = 0);

// The same encoding written into `writer`, replacing what it held. A caller
// that encodes once per answer keeps one writer and copies each result out
// (ByteWriter::Copy): one exact-size allocation per message, where the
// returning overloads pay a second for their scratch buffer.
void EncodeMessage(const Message& message, std::size_t max_size,
                   util::ByteWriter& writer);

// Borrowed message: sections are RRset views over storage owned elsewhere
// (typically a zone::ZoneSnapshot arena). Lets an authoritative server go
// from lookup straight to wire with zero per-query RRset copies. The vectors
// are plain members so a server can reuse one MessageView as scratch across
// queries (clear + refill, capacity retained).
struct MessageView {
  Header header;
  std::vector<Question> questions;
  std::vector<RRsetView> answers;
  std::vector<RRsetView> authority;
  std::vector<RRsetView> additional;

  void clear() {
    questions.clear();
    answers.clear();
    authority.clear();
    additional.clear();
  }
};

// Encodes a borrowed message (each RRset view expands to one record per
// rdata, whose stored wire bytes are copied, not re-encoded). Same encoder
// body as the Message overload, so byte-identical to EncodeMessage on the
// equivalent expanded Message, truncation included.
util::Bytes EncodeMessage(const MessageView& message, std::size_t max_size = 0);
void EncodeMessage(const MessageView& message, std::size_t max_size,
                   util::ByteWriter& writer);

util::Result<Message> DecodeMessage(std::span<const std::uint8_t> wire);

// Convenience builders.
Message MakeQuery(std::uint16_t id, const Name& name, RRType type,
                  bool recursion_desired = false);
Message MakeResponse(const Message& query, RCode rcode);

}  // namespace rootless::dns
