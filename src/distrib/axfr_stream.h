// AXFR-over-TCP message stream (RFC 5936 shape).
//
// A zone transfer answer is a sequence of ordinary DNS messages on one TCP
// connection: the first begins with the zone's SOA, then every record of the
// zone follows (batched into messages), and the stream ends with the SOA
// repeated. BuildAxfrStream produces that sequence straight from a
// zone::ZoneSnapshot; AxfrStreamAssembler validates the SOA bracket and
// rebuilds a snapshot on the receiving side, one message at a time.
//
// This is the *standard-protocol* transfer path served by the socket
// front-end (net::DnsFrontend) and consumed by net::FetchZoneTcp — any stock
// DNS client can speak it. The chunked distrib::AxfrServer protocol remains
// the simulator's loss-tolerant UDP channel; both move the same snapshot.
//
// Each end costs about one zone copy. BuildAxfrStream encodes borrowed
// RRset views of the snapshot (an RRset that straddles two messages is split
// into rdata sub-runs), copying each stored rdata as it stands, so it holds
// only the exact-size messages it returns. The assembler decodes one
// message, moves its records into a zone::Zone and keeps no message; the
// snapshot built from the Zone stores every rdata uncompressed, whatever
// compression the sender used inside rdata. Heap peaks on the signed
// 2018-04-11 model root zone (52,734 records, 528 messages, 2.36 MB of
// wire), counted as malloc_usable_size by a replacing operator new:
// BuildAxfrStream +2.4 MB; AssembleAxfrStream +24.4 MB, the 15.8 MB Zone
// plus building the 5.7 MB snapshot from it (whose arena, while it grows,
// adds about 2.9 MB more).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dns/message.h"
#include "dns/rr.h"
#include "util/bytes.h"
#include "util/result.h"
#include "zone/zone.h"
#include "zone/zone_snapshot.h"

namespace rootless::distrib {

// Encodes the transfer as framed-ready DNS messages of up to 100 records
// each (no length prefixes — the TCP server frames each), each with
// capacity() == size(). `query` supplies the message id and the question
// echoed in the first message. Returns an empty vector if the snapshot has
// no SOA (not transferable).
std::vector<util::Bytes> BuildAxfrStream(const zone::ZoneSnapshot& snapshot,
                                         const dns::Message& query);

// Receives a transfer one message at a time. The stream must open with an
// SOA and close with the same SOA (serial included); no other SOA may
// appear, and no record may follow the closing one. Every message must
// have rcode NOERROR. Each record is checked as it arrives and moved into
// the zone being rebuilt. Error codes: the message decoder's kTruncated (a
// message cut short) or kCorrupted (malformed bytes); kProtocol for an
// error rcode, a broken SOA bracket, an SOA inside the stream, a record
// after the closing SOA or a record the zone refuses. After an error the
// assembler holds part of the zone: discard it.
class AxfrStreamAssembler {
 public:
  // Decodes one message of the stream and adds its records.
  util::Status Add(std::span<const std::uint8_t> message);
  // True once the closing SOA has arrived.
  bool done() const { return state_ == State::kClosed; }
  // The rebuilt snapshot; kProtocol unless done().
  util::Result<zone::SnapshotPtr> Finish() const;

 private:
  enum class State { kOpening, kRecords, kClosed };

  util::Status AddRecord(dns::ResourceRecord record);

  State state_ = State::kOpening;
  dns::ResourceRecord open_;  // the opening SOA
  zone::Zone zone_;
};

// The whole stream at once: AxfrStreamAssembler fed each message in order,
// with its error codes.
util::Result<zone::SnapshotPtr> AssembleAxfrStream(
    std::span<const util::Bytes> messages);

}  // namespace rootless::distrib
