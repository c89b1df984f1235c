// AXFR-over-TCP message stream (RFC 5936 shape).
//
// A zone transfer answer is a sequence of ordinary DNS messages on one TCP
// connection: the first begins with the zone's SOA, then every record of the
// zone follows (batched into messages), and the stream ends with the SOA
// repeated. BuildAxfrStream produces that sequence straight from a
// zone::ZoneSnapshot; AssembleAxfrStream validates the SOA bracket and
// rebuilds a snapshot on the receiving side.
//
// This is the *standard-protocol* transfer path served by the socket
// front-end (net::DnsFrontend) and consumed by net::FetchZoneTcp — any stock
// DNS client can speak it. The chunked distrib::AxfrServer protocol remains
// the simulator's loss-tolerant UDP channel; both move the same snapshot.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dns/message.h"
#include "util/bytes.h"
#include "util/result.h"
#include "zone/zone_snapshot.h"

namespace rootless::distrib {

// Encodes the transfer as framed-ready DNS messages of up to 100 records
// each (no length prefixes — the TCP server frames each). `query` supplies
// the message id and the question echoed in the first message. Returns an
// empty vector if the snapshot has no SOA (not transferable).
std::vector<util::Bytes> BuildAxfrStream(const zone::ZoneSnapshot& snapshot,
                                         const dns::Message& query);

// Decodes and validates a transfer stream: every message must parse with
// rcode NOERROR, the record sequence must open and close with the same SOA
// (serial included) and hold no other SOA. Returns the rebuilt snapshot. Error codes: the message
// decoder's kTruncated (a message cut short) or kCorrupted (malformed
// bytes); kProtocol for an error rcode, a broken SOA bracket, an SOA inside
// the stream or a record the zone refuses.
util::Result<zone::SnapshotPtr> AssembleAxfrStream(
    std::span<const util::Bytes> messages);

}  // namespace rootless::distrib
