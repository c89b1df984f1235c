#include "rootsrv/auth_server.h"

#include <cstring>
#include <utility>

#include "dns/wire_probe.h"
#include "util/simd.h"

namespace rootless::rootsrv {

using dns::Message;
using zone::LookupDisposition;

AuthServer::AuthServer(net::Transport* transport, zone::SnapshotPtr snapshot,
                       Options options)
    : transport_(transport),
      snapshot_(std::move(snapshot)),
      options_(std::move(options)),
      screen_stage_(options_.edns, c_, pc_),
      rrl_stage_(options_.rrl, options_.shared_rrl, options_.clock, c_, pc_),
      cache_stage_(options_.answer_cache_entries, c_, pc_),
      answer_stage_(options_.include_dnssec, c_, pc_) {
  if (transport_ != nullptr) {
    node_ = transport_->AddNode(
        [this](const net::Packet& packet) { HandleDatagram(packet); });
  }
  c_.Register(options_.registry, "rootsrv.auth");
  pc_.Register(options_.registry, "rootsrv.pipeline");
  flc_.Register(options_.registry, "rootsrv.fastlane");
}

util::Bytes AuthServer::AnswerWireFrom(const Message& query, Channel channel,
                                       std::uint64_t client) {
  c_.queries.Inc();
  EdnsReply edns;
  const dns::RCode screened = screen_stage_.Admit(query, channel, edns);
  if (screened != dns::RCode::kNoError) {
    Message response = MakeResponse(query, screened);
    if (edns.echo_opt) {
      response.additional.push_back(dns::ResourceRecord{
          opt_owner_, dns::RRType::kOPT,
          static_cast<dns::RRClass>(options_.edns.advertise_udp_payload), 0,
          opt_rdata_});
    }
    dns::EncodeMessage(response, edns.payload_limit, wire_);
    return wire_.Copy();
  }

  const RateLimitStage::Verdict verdict = rrl_stage_.Charge(channel, client);
  if (verdict == RateLimitStage::Verdict::kDrop) return {};
  if (verdict == RateLimitStage::Verdict::kSlip) {
    // Minimal TC|REFUSED: an honest client behind the limited address
    // retries over TCP; a spoofed-source flood reflects 12 bytes, not an
    // amplified answer. Never cached.
    Message response = MakeResponse(query, dns::RCode::kRefused);
    dns::EncodeMessage(response, edns.payload_limit, wire_);
    util::Bytes wire = wire_.Copy();
    // EncodeMessage derives TC from size alone; a slip is forced truncation.
    if (wire.size() > 2) wire[2] |= 0x02;
    return wire;
  }

  const dns::Question& q = query.questions.front();
  AnswerCacheStage::WireKey key;
  std::uint64_t key_hash = 0;
  if (cache_stage_.enabled()) {
    key.qname = q.name.flat();
    key.name_hash = q.name.Hash();
    key.type = q.type;
    key.flags = AnswerCacheStage::Flags(query.header.tc, query.header.rd);
    key.echo_opt = edns.echo_opt;
    key.payload_limit = edns.payload_limit;
    key_hash = AnswerCacheStage::KeyHash(key);
    AnswerCacheStage::Hit hit;
    const bool found = cache_stage_.Probe(key, key_hash, hit);
    cache_stage_.CountProbe(found ? &hit : nullptr);
    if (found) {
      util::Bytes wire(hit.wire, hit.wire + hit.size);
      wire[0] = static_cast<std::uint8_t>(query.header.id >> 8);
      wire[1] = static_cast<std::uint8_t>(query.header.id);
      return wire;
    }
  }

  const zone::LookupView& lookup = answer_stage_.Answer(*snapshot_, q);
  const LookupDisposition disposition = lookup.disposition;
  dns::RCode rcode = dns::RCode::kNoError;
  if (disposition == LookupDisposition::kNxDomain) {
    rcode = dns::RCode::kNXDomain;
  } else if (disposition == LookupDisposition::kOutOfZone) {
    rcode = dns::RCode::kRefused;
  }
  dns::MessageView& response = response_scratch_;
  response.clear();
  response.header = query.header;
  response.header.qr = true;
  response.header.ra = false;
  response.header.rcode = rcode;
  response.header.aa = disposition == LookupDisposition::kAnswer ||
                       disposition == LookupDisposition::kNoData ||
                       disposition == LookupDisposition::kNxDomain;
  response.questions.push_back(q);
  response.answers = lookup.answers;
  response.authority = lookup.authority;
  response.additional = lookup.additional;
  if (edns.echo_opt) {
    // The OPT echo rides last in additional, so under truncation it is the
    // first record dropped.
    response.additional.push_back(dns::RRsetView{
        &opt_owner_, dns::RRType::kOPT,
        static_cast<dns::RRClass>(options_.edns.advertise_udp_payload), 0,
        dns::RdataRun::OneEmpty()});
  }
  dns::EncodeMessage(response, edns.payload_limit, wire_);
  const std::span<const std::uint8_t> wire = wire_.span();
  const bool truncated = wire.size() > 2 && (wire[2] & 0x02);
  if (truncated) c_.truncated.Inc();
  if (cache_stage_.enabled()) {
    cache_stage_.Insert(key, key_hash, disposition, truncated, wire);
  }
  return wire_.Copy();
}

util::Bytes AuthServer::GarbageResponse(
    std::span<const std::uint8_t> payload) {
  // Need a readable header to know who to answer; and never answer
  // something that claims to be a response (loop protection).
  if (payload.size() < 12 || (payload[2] & 0x80)) return {};
  Message response;
  response.header.id =
      static_cast<std::uint16_t>(payload[0]) << 8 | payload[1];
  response.header.qr = true;
  response.header.opcode = static_cast<dns::Opcode>((payload[2] >> 3) & 0xF);
  response.header.rcode = dns::RCode::kFormErr;
  dns::EncodeMessage(response, 0, wire_);
  return wire_.Copy();
}

util::Bytes AuthServer::AnswerDatagram(std::span<const std::uint8_t> payload,
                                       std::uint64_t client, Channel channel) {
  c_.bytes_in.Inc(payload.size());
  auto query = dns::DecodeMessage(payload);
  if (!query.ok()) {
    c_.queries.Inc();
    c_.malformed.Inc();
    if (options_.respond_formerr_to_garbage) return GarbageResponse(payload);
    return {};
  }
  if (query->header.qr) {
    // A response aimed at a server: drop silently, never reply (loops).
    c_.queries.Inc();
    c_.malformed.Inc();
    return {};
  }
  return AnswerWireFrom(*query, channel, client);
}

void AuthServer::HandleDatagram(const net::Packet& packet, Channel channel) {
  const std::uint64_t client = packet.client != net::Packet::kNoClient
                                   ? packet.client
                                   : static_cast<std::uint64_t>(packet.src);
  util::Bytes wire = AnswerDatagram(packet.payload, client, channel);
  if (wire.empty()) return;  // silence: RRL drop or unanswerable garbage
  c_.bytes_out.Inc(wire.size());
  if (transport_ != nullptr) {
    transport_->Send(node_, packet.src, std::move(wire));
  }
}

net::FastVerdict AuthServer::TryFastLane(std::span<const std::uint8_t> dgram,
                                         std::uint64_t client,
                                         std::uint8_t* out,
                                         std::size_t capacity,
                                         std::size_t& out_size) {
  out_size = 0;
  dns::WireProbe probe;
  if (!dns::ShallowParseQuery(dgram, probe)) {
    flc_.parse_fallbacks.Inc();
    return net::FastVerdict::kMiss;
  }
  // The shallow parse pinned everything else Screen checks, so a cache hit
  // below implies the slow path would have passed Screen too.
  const EdnsReply edns = ApplyEdns(options_.edns, probe.has_opt,
                                   probe.opt_payload, Channel::kUdp);
  AnswerCacheStage::WireKey key;
  key.qname = probe.qname;
  key.name_hash = util::simd::NameHash(probe.qname.data(), probe.qname.size());
  key.type = probe.qtype;
  key.flags = AnswerCacheStage::Flags(probe.tc, probe.rd);
  key.echo_opt = edns.echo_opt;
  key.payload_limit = edns.payload_limit;
  AnswerCacheStage::Hit hit;
  if (!cache_stage_.Probe(key, AnswerCacheStage::KeyHash(key), hit) ||
      hit.size > capacity) {
    flc_.cache_misses.Inc();
    return net::FastVerdict::kMiss;
  }

  // Committed: from here every counter bump and the limiter charge are the
  // slow path's own (bytes_in → queries → edns → RRL → cache → bytes_out).
  // The probe above was side-effect free, so a kMiss return never happens
  // past this point — falling back now would double-charge.
  c_.bytes_in.Inc(dgram.size());
  c_.queries.Inc();
  if (probe.has_opt) c_.edns_queries.Inc();
  const RateLimitStage::Verdict verdict =
      rrl_stage_.Charge(Channel::kUdp, client);
  if (verdict == RateLimitStage::Verdict::kDrop) {
    flc_.drops.Inc();
    return net::FastVerdict::kDropped;
  }
  if (verdict == RateLimitStage::Verdict::kSlip) {
    // RRL slip: TC|REFUSED echoing the question — byte-identical to the
    // slow path's EncodeMessage(MakeResponse(query, kRefused), limit) with
    // the TC bit forced: id/aa/rd copied from the query (opcode is known
    // zero), qr+tc set, ra/z/ad/cd cleared, rcode REFUSED, the question
    // section echoed verbatim from the datagram (uncompressed, exact case —
    // exactly how the encoder writes a first name).
    const std::size_t size = 12 + probe.question.size();
    if (size > capacity) return net::FastVerdict::kDropped;  // unreachable
    out[0] = dgram[0];
    out[1] = dgram[1];
    out[2] = static_cast<std::uint8_t>(0x80 | 0x02 | (probe.flags_hi & 0x05));
    out[3] = 0x05;  // rcode REFUSED
    out[4] = 0;
    out[5] = 1;  // qdcount 1
    std::memset(out + 6, 0, 6);
    std::memcpy(out + 12, probe.question.data(), probe.question.size());
    out_size = size;
    flc_.slips.Inc();
    c_.bytes_out.Inc(size);
    return net::FastVerdict::kResponded;
  }
  // Cache hit: memcpy the cached wire into the transmit ring, patch the id.
  cache_stage_.CountProbe(&hit);
  std::memcpy(out, hit.wire, hit.size);
  out[0] = dgram[0];
  out[1] = dgram[1];
  out_size = hit.size;
  flc_.hits.Inc();
  c_.bytes_out.Inc(hit.size);
  return net::FastVerdict::kResponded;
}

}  // namespace rootless::rootsrv
