#include "distrib/axfr_stream.h"

#include <utility>

#include "zone/zone.h"

namespace rootless::distrib {

using util::Error;

namespace {

// Records per transfer message. Each message travels as one TCP frame,
// which caps its encoding at 65,535 bytes.
constexpr std::size_t kRecordsPerMessage = 100;

}  // namespace

std::vector<util::Bytes> BuildAxfrStream(const zone::ZoneSnapshot& snapshot,
                                         const dns::Message& query) {
  const auto soa = snapshot.soa();
  if (!soa || soa->rdatas.empty()) return {};
  const dns::ResourceRecord soa_record{*soa->name, soa->type, soa->rrclass,
                                       soa->ttl, soa->rdatas.front()};

  // SOA, every non-SOA record in canonical order, SOA again.
  std::vector<dns::ResourceRecord> records;
  records.reserve(snapshot.record_count() + 1);
  records.push_back(soa_record);
  snapshot.ForEachRRset([&](const dns::RRsetView& set) {
    if (set.type == dns::RRType::kSOA) return;
    for (const auto& rd : set.rdatas) {
      records.push_back(
          dns::ResourceRecord{*set.name, set.type, set.rrclass, set.ttl, rd});
    }
  });
  records.push_back(soa_record);

  std::vector<util::Bytes> out;
  dns::Message msg;
  msg.header.id = query.header.id;
  msg.header.qr = true;
  msg.header.aa = true;
  msg.questions = query.questions;  // echoed in the first message only
  for (std::size_t i = 0; i < records.size(); ++i) {
    msg.answers.push_back(records[i]);
    if (msg.answers.size() == kRecordsPerMessage ||
        i + 1 == records.size()) {
      out.push_back(dns::EncodeMessage(msg));
      msg.answers.clear();
      msg.questions.clear();
    }
  }
  return out;
}

util::Result<zone::SnapshotPtr> AssembleAxfrStream(
    std::span<const util::Bytes> messages) {
  std::vector<dns::ResourceRecord> records;
  for (const auto& wire : messages) {
    auto msg = dns::DecodeMessage(wire);
    if (!msg.ok()) return msg.error();
    if (msg->header.rcode != dns::RCode::kNoError) {
      return Error(ErrorCode::kProtocol,
                   "axfr: server answered " +
                       dns::RCodeToString(msg->header.rcode));
    }
    for (auto& rr : msg->answers) records.push_back(std::move(rr));
  }
  if (records.size() < 2) {
    return Error(ErrorCode::kProtocol, "axfr: stream too short");
  }
  const dns::ResourceRecord& open = records.front();
  const dns::ResourceRecord& close = records.back();
  if (open.type != dns::RRType::kSOA || close.type != dns::RRType::kSOA) {
    return Error(ErrorCode::kProtocol, "axfr: stream not SOA-bracketed");
  }
  if (!(open == close)) {
    return Error(ErrorCode::kProtocol, "axfr: SOA bracket mismatch");
  }

  zone::Zone zone(open.name);
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    // A zone has one SOA record, and it only brackets the transfer.
    if (i > 0 && records[i].type == dns::RRType::kSOA) {
      return Error(ErrorCode::kProtocol, "axfr: SOA inside the stream");
    }
    auto status = zone.AddRecord(records[i]);
    if (!status.ok()) {
      return Error(ErrorCode::kProtocol,
                   "axfr: bad record: " + status.message());
    }
  }
  return zone::ZoneSnapshot::Build(zone);
}

}  // namespace rootless::distrib
