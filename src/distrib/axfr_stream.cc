#include "distrib/axfr_stream.h"

#include <algorithm>
#include <utility>

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
  dns::RRsetView soa_record = *soa;
  soa_record.rdatas = soa->rdatas.first(1);

  std::vector<util::Bytes> out;
  out.reserve((snapshot.record_count() + 1) / kRecordsPerMessage + 1);
  dns::MessageView msg;
  msg.header.id = query.header.id;
  msg.header.qr = true;
  msg.header.aa = true;
  msg.questions = query.questions;  // echoed in the first message only
  util::ByteWriter writer;
  std::size_t records = 0;  // in `msg`
  const auto flush = [&] {
    dns::EncodeMessage(msg, 0, writer);
    out.push_back(writer.Copy());
    msg.clear();
    records = 0;
  };
  // Appends the set's records, splitting its rdatas where a message fills.
  const auto append = [&](dns::RRsetView set) {
    while (!set.rdatas.empty()) {
      const std::size_t take =
          std::min(set.rdatas.size(), kRecordsPerMessage - records);
      dns::RRsetView part = set;
      part.rdatas = set.rdatas.first(take);
      msg.answers.push_back(part);
      set.rdatas = set.rdatas.subspan(take);
      records += take;
      if (records == kRecordsPerMessage) flush();
    }
  };

  // SOA, every non-SOA record in canonical order, SOA again.
  append(soa_record);
  snapshot.ForEachRRset([&](const dns::RRsetView& set) {
    if (set.type != dns::RRType::kSOA) append(set);
  });
  append(soa_record);
  if (records > 0) flush();
  return out;
}

util::Status AxfrStreamAssembler::Add(std::span<const std::uint8_t> message) {
  auto msg = dns::DecodeMessage(message);
  if (!msg.ok()) return msg.error();
  if (msg->header.rcode != dns::RCode::kNoError) {
    return Error(ErrorCode::kProtocol,
                 "axfr: server answered " +
                     dns::RCodeToString(msg->header.rcode));
  }
  for (auto& rr : msg->answers) {
    ROOTLESS_RETURN_IF_ERROR(AddRecord(std::move(rr)));
  }
  return util::Status::Ok();
}

util::Status AxfrStreamAssembler::AddRecord(dns::ResourceRecord record) {
  if (state_ == State::kClosed) {
    return Error(ErrorCode::kProtocol, "axfr: records after the closing SOA");
  }
  if (state_ == State::kOpening) {
    if (record.type != dns::RRType::kSOA) {
      return Error(ErrorCode::kProtocol,
                   "axfr: stream does not open with an SOA");
    }
    open_ = record;
    zone_ = zone::Zone(record.name);
    state_ = State::kRecords;
  } else if (record.type == dns::RRType::kSOA) {
    // A zone has one SOA record, and it only brackets the transfer.
    if (!(record == open_)) {
      return Error(ErrorCode::kProtocol,
                   "axfr: SOA bracket mismatch or SOA inside the stream");
    }
    state_ = State::kClosed;
    return util::Status::Ok();
  }
  auto status = zone_.AddRecord(std::move(record));
  if (!status.ok()) {
    return Error(ErrorCode::kProtocol, "axfr: bad record: " + status.message());
  }
  return util::Status::Ok();
}

util::Result<zone::SnapshotPtr> AxfrStreamAssembler::Finish() const {
  if (state_ == State::kOpening) {
    return Error(ErrorCode::kProtocol, "axfr: empty stream");
  }
  if (state_ == State::kRecords) {
    return Error(ErrorCode::kProtocol,
                 "axfr: stream ended before the closing SOA");
  }
  return zone::ZoneSnapshot::Build(zone_);
}

util::Result<zone::SnapshotPtr> AssembleAxfrStream(
    std::span<const util::Bytes> messages) {
  AxfrStreamAssembler assembler;
  for (const auto& wire : messages) {
    ROOTLESS_RETURN_IF_ERROR(assembler.Add(wire));
  }
  return assembler.Finish();
}

}  // namespace rootless::distrib
