#include "rootsrv/pipeline.h"

#include <chrono>
#include <cstring>
#include <utility>

namespace rootless::rootsrv {

using zone::LookupDisposition;

namespace {

std::uint64_t SteadyNowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void CountDisposition(AuthCounters& c, LookupDisposition disposition) {
  switch (disposition) {
    case LookupDisposition::kAnswer:
      c.answers.Inc();
      break;
    case LookupDisposition::kReferral:
      c.referrals.Inc();
      break;
    case LookupDisposition::kNoData:
      c.nodata.Inc();
      break;
    case LookupDisposition::kNxDomain:
      c.nxdomain.Inc();
      break;
    case LookupDisposition::kOutOfZone:
      c.refused.Inc();
      break;
  }
}

dns::RCode ScreenStage::Admit(const dns::Message& query, Channel channel,
                              EdnsReply& reply) {
  // EDNS0 (RFC 6891): the OPT pseudo-record's CLASS field carries the
  // requestor's maximum UDP payload size.
  int opt_count = 0;
  std::size_t requestor_payload = 0;
  for (const auto& rr : query.additional) {
    if (rr.type == dns::RRType::kOPT) {
      ++opt_count;
      requestor_payload = static_cast<std::uint16_t>(rr.rrclass);
    }
  }
  if (opt_count > 0) c_.edns_queries.Inc();
  reply = ApplyEdns(edns_, opt_count > 0, requestor_payload, channel);

  const auto divert = [&](dns::RCode rcode) {
    pc_.screen_diverted.Inc();
    return rcode;
  };
  // More than one OPT is a protocol violation (RFC 6891 §6.1.1).
  if (query.questions.size() != 1 || opt_count > 1) {
    c_.malformed.Inc();
    return divert(dns::RCode::kFormErr);
  }
  if (query.header.opcode != dns::Opcode::kQuery) {
    c_.refused.Inc();
    return divert(dns::RCode::kNotImp);
  }
  const dns::Question& q = query.questions.front();
  if (q.rrclass != dns::RRClass::kIN) {
    c_.refused.Inc();
    return divert(dns::RCode::kRefused);
  }
  // Zone transfers only over TCP (and only via the AXFR front-end glue).
  if (q.type == dns::RRType::kAXFR && channel == Channel::kUdp) {
    c_.refused.Inc();
    return divert(dns::RCode::kRefused);
  }
  return dns::RCode::kNoError;
}

RateLimitStage::RateLimitStage(const RrlConfig& config,
                               ResponseRateLimiter* shared,
                               std::function<std::uint64_t()> clock,
                               AuthCounters& c, PipelineCounters& pc)
    : clock_(std::move(clock)), c_(c), pc_(pc) {
  if (shared != nullptr) {
    limiter_ = shared;
  } else if (config.enabled) {
    owned_ = std::make_unique<ResponseRateLimiter>(config);
    limiter_ = owned_.get();
  }
  if (limiter_ != nullptr && !clock_) clock_ = SteadyNowMicros;
}

bool AnswerCacheStage::Probe(const WireKey& key, std::uint64_t key_hash,
                             Hit& hit) const {
  if (capacity_ == 0 || entries_.empty()) return false;
  const std::uint32_t slot = index_.Find(key_hash, [&](std::uint32_t s) {
    const CachedAnswer& e = entries_[s];
    // Root-owner answers have an empty qname, whose data() may be null:
    // compare sizes first and never hand memcmp a null pointer.
    return e.hash == key_hash && e.type == key.type && e.flags == key.flags &&
           e.echo_opt == key.echo_opt &&
           e.payload_limit == key.payload_limit &&
           e.name.size() == key.qname.size() &&
           (key.qname.empty() ||
            std::memcmp(e.name.data(), key.qname.data(), key.qname.size()) ==
                0);
  });
  if (slot == util::FlatHashIndex::kNpos) return false;
  const CachedAnswer& e = entries_[slot];
  hit.wire = e.wire.data();
  hit.size = e.wire.size();
  hit.disposition = e.disposition;
  hit.truncated = e.truncated;
  return true;
}

void AnswerCacheStage::Insert(const WireKey& key, std::uint64_t key_hash,
                              LookupDisposition disposition, bool truncated,
                              std::span<const std::uint8_t> wire) {
  CachedAnswer entry;
  entry.hash = key_hash;
  entry.name.assign(key.qname.begin(), key.qname.end());
  entry.type = key.type;
  entry.flags = key.flags;
  entry.echo_opt = key.echo_opt;
  entry.payload_limit = static_cast<std::uint32_t>(key.payload_limit);
  entry.disposition = disposition;
  entry.truncated = truncated;
  entry.wire.assign(wire.begin(), wire.end());
  entry.wire[0] = 0;
  entry.wire[1] = 0;

  const auto hash_of = [this](std::uint32_t s) { return entries_[s].hash; };
  if (entries_.size() < capacity_) {
    const auto slot = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(std::move(entry));
    index_.Insert(entries_[slot].hash, slot, hash_of);
  } else {
    // At capacity: replace the oldest inserted entry (FIFO clock), so a
    // random-qname storm churns the cache instead of freezing its first
    // fill — and popular keys re-enter on their next miss.
    const auto victim = static_cast<std::uint32_t>(clock_);
    clock_ = (clock_ + 1) % capacity_;
    index_.Erase(entries_[victim].hash,
                 [&](std::uint32_t s) { return s == victim; });
    entries_[victim] = std::move(entry);
    index_.Insert(entries_[victim].hash, victim, hash_of);
    pc_.cache_evictions.Inc();
  }
  pc_.cache_insertions.Inc();
}

const zone::LookupView& SnapshotAnswerStage::Answer(
    const zone::ZoneSnapshot& snapshot, const dns::Question& question) {
  snapshot.Lookup(question.name, question.type, include_dnssec_, scratch_);
  pc_.snapshot_answers.Inc();
  CountDisposition(c_, scratch_.disposition);
  return scratch_;
}

}  // namespace rootless::rootsrv
