#include "resolver/recursive.h"

#include <algorithm>

#include "util/check.h"
#include "util/strings.h"

namespace rootless::resolver {

using dns::Message;
using dns::Name;
using dns::RRset;
using dns::RRsetKey;
using dns::RRType;

namespace {

// RFC 2308: a denial lives min(SOA.minimum, SOA TTL), capped at an hour; a
// denial that carries no SOA lives the cap.
constexpr sim::SimTime kMaxNegativeTtl = 3600 * sim::kSecond;

sim::SimTime NegativeTtl(const dns::SoaData& soa, std::uint32_t soa_ttl) {
  return std::min(kMaxNegativeTtl,
                  sim::SimTime{std::min(soa.minimum, soa_ttl)} * sim::kSecond);
}

}  // namespace

std::string RootModeName(RootMode mode) {
  switch (mode) {
    case RootMode::kRootServers: return "root-servers";
    case RootMode::kCachePreload: return "cache-preload";
    case RootMode::kOnDemandZoneFile: return "on-demand-zone";
    case RootMode::kLoopbackAuth: return "loopback-auth";
  }
  return "unknown";
}

RecursiveResolver::RecursiveResolver(sim::Simulator& sim,
                                     sim::Network& network, Options options)
    : sim_(sim),
      network_(network),
      config_(std::move(options.config)),
      location_(options.location),
      cache_(config_.cache_capacity, options.registry),
      selector_(config_.seed ^ 0x5E1EC7),
      rng_(config_.seed) {
  node_ = network_.AddNode(
      [this](const sim::Datagram& d) { HandleDatagram(d); });
  if (options.topology != nullptr) {
    options.topology->PlaceNode(node_, location_);
  }
  obs::Registry& reg = obs::RegistryOrDefault(options.registry);
  const obs::Labels labels = c_.Register(&reg, "resolver");
  latency_us_ = reg.histogram("resolver.resolution_latency_us", labels);
  attempts_per_success_ =
      reg.histogram("resolver.attempts_per_success", labels);
}

void RecursiveResolver::SetLocalZone(zone::SnapshotPtr root_zone) {
  local_zone_ = std::move(root_zone);
  if (config_.mode == RootMode::kCachePreload) {
    const sim::SimTime now = sim_.now();
    local_zone_->ForEachRRset(
        [&](const dns::RRsetView& rrset) { cache_.Put(rrset, now); });
  }
}

void RecursiveResolver::Resolve(const Name& qname, RRType qtype,
                                const ResolveCallback& cb) {
  ResolveImpl(qname, qtype, cb, /*is_chase=*/false);
}

void RecursiveResolver::ResolveImpl(const Name& qname, RRType qtype,
                                    const ResolveCallback& cb, bool is_chase) {
  c_.resolutions.Inc();

  // Fast path: the answer itself is cached. Completes synchronously with no
  // transaction state — no id, no Pending node, no callback copy. The scratch
  // vector (and its one retained element) is recycled across hits, so in
  // steady state answering from cache allocates nothing: copy-assigning the
  // RRset reuses the previous hit's rdata capacity.
  if (const RRset* hit = cache_.Get(qname, qtype, sim_.now())) {
    c_.answered_from_cache.Inc();
    ResolutionResult result;
    result.rcode = dns::RCode::kNoError;
    result.answers = std::move(answer_scratch_);
    result.answers.resize(1);
    result.answers.front() = *hit;
    if (cb) cb(result);
    answer_scratch_ = std::move(result.answers);
    return;
  }

  // Negative cache: a TLD recently proven nonexistent.
  if (config_.negative_cache && NegativeCached(qname.tld_view())) {
    c_.negative_hits.Inc();
    c_.nxdomain.Inc();
    ResolutionResult result;
    result.rcode = dns::RCode::kNXDomain;
    if (cb) cb(result);
    return;
  }

  // Every nonzero id is in flight: fail now rather than search for a free
  // one that does not exist.
  if (pending_.size() >= kMaxInFlight) {
    c_.failures.Inc();
    ResolutionResult result;
    result.rcode = dns::RCode::kServFail;
    result.failed = true;
    if (cb) cb(result);
    return;
  }
  // Skip 0 and ids still in flight. next_id_ is only in flight on entry
  // after the previous call took the last free id.
  const auto advance = [this] {
    next_id_ = static_cast<std::uint16_t>(next_id_ + 1);
    if (next_id_ == 0) next_id_ = 1;
  };
  while (pending_.count(next_id_) > 0) advance();
  const std::uint16_t id = next_id_;
  do {
    advance();
  } while (pending_.count(next_id_) > 0);

  Pending pending;
  pending.qname = qname;
  pending.qtype = qtype;
  pending.callback = cb;
  pending.start = sim_.now();
  pending.retries_left = config_.retry.max_attempts - 1;
  pending.is_chase = is_chase;
  auto [it, inserted] = pending_.emplace(id, std::move(pending));
  StartResolution(id, it->second);
}

void RecursiveResolver::StartResolution(std::uint16_t id, Pending& pending) {
  // Referral path: do we know the TLD's servers?
  if (ReferralCached(pending.qname)) {
    AskTld(id);
    return;
  }
  AskRoot(id);
}

bool RecursiveResolver::NegativeCached(std::string_view tld) const {
  auto it = negative_.find(tld);
  return it != negative_.end() && it->second > sim_.now();
}

void RecursiveResolver::CacheNegative(std::string_view tld,
                                      sim::SimTime ttl) {
  if (!config_.negative_cache) return;
  const sim::SimTime until = sim_.now() + ttl;
  auto it = negative_.find(tld);
  if (it != negative_.end()) {
    it->second = until;
  } else {
    negative_.emplace(std::string(tld), until);
  }
}

void RecursiveResolver::RetryAfterBadResponse(std::uint16_t id) {
  Pending& pending = pending_.at(id);
  if (pending.retries_left <= 0) {
    c_.failures.Inc();
    Finish(id, dns::RCode::kServFail, {}, true);
    return;
  }
  --pending.retries_left;
  ReissueAfterBackoff(id);
}

void RecursiveResolver::ReissueAfterBackoff(std::uint16_t id) {
  Pending& pending = pending_.at(id);
  ++pending.attempt;
  c_.retries.Inc();
  const sim::SimTime backoff =
      sim::JitteredBackoff(config_.retry, pending.attempt, rng_);
  if (backoff == 0) {
    ReissueNow(id);
    return;
  }
  // Invalidate the expired attempt's timeout while we wait out the backoff;
  // a late response arriving in the window still completes the resolution
  // (which erases the Pending node and strands this event).
  pending.generation = next_generation_++;
  const std::uint64_t generation = pending.generation;
  sim_.Schedule(backoff, [this, id, generation]() {
    auto it = pending_.find(id);
    if (it == pending_.end() || it->second.generation != generation) return;
    ReissueNow(id);
  });
}

void RecursiveResolver::ReissueNow(std::uint16_t id) {
  Pending& pending = pending_.at(id);
  if (pending.stage == Pending::Stage::kRoot) {
    if (config_.mode == RootMode::kRootServers) {
      // Fail over to another letter.
      pending.root_letter = selector_.PickRetryLetter(pending.root_letter);
    }
    AskRoot(id);
  } else {
    AskTld(id);
  }
}

bool RecursiveResolver::ReferralCached(const Name& qname) {
  if (qname.is_root()) return false;
  return cache_.Get(qname.SuffixView(1), RRType::kNS, sim_.now()) != nullptr;
}

void RecursiveResolver::AskRoot(std::uint16_t id) {
  Pending& pending = pending_.at(id);
  pending.stage = Pending::Stage::kRoot;
  pending.used_root = true;
  switch (config_.mode) {
    case RootMode::kRootServers:
    case RootMode::kLoopbackAuth:
      AskRootServers(id);
      return;
    case RootMode::kCachePreload:
    case RootMode::kOnDemandZoneFile:
      AskLocalStore(id);
      return;
  }
}

void RecursiveResolver::AskRootServers(std::uint16_t id) {
  Pending& pending = pending_.at(id);
  sim::NodeId target = 0;
  if (config_.mode == RootMode::kLoopbackAuth) {
    ROOTLESS_CHECK(has_loopback_);
    target = loopback_;
  } else {
    ROOTLESS_CHECK(fleet_ != nullptr);
    pending.root_letter = selector_.PickLetter();
    // BGP decides which instance of the letter this resolver reaches — the
    // topology's catchment model, keyed by our seed, not ideal-nearest.
    target = fleet_->CatchmentInstanceFor(pending.root_letter, location_,
                                          config_.seed);
  }

  // QNAME minimization sends only the TLD (as an NS query) to the root.
  Name question_name = pending.qname;
  RRType question_type = pending.qtype;
  if (config_.qname_minimization && pending.qname.label_count() > 1) {
    question_name = pending.qname.Suffix(1);
    question_type = RRType::kNS;
  }
  if (question_name.label_count() > 1) c_.full_qname_exposures.Inc();
  const Message query = MakeQuery(id, question_name, question_type);
  ++pending.transactions;
  c_.root_transactions.Inc();
  pending.last_send = sim_.now();
  SendDnsQuery(target, query);
  ArmTimeout(id);
}

void RecursiveResolver::AskLocalStore(std::uint16_t id) {
  // Consulting the local store costs db_lookup_latency (zero-ish for the
  // preloaded cache, configurable for the on-demand DB).
  c_.local_root_lookups.Inc();
  const sim::SimTime cost = config_.mode == RootMode::kOnDemandZoneFile
                                ? config_.db_lookup_latency
                                : 0;
  sim_.Schedule(cost, [this, id]() {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    Pending& pending = it->second;
    // The root servers' own lookup, without DNSSEC records. Asking for A
    // keeps a consult for a TLD itself a referral, not the DS at its cut.
    local_view_.clear();
    if (local_zone_ != nullptr) {
      local_zone_->Lookup(pending.qname, RRType::kA, false, local_view_);
    }
    if (local_view_.disposition != zone::LookupDisposition::kReferral) {
      // Local equivalent of a root NXDOMAIN, negative-cached by the SOA the
      // view carries (or for the cap, when it carries none).
      c_.nxdomain.Inc();
      sim::SimTime ttl = kMaxNegativeTtl;
      if (!local_view_.authority.empty() &&
          !local_view_.authority.front().empty()) {
        const dns::RRsetView& soa = local_view_.authority.front();
        ttl = NegativeTtl(std::get<dns::SoaData>(dns::RdataRun::Decode(
                              RRType::kSOA, soa.rdatas.front())),
                          soa.ttl);
      }
      CacheNegative(pending.qname.tld_view(), ttl);
      Finish(id, dns::RCode::kNXDomain, {});
      return;
    }
    // Cache order is pinned by the replay digests: NS, glue, then the DS.
    const sim::SimTime now = sim_.now();
    const dns::RRsetView& ns = local_view_.authority.front();
    cache_.Put(ns, now);
    for (const auto& glue : local_view_.additional) cache_.Put(glue, now);
    if (auto ds = local_zone_->Find(*ns.name, RRType::kDS)) {
      cache_.Put(*ds, now);
    }
    AskTld(id);
  });
}

bool RecursiveResolver::TldNodeFor(const Name& qname, sim::NodeId& node,
                                   bool& extra_hop) {
  ROOTLESS_CHECK(farm_ != nullptr);
  extra_hop = false;
  if (qname.is_root()) return false;

  // Prefer a glue address from the cached referral.
  const RRset* ns = cache_.Get(qname.SuffixView(1), RRType::kNS, sim_.now());
  if (ns != nullptr) {
    for (const auto& rd : ns->rdatas) {
      const Name& host = std::get<dns::NsData>(rd).nameserver;
      const RRset* a = cache_.Get(host, RRType::kA, sim_.now());
      if (a == nullptr || a->rdatas.empty()) continue;
      const auto& addr = std::get<dns::AData>(a->rdatas.front()).address;
      if (farm_->FindByAddress(addr, node)) return true;
    }
  }
  // No usable glue: the nameserver names are out-of-bailiwick. Resolving
  // them is an extra transaction (modelled as one extra RTT to the farm).
  if (farm_->FindTldNode(qname.tld_view(), node)) {
    extra_hop = true;
    return true;
  }
  return false;
}

void RecursiveResolver::AskTld(std::uint16_t id) {
  Pending& pending = pending_.at(id);
  pending.stage = Pending::Stage::kTld;

  sim::NodeId target = 0;
  bool extra_hop = false;
  if (!TldNodeFor(pending.qname, target, extra_hop)) {
    c_.failures.Inc();
    Finish(id, dns::RCode::kServFail, {}, true);
    return;
  }
  const Message query = MakeQuery(id, pending.qname, pending.qtype);
  ++pending.transactions;
  c_.tld_transactions.Inc();
  sim::SimTime extra_delay = 0;
  if (extra_hop) {
    // One extra round trip to resolve the out-of-bailiwick NS name first.
    ++pending.transactions;
    extra_delay = 2 * network_.LatencyBetween(node_, target);
  }
  SendDnsQuery(target, query, extra_delay);
  ArmTimeout(id);
}

void RecursiveResolver::SendDnsQuery(sim::NodeId target,
                                     const Message& query,
                                     sim::SimTime extra_delay) {
  sim::SimTime delay = extra_delay;
  if (config_.encrypted_transport && sessions_.insert(target).second) {
    // TCP + TLS session establishment: two round trips before the query.
    c_.handshakes.Inc();
    delay += 4 * network_.LatencyBetween(node_, target);
  }
  dns::EncodeMessage(query, 1232, query_wire_);
  util::Bytes wire = query_wire_.Copy();
  if (delay == 0) {
    network_.Send(node_, target, std::move(wire));
    return;
  }
  sim_.Schedule(delay, [this, target, wire = std::move(wire)]() {
    network_.Send(node_, target, wire);
  });
}

void RecursiveResolver::ArmTimeout(std::uint16_t id) {
  Pending& pending = pending_.at(id);
  pending.generation = next_generation_++;
  const std::uint64_t generation = pending.generation;
  sim_.Schedule(config_.retry.attempt_timeout,
                [this, id, generation]() { HandleTimeout(id, generation); });
}

void RecursiveResolver::HandleTimeout(std::uint16_t id,
                                      std::uint64_t generation) {
  auto it = pending_.find(id);
  if (it == pending_.end() || it->second.generation != generation) return;
  Pending& pending = it->second;
  c_.timeouts.Inc();
  if (pending.stage == Pending::Stage::kRoot &&
      config_.mode == RootMode::kRootServers) {
    selector_.ReportTimeout(pending.root_letter);
  }
  if (pending.retries_left <= 0) {
    c_.failures.Inc();
    Finish(id, dns::RCode::kServFail, {}, true);
    return;
  }
  --pending.retries_left;
  ReissueAfterBackoff(id);
}

void RecursiveResolver::HandleDatagram(const sim::Datagram& datagram) {
  auto response = dns::DecodeMessage(datagram.payload);
  if (!response.ok() || !response->header.qr) return;
  const std::uint16_t id = response->header.id;
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // late or duplicate response
  Pending& pending = it->second;
  // Invalidate the armed timeout.
  pending.generation = next_generation_++;

  if (pending.stage == Pending::Stage::kRoot) {
    HandleRootResponse(id, pending, *response);
  } else {
    HandleTldResponse(id, pending, *response);
  }
}

void RecursiveResolver::CacheRecords(
    const std::vector<dns::ResourceRecord>& records) {
  const sim::SimTime now = sim_.now();
  for (const auto& rrset : GroupIntoRRsets(records)) {
    cache_.Put(rrset, now);
  }
}

void RecursiveResolver::HandleRootResponse(std::uint16_t id, Pending& pending,
                                           const Message& response) {
  if (config_.mode == RootMode::kRootServers) {
    const sim::SimTime rtt = sim_.now() - pending.last_send;
    selector_.ReportRtt(pending.root_letter, rtt);
  }
  if (response.header.rcode == dns::RCode::kNXDomain) {
    // Bogus TLD. With DNSSEC validation on, the denial must be *proven*
    // (covering NSEC + valid RRSIG) before it is believed — the defence
    // against the root-manipulation attack of Sec 4.
    if (config_.validate_denials && has_trust_) {
      auto denial = crypto::ValidateDenial(
          pending.qname, GroupIntoRRsets(response.authority), trust_dnskey_,
          trust_store_, config_.validation_now);
      if (!denial.ok()) {
        c_.manipulation_detected.Inc();
        RetryAfterBadResponse(id);
        return;
      }
    }
    c_.nxdomain.Inc();
    sim::SimTime ttl = kMaxNegativeTtl;
    for (const auto& rr : response.authority) {
      if (rr.type != RRType::kSOA) continue;
      ttl = NegativeTtl(std::get<dns::SoaData>(rr.rdata), rr.ttl);
      break;
    }
    CacheNegative(pending.qname.tld_view(), ttl);
    Finish(id, dns::RCode::kNXDomain, {});
    return;
  }
  if (response.header.rcode != dns::RCode::kNoError) {
    c_.failures.Inc();
    Finish(id, dns::RCode::kServFail, {}, true);
    return;
  }
  // Referral: cache authority (NS/DS) + additional (glue). With QNAME
  // minimization the NS data may arrive in the answer section.
  CacheRecords(response.authority);
  CacheRecords(response.additional);
  CacheRecords(response.answers);
  if (!ReferralCached(pending.qname)) {
    // The root answered NOERROR but gave us nothing usable (e.g. NODATA for
    // a TLD with no delegation).
    c_.failures.Inc();
    Finish(id, dns::RCode::kServFail, {}, true);
    return;
  }
  AskTld(id);
}

void RecursiveResolver::HandleTldResponse(std::uint16_t id, Pending& pending,
                                          const Message& response) {
  if (response.header.rcode == dns::RCode::kNXDomain) {
    c_.nxdomain.Inc();
    Finish(id, dns::RCode::kNXDomain, {});
    return;
  }
  if (response.header.rcode != dns::RCode::kNoError ||
      response.answers.empty()) {
    // NXNSAttack surface: a NOERROR answer with nothing but glueless NS
    // authority is a referral we cannot follow directly. With chasing
    // enabled, issue fire-and-forget A lookups for the NS targets — each
    // one a fresh root (or local-root) transaction, which is exactly the
    // amplification the attack monetizes. Chases never chase (is_chase).
    std::vector<Name> chase;
    if (config_.max_glueless_chase > 0 && !pending.is_chase &&
        response.header.rcode == dns::RCode::kNoError) {
      for (const auto& rr : response.authority) {
        if (rr.type != RRType::kNS) continue;
        if (chase.size() >=
            static_cast<std::size_t>(config_.max_glueless_chase)) {
          break;
        }
        chase.push_back(std::get<dns::NsData>(rr.rdata).nameserver);
      }
      if (!chase.empty()) c_.glueless_referrals.Inc();
    }
    c_.failures.Inc();
    // Finish erases the Pending node (invalidating `pending`); the chases
    // are issued after it, as fresh resolutions.
    Finish(id, dns::RCode::kServFail, {}, true);
    for (const auto& host : chase) {
      c_.chase_queries.Inc();
      ResolveImpl(host, RRType::kA, nullptr, /*is_chase=*/true);
    }
    return;
  }
  CacheRecords(response.answers);
  // Collect the RRsets matching the question.
  std::vector<RRset> answers;
  for (const auto& rrset : GroupIntoRRsets(response.answers)) {
    if (rrset.name == pending.qname && rrset.type == pending.qtype) {
      answers.push_back(rrset);
    }
  }
  Finish(id, dns::RCode::kNoError, std::move(answers));
}

void RecursiveResolver::Finish(std::uint16_t id, dns::RCode rcode,
                               std::vector<RRset> answers, bool failed) {
  auto it = pending_.find(id);
  ROOTLESS_CHECK(it != pending_.end());
  Pending pending = std::move(it->second);
  pending_.erase(it);

  ResolutionResult result;
  result.rcode = rcode;
  result.answers = std::move(answers);
  result.latency = sim_.now() - pending.start;
  latency_us_.Record(static_cast<std::uint64_t>(result.latency));
  if (!failed) {
    attempts_per_success_.Record(static_cast<std::uint64_t>(pending.attempt));
  }
  result.transactions = pending.transactions;
  result.used_root = pending.used_root;
  result.failed = failed;
  if (pending.callback) pending.callback(result);
  // Recycle the answers buffer for the cache-hit fast path (which resizes it
  // to a single element before use, so leftover contents don't matter).
  if (result.answers.capacity() > answer_scratch_.capacity()) {
    answer_scratch_ = std::move(result.answers);
  }
}

}  // namespace rootless::resolver
