#include "traffic_mix.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <unordered_set>

#include "bench.h"
#include "net/frontend.h"
#include "util/civil_time.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "zone/evolution.h"
#include "zone/sign.h"

namespace rootbench {

using namespace rootless;

namespace {

constexpr util::CivilDate kFirstDay{2018, 4, 11};
// Matches the committed benches' signing key and the sim's TLD skew.
constexpr std::uint64_t kZskSeed = 0xD15EC;
constexpr double kTldZipfS = 0.95;

// Length of the hot sequence, and of the junk sequence (each junk entry is
// its own datagram). The bogus-label pool is 4x the 16,384-entry answer
// cache, so bogus names rarely repeat within the cache's FIFO window.
constexpr std::size_t kHotSequence = 1 << 18;
constexpr std::size_t kJunkSequence = 1 << 16;
constexpr std::size_t kBogusPool = 1 << 16;

double Uniform(util::Rng& rng) {
  return static_cast<double>(rng.Next() >> 11) * 0x1p-53;
}

// 0 = no OPT; otherwise the advertised payload. Resolver mix: a quarter
// without EDNS, half at the 1232 flag-day size, a quarter at 4096.
std::uint16_t DrawEdns(util::Rng& rng) {
  const double u = Uniform(rng);
  return u < 0.25 ? 0 : u < 0.75 ? 1232 : 4096;
}

void Put16(util::Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

struct QuerySpec {
  std::string qname;  // presentation form without the trailing dot
  std::uint16_t qtype = 1;
  std::uint16_t qclass = 1;
  std::uint8_t opcode = 0;
  std::uint16_t edns = 0;
  bool opt_cookie = false;  // OPT carrying a client COOKIE option
};

util::Bytes Encode(const QuerySpec& q) {
  util::Bytes out;
  Put16(out, 0);                                           // id
  out.push_back(static_cast<std::uint8_t>(q.opcode << 3));  // qr=0, rd=0
  out.push_back(0);
  Put16(out, 1);  // qdcount
  Put16(out, 0);
  Put16(out, 0);
  Put16(out, q.edns || q.opt_cookie ? 1 : 0);
  std::size_t start = 0;
  while (start < q.qname.size()) {
    std::size_t dot = q.qname.find('.', start);
    if (dot == std::string::npos) dot = q.qname.size();
    out.push_back(static_cast<std::uint8_t>(dot - start));
    out.insert(out.end(), q.qname.begin() + static_cast<std::ptrdiff_t>(start),
               q.qname.begin() + static_cast<std::ptrdiff_t>(dot));
    start = dot + 1;
  }
  out.push_back(0);
  Put16(out, q.qtype);
  Put16(out, q.qclass);
  if (q.edns || q.opt_cookie) {
    out.push_back(0);  // root owner
    Put16(out, 41);    // OPT
    Put16(out, q.edns ? q.edns : 1232);
    Put16(out, 0);  // extended rcode, version
    Put16(out, 0);  // flags
    if (q.opt_cookie) {
      Put16(out, 12);  // rdlen
      Put16(out, 10);  // COOKIE
      Put16(out, 8);
      for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(0xA0 + i));
    } else {
      Put16(out, 0);
    }
  }
  return out;
}

std::string RandomCase(const std::string& s, util::Rng& rng) {
  std::string out = s;
  for (char& c : out) {
    if (c >= 'a' && c <= 'z' && (rng.Next() & 1)) c = static_cast<char>(c - 32);
  }
  return out;
}

// Popularity order over the TLDs: a seeded permutation, so the Zipf head is
// a different set of TLDs for each seed.
std::vector<std::size_t> Popularity(std::size_t n, util::Rng& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  return order;
}

}  // namespace

ZoneSet BuildZones(int versions, Tracer& tracer, int parent_span) {
  ZoneSet zones;
  util::Rng keyrng(kZskSeed);
  zones.zsk = crypto::GenerateKey(crypto::kZskFlags, keyrng);
  zones.store.AddKey(zones.zsk);
  const zone::RootZoneModel model;
  for (const auto* tld : model.ActiveTlds(kFirstDay)) {
    zones.tlds.push_back(tld->label);
  }
  for (int v = 0; v < versions; ++v) {
    const util::CivilDate day = util::AddDays(kFirstDay, v);
    zone::Zone plain;
    {
      ScopedSpan span(tracer, "zone.model_snapshot", parent_span);
      plain = model.Snapshot(day);
    }
    zone::Zone signed_zone;
    {
      ScopedSpan span(tracer, "zone.sign", parent_span);
      signed_zone = zone::SignZone(plain, zones.zsk, {0, 0xFFFFFFFF});
    }
    ScopedSpan span(tracer, "zone.snapshot_build", parent_span);
    zones.versions.push_back(zone::ZoneSnapshot::Build(signed_zone));
    zones.serials.push_back(zones.versions.back()->Serial());
  }
  return zones;
}

QueryMix MakeHotMix(const std::vector<std::string>& tlds, std::uint64_t seed) {
  static constexpr std::uint16_t kEdns[3] = {0, 1232, 4096};
  QueryMix mix;
  for (const std::string& tld : tlds) {
    for (const std::uint16_t edns : kEdns) {
      mix.datagrams.push_back(Encode({.qname = "www." + tld, .edns = edns}));
    }
  }
  util::Rng rng(seed ^ 0x407);
  const std::vector<std::size_t> order = Popularity(tlds.size(), rng);
  const util::ZipfSampler zipf(tlds.size(), kTldZipfS);
  mix.sequence.reserve(kHotSequence);
  for (std::size_t k = 0; k < kHotSequence; ++k) {
    const std::size_t tld = order[zipf.Sample(rng)];
    const std::uint16_t edns = DrawEdns(rng);
    const std::size_t variant = edns == 0 ? 0 : edns == 1232 ? 1 : 2;
    mix.sequence.push_back(static_cast<std::uint32_t>(tld * 3 + variant));
  }
  return mix;
}

QueryMix MakeJunkMix(const std::vector<std::string>& tlds, std::uint64_t seed) {
  util::Rng rng(seed ^ 0x1A2C);
  const std::unordered_set<std::string> real(tlds.begin(), tlds.end());
  std::vector<std::string> bogus;
  bogus.reserve(kBogusPool);
  while (bogus.size() < kBogusPool) {
    std::string label(5 + rng.Below(8), 'a');
    for (char& c : label) c = static_cast<char>('a' + rng.Below(26));
    if (!real.count(label)) bogus.push_back(std::move(label));
  }
  const std::vector<std::size_t> order = Popularity(tlds.size(), rng);
  const util::ZipfSampler zipf(tlds.size(), kTldZipfS);
  auto valid_name = [&] { return "www." + tlds[order[zipf.Sample(rng)]]; };

  QueryMix mix;
  mix.datagrams.reserve(kJunkSequence);
  for (std::size_t k = 0; k < kJunkSequence; ++k) {
    const double u = Uniform(rng);
    QuerySpec q;
    if (u < 0.61) {
      q.qname = bogus[rng.Below(bogus.size())];
      q.edns = DrawEdns(rng);
      mix.datagrams.push_back(Encode(q));
      continue;
    }
    if (u < 0.98) {
      q.qname = RandomCase(valid_name(), rng);
      q.edns = DrawEdns(rng);
      mix.datagrams.push_back(Encode(q));
      continue;
    }
    q.qname = valid_name();
    switch (rng.Below(5)) {
      case 0: {  // truncated inside the question: FORMERR
        util::Bytes wire = Encode(q);
        wire.resize(12 + 3);
        mix.datagrams.push_back(std::move(wire));
        continue;
      }
      case 1:
        q.qclass = 3;  // CH: REFUSED
        break;
      case 2:
        q.opcode = 4;  // NOTIFY: NOTIMP
        break;
      case 3:
        q.qname = "";
        q.qtype = 252;  // AXFR over UDP: REFUSED
        break;
      default:
        q.opt_cookie = true;  // punts the shallow parser
        break;
    }
    mix.datagrams.push_back(Encode(q));
  }
  mix.sequence.resize(kJunkSequence);
  std::iota(mix.sequence.begin(), mix.sequence.end(), 0);
  return mix;
}

QueryMix MakeLabelMix(const std::vector<std::string>& labels) {
  QueryMix mix;
  mix.datagrams.reserve(labels.size());
  for (const std::string& label : labels) {
    mix.datagrams.push_back(Encode({.qname = "www." + label}));
  }
  mix.sequence.resize(labels.size());
  std::iota(mix.sequence.begin(), mix.sequence.end(), 0);
  return mix;
}

rootsrv::AuthServer::Options FrontendAuthOptions(
    obs::Registry* registry, std::size_t answer_cache_entries) {
  const net::FrontendOptions defaults;
  rootsrv::AuthServer::Options options;
  options.include_dnssec = defaults.include_dnssec;
  options.edns = defaults.edns;
  options.respond_formerr_to_garbage = true;
  options.answer_cache_entries = answer_cache_entries;
  options.registry = registry;
  return options;
}

Reference::Reference(const ZoneSet& zones, const QueryMix& mix) {
  for (const zone::SnapshotPtr& version : zones.versions) {
    obs::Registry registry;
    rootsrv::AuthServer server(nullptr, version,
                               FrontendAuthOptions(&registry, 0));
    std::vector<util::Bytes> answers;
    answers.reserve(mix.datagrams.size());
    for (const util::Bytes& datagram : mix.datagrams) {
      util::Bytes answer = server.AnswerDatagram(datagram, 0);
      if (answer.size() >= 2) answer[0] = answer[1] = 0;
      answers.push_back(std::move(answer));
    }
    answers_.push_back(std::move(answers));
  }
  silent_ = static_cast<std::size_t>(
      std::count_if(answers_.front().begin(), answers_.front().end(),
                    [](const util::Bytes& a) { return a.empty(); }));
}

bool Reference::Matches(std::uint32_t index,
                        std::span<const std::uint8_t> response) const {
  for (const auto& answers : answers_) {
    const util::Bytes& expected = answers[index];
    if (expected.size() >= 2 && expected.size() == response.size() &&
        std::memcmp(expected.data() + 2, response.data() + 2,
                    expected.size() - 2) == 0) {
      return true;
    }
  }
  return false;
}

void Reference::Corrupt(std::uint32_t index) {
  for (auto& answers : answers_) {
    if (answers[index].size() > 2) answers[index].back() ^= 0x5A;
  }
}

util::Bytes SoaQuery() { return Encode({.qname = "", .qtype = 6}); }

}  // namespace rootbench
