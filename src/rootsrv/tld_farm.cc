#include "rootsrv/tld_farm.h"

#include <cstdio>

#include "util/strings.h"

namespace rootless::rootsrv {

using dns::Message;
using dns::Name;
using dns::RRType;

TldFarm::TldFarm(sim::Network& network, topo::Topology& topology,
                 const zone::ZoneSnapshot& root_zone, std::uint64_t seed)
    : network_(network), topology_(topology), placement_rng_(seed) {
  for (const auto& child : root_zone.DelegatedChildren()) {
    EnsureTld(child.tld());
  }
  RefreshAddresses(root_zone);
}

void TldFarm::EnsureTld(const std::string& tld) {
  if (by_tld_.count(tld) > 0) return;
  // Capture by value: the handler needs the tld and its own node id.
  const sim::NodeId node = network_.AddNode(nullptr);
  network_.SetHandler(node, [this, node, tld](const sim::Datagram& d) {
    HandleQuery(node, tld, d);
  });
  topology_.PlaceNode(node, topo::SamplePopulationPoint(placement_rng_));
  by_tld_.emplace(tld, node);
}

void TldFarm::RefreshAddresses(const zone::ZoneSnapshot& root_zone) {
  by_address_.clear();
  for (const auto& child : root_zone.DelegatedChildren()) {
    const std::string tld = child.tld();
    EnsureTld(tld);
    auto it = by_tld_.find(tld);
    if (it == by_tld_.end()) continue;
    auto ns_set = root_zone.Find(child, RRType::kNS);
    if (!ns_set.has_value()) continue;
    for (const auto ns_wire : ns_set->rdatas) {
      const Name host = std::get<dns::NsData>(
                            dns::RdataRun::Decode(RRType::kNS, ns_wire))
                            .nameserver;
      if (auto a = root_zone.Find(host, RRType::kA)) {
        for (const auto a_wire : a->rdatas) {
          const auto addr = std::get<dns::AData>(
              dns::RdataRun::Decode(RRType::kA, a_wire));
          by_address_[addr.address.addr] = it->second;
        }
      }
    }
  }
}

bool TldFarm::FindTldNode(std::string_view tld, sim::NodeId& node) const {
  auto it = by_tld_.find(tld);
  if (it == by_tld_.end()) return false;
  node = it->second;
  return true;
}

bool TldFarm::FindByAddress(const dns::Ipv4& address,
                            sim::NodeId& node) const {
  auto it = by_address_.find(address.addr);
  if (it == by_address_.end()) return false;
  node = it->second;
  return true;
}

void TldFarm::SetMaliciousDelegation(const std::string& tld, int fanout) {
  if (fanout <= 0) {
    malicious_.erase(tld);
  } else {
    malicious_[tld] = fanout;
  }
}

void TldFarm::HandleQuery(sim::NodeId node, const std::string& tld,
                          const sim::Datagram& datagram) {
  ++*queries_;
  auto query = dns::DecodeMessage(datagram.payload);
  if (!query.ok() || query->header.qr || query->questions.size() != 1) return;
  const dns::Question& q = query->questions.front();

  if (q.name.tld() == tld) {
    if (auto mal = malicious_.find(tld); mal != malicious_.end()) {
      // NXNSAttack referral: delegate the queried name to `fanout` glueless
      // nameservers under a fresh garbage TLD. aa=false, no answers, no
      // additional glue — the resolver must go back to the root for every
      // NS target.
      Message referral = MakeResponse(*query, dns::RCode::kNoError);
      referral.header.aa = false;
      char zone_label[32];
      std::snprintf(zone_label, sizeof zone_label, "nx%llx.",
                    static_cast<unsigned long long>(mal_serial_++));
      for (int i = 0; i < mal->second; ++i) {
        char ns_host[48];
        std::snprintf(ns_host, sizeof ns_host, "ns%d.%s", i, zone_label);
        referral.authority.push_back(
            {q.name, RRType::kNS, dns::RRClass::kIN, 300,
             dns::NsData{*Name::Parse(ns_host)}});
      }
      ++mal_referrals_;
      dns::EncodeMessage(referral, 1232, wire_);
      network_.Send(node, datagram.src, wire_.Copy());
      return;
    }
  }

  Message response = MakeResponse(*query, dns::RCode::kNoError);
  response.header.aa = true;
  if (q.name.tld() != tld) {
    response.header.rcode = dns::RCode::kRefused;
  } else {
    // Deterministic synthetic answer standing in for the full subtree.
    const std::uint64_t h = q.name.Hash();
    switch (q.type) {
      case RRType::kA:
        response.answers.push_back(
            {q.name, RRType::kA, dns::RRClass::kIN, 300,
             dns::AData{dns::Ipv4{0x0A000000u |
                                  static_cast<std::uint32_t>(h & 0xFFFFFF)}}});
        break;
      case RRType::kAAAA: {
        dns::Ipv6 v6;
        v6.addr = {0x20, 0x01, 0x0d, 0xb8, 0xFF};
        for (int k = 0; k < 8; ++k)
          v6.addr[8 + k] = static_cast<std::uint8_t>(h >> (8 * k));
        response.answers.push_back({q.name, RRType::kAAAA, dns::RRClass::kIN,
                                    300, dns::AaaaData{v6}});
        break;
      }
      default:
        // NODATA for other types.
        break;
    }
  }
  dns::EncodeMessage(response, 1232, wire_);
  network_.Send(node, datagram.src, wire_.Copy());
}

}  // namespace rootless::rootsrv
