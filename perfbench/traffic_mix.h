// Inputs of the serving workloads: the signed model root zone in one or more
// daily versions, the generated query datagrams with the order a client sends
// them in, and the reference answer for every datagram under every version.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/dnssec.h"
#include "obs/metrics.h"
#include "rootsrv/auth_server.h"
#include "util/bytes.h"
#include "zone/zone_snapshot.h"

namespace rootbench {

class Tracer;

// Signed daily versions of the model root zone, starting at the DITL day
// (2018-04-11); every version is signed with the same ZSK.
struct ZoneSet {
  rootless::crypto::SigningKey zsk;
  rootless::crypto::KeyStore store;
  std::vector<std::string> tlds;  // delegated TLD labels on the first day
  std::vector<rootless::zone::SnapshotPtr> versions;
  std::vector<std::uint32_t> serials;
};

ZoneSet BuildZones(int versions, Tracer& tracer, int parent_span);

// Query datagrams (id bytes zero) and the order they are sent in: query k of
// a run is datagrams[sequence[k % sequence.size()]].
struct QueryMix {
  std::vector<rootless::util::Bytes> datagrams;
  std::vector<std::uint32_t> sequence;
};

// www.<tld>. A over the delegated TLDs, Zipf popularity, EDNS none/1232/4096.
QueryMix MakeHotMix(const std::vector<std::string>& tlds, std::uint64_t seed);
// The §2.2 junk composition: 61% bogus TLDs from a pool larger than the
// answer cache, random 0x20 case on the valid rest, and a slice of hostile
// datagrams (truncated, CH class, NOTIFY opcode, AXFR over UDP, OPT with
// options).
QueryMix MakeJunkMix(const std::vector<std::string>& tlds, std::uint64_t seed);
// www.<label>. A for each label, in order (the DITL replay's query stream).
QueryMix MakeLabelMix(const std::vector<std::string>& labels);

// The AuthServer options a DnsFrontend UDP worker runs with (wire EDNS
// defaults, FORMERR for garbage, DNSSEC on), for detached servers.
rootless::rootsrv::AuthServer::Options FrontendAuthOptions(
    rootless::obs::Registry* registry, std::size_t answer_cache_entries);

// Expected response (id bytes zeroed) of every datagram under every zone
// version, computed by a detached AuthServer configured like the frontend.
class Reference {
 public:
  Reference(const ZoneSet& zones, const QueryMix& mix);
  // True when `response` (any id) is the answer to datagram `index` under
  // some version.
  bool Matches(std::uint32_t index,
               std::span<const std::uint8_t> response) const;
  const rootless::util::Bytes& Answer(int version, std::uint32_t index) const {
    return answers_[static_cast<std::size_t>(version)][index];
  }
  // Flips one byte of the expected answer of `index` under every version
  // (self-test: a wrong reference must surface as failed queries).
  void Corrupt(std::uint32_t index);
  // Datagrams the server answers with silence under the first version.
  std::size_t silent_count() const { return silent_; }

 private:
  std::vector<std::vector<rootless::util::Bytes>> answers_;
  std::size_t silent_ = 0;
};

// Id-less wire form of a `. SOA` query (the swap-visibility probe).
rootless::util::Bytes SoaQuery();

}  // namespace rootbench
