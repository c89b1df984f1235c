#include "dns/rr.h"

#include <algorithm>
#include <unordered_map>

namespace rootless::dns {

std::string ResourceRecord::ToString() const {
  return name.ToString() + " " + std::to_string(ttl) + " " +
         RRClassToString(rrclass) + " " + RRTypeToString(type) + " " +
         RdataToString(rdata);
}

std::vector<ResourceRecord> RRset::ToRecords() const {
  std::vector<ResourceRecord> out;
  out.reserve(rdatas.size());
  for (const auto& rd : rdatas) {
    out.push_back(ResourceRecord{name, type, rrclass, ttl, rd});
  }
  return out;
}

RRset RRsetView::Materialize() const {
  RRset out;
  out.name = *name;
  out.type = type;
  out.rrclass = rrclass;
  out.ttl = ttl;
  out.rdatas.reserve(rdatas.size());
  for (const auto wire : rdatas) {
    out.rdatas.push_back(RdataRun::Decode(type, wire));
  }
  return out;
}

std::vector<RRset> GroupIntoRRsets(const std::vector<ResourceRecord>& records) {
  std::vector<RRset> sets;
  std::unordered_map<RRsetKey, std::size_t, RRsetKeyHash> index;
  for (const auto& rr : records) {
    const RRsetKey key{rr.name, rr.type, rr.rrclass};
    auto it = index.find(key);
    if (it == index.end()) {
      index.emplace(key, sets.size());
      sets.push_back(RRset{rr.name, rr.type, rr.rrclass, rr.ttl, {rr.rdata}});
    } else {
      RRset& set = sets[it->second];
      set.ttl = std::min(set.ttl, rr.ttl);
      // Duplicate rdata within an RRset is not allowed (RFC 2181 §5).
      if (std::find(set.rdatas.begin(), set.rdatas.end(), rr.rdata) ==
          set.rdatas.end()) {
        set.rdatas.push_back(rr.rdata);
      }
    }
  }
  return sets;
}

}  // namespace rootless::dns
