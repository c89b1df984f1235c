// Query trace representation for the DITL-style experiments.
//
// A trace is a day (or any window) of root-directed queries: timestamp,
// originating resolver, and the TLD of the query name (the only part of the
// qname the §2.2 analysis consumes). TLD labels are interned to keep
// multi-million-query traces compact.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace rootless::traffic {

using TldId = std::uint32_t;

class TldTable {
 public:
  TldId Intern(const std::string& label);
  const std::string& LabelOf(TldId id) const { return labels_.at(id); }
  std::size_t size() const { return labels_.size(); }

 private:
  std::unordered_map<std::string, TldId> index_;
  std::vector<std::string> labels_;
};

struct QueryEvent {
  std::uint32_t time_sec = 0;     // seconds into the collection window
  std::uint32_t resolver_id = 0;  // anonymized resolver identity
  TldId tld = 0;
};

// Puts `events` in trace order: ascending (time_sec, resolver_id, tld), the
// order replay consumes. The events must come from one collection window of
// at most 366 days (checked). A counting sort by second into `scratch`
// (swapped in afterwards, so a caller that keeps both vectors reuses their
// capacity; the per-second counting array is allocated on each call), then a
// sort of each second's short run by (resolver, tld): O(n + seconds
// spanned). Events equal in all three fields are indistinguishable, so the
// result is exactly a comparison sort's.
void SortEvents(std::vector<QueryEvent>& events,
                std::vector<QueryEvent>& scratch);

struct Trace {
  TldTable tlds;
  std::vector<QueryEvent> events;  // ascending by time_sec
};

}  // namespace rootless::traffic
