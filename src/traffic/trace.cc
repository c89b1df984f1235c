#include "traffic/trace.h"

#include <algorithm>

#include "util/check.h"

namespace rootless::traffic {

namespace {

// Widest span SortEvents takes: its counting array holds one size_t per
// second spanned.
constexpr std::size_t kMaxSortSpanSec = 366 * 86400;

// The order within one second, as one integer.
std::uint64_t ResolverTld(const QueryEvent& e) {
  return static_cast<std::uint64_t>(e.resolver_id) << 32 | e.tld;
}

}  // namespace

TldId TldTable::Intern(const std::string& label) {
  auto it = index_.find(label);
  if (it != index_.end()) return it->second;
  const TldId id = static_cast<TldId>(labels_.size());
  labels_.push_back(label);
  index_.emplace(label, id);
  return id;
}

void SortEvents(std::vector<QueryEvent>& events,
                std::vector<QueryEvent>& scratch) {
  const std::size_t n = events.size();
  if (n < 2) return;
  const auto [lo, hi] = std::minmax_element(
      events.begin(), events.end(),
      [](const QueryEvent& a, const QueryEvent& b) {
        return a.time_sec < b.time_sec;
      });
  const std::uint32_t first = lo->time_sec;
  const std::size_t seconds = std::size_t{hi->time_sec} - first + 1;
  ROOTLESS_CHECK(seconds <= kMaxSortSpanSec);
  // next[s]: where the next event of second first+s goes in scratch.
  std::vector<std::size_t> next(seconds + 1, 0);
  for (const QueryEvent& e : events) ++next[e.time_sec - first + 1];
  for (std::size_t s = 1; s < seconds; ++s) next[s] += next[s - 1];
  scratch.resize(n);
  for (const QueryEvent& e : events) scratch[next[e.time_sec - first]++] = e;
  // Each next[s] now ends second s's run.
  std::size_t begin = 0;
  for (std::size_t s = 0; s < seconds; ++s) {
    const std::size_t end = next[s];
    if (end - begin > 1) {
      std::sort(scratch.begin() + static_cast<std::ptrdiff_t>(begin),
                scratch.begin() + static_cast<std::ptrdiff_t>(end),
                [](const QueryEvent& a, const QueryEvent& b) {
                  return ResolverTld(a) < ResolverTld(b);
                });
    }
    begin = end;
  }
  events.swap(scratch);
}

}  // namespace rootless::traffic
