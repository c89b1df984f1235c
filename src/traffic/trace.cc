#include "traffic/trace.h"

#include <algorithm>

#include "util/check.h"

namespace rootless::traffic {

using util::ByteReader;
using util::Bytes;
using util::ByteWriter;
using util::Error;

namespace {

constexpr std::uint32_t kTraceMagic = 0x44495452;  // "DITR"

// Widest span SortEvents takes: its counting array holds one size_t per
// second spanned.
constexpr std::size_t kMaxSortSpanSec = 366 * 86400;

// The order within one second, as one integer.
std::uint64_t ResolverTld(const QueryEvent& e) {
  return static_cast<std::uint64_t>(e.resolver_id) << 32 | e.tld;
}

}  // namespace

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

Bytes SerializeTrace(const Trace& trace) {
  ByteWriter w;
  w.WriteU32(kTraceMagic);
  w.WriteVarint(trace.tlds.size());
  for (TldId id = 0; id < trace.tlds.size(); ++id) {
    const std::string& label = trace.tlds.LabelOf(id);
    w.WriteVarint(label.size());
    w.WriteString(label);
  }
  w.WriteVarint(trace.events.size());
  std::uint32_t last_time = 0;
  for (const auto& e : trace.events) {
    // Events are time-sorted; delta-encode the timestamps.
    w.WriteVarint(e.time_sec - last_time);
    last_time = e.time_sec;
    w.WriteVarint(e.resolver_id);
    w.WriteVarint(e.tld);
  }
  return w.TakeData();
}

util::Result<Trace> DeserializeTrace(std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  std::uint32_t magic = 0;
  if (!r.ReadU32(magic))
    return Error(ErrorCode::kTruncated, "trace: truncated magic");
  if (magic != kTraceMagic)
    return Error(ErrorCode::kCorrupted, "trace: bad magic");
  Trace trace;
  std::uint64_t tld_count = 0;
  if (!r.ReadVarint(tld_count))
    return Error(ErrorCode::kTruncated, "trace: truncated tld count");
  for (std::uint64_t i = 0; i < tld_count; ++i) {
    std::uint64_t len = 0;
    std::string label;
    if (!r.ReadVarint(len) || !r.ReadString(len, label))
      return Error(ErrorCode::kTruncated, "trace: truncated tld label");
    if (trace.tlds.Intern(label) != i)
      return Error(ErrorCode::kCorrupted, "trace: duplicate tld label");
  }
  std::uint64_t event_count = 0;
  if (!r.ReadVarint(event_count))
    return Error(ErrorCode::kTruncated, "trace: truncated event count");
  // Every event takes at least three bytes (three varints), so a count the
  // remaining bytes cannot hold is a short wire, not a reason to reserve.
  if (event_count > r.remaining() / 3)
    return Error(ErrorCode::kTruncated, "trace: truncated events");
  trace.events.reserve(event_count);
  std::uint64_t last_time = 0;
  for (std::uint64_t i = 0; i < event_count; ++i) {
    std::uint64_t dt = 0, resolver = 0, tld = 0;
    if (!r.ReadVarint(dt) || !r.ReadVarint(resolver) || !r.ReadVarint(tld))
      return Error(ErrorCode::kTruncated, "trace: truncated event");
    // Checked before the add, so a huge delta cannot wrap past the limit.
    if (dt > 0xFFFFFFFFULL - last_time || resolver > 0xFFFFFFFFULL ||
        tld >= tld_count)
      return Error(ErrorCode::kCorrupted, "trace: field out of range");
    last_time += dt;
    trace.events.push_back(QueryEvent{static_cast<std::uint32_t>(last_time),
                                      static_cast<std::uint32_t>(resolver),
                                      static_cast<TldId>(tld)});
  }
  if (!r.at_end()) return Error(ErrorCode::kCorrupted, "trace: trailing bytes");
  return trace;
}

}  // namespace rootless::traffic
