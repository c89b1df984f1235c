// Recursive resolver cache: RRsets with absolute expiry, LRU eviction under
// a capacity bound, and the statistics the paper's cache-capacity argument
// (§4, §5.1) turns on.
//
// Storage is a flat-hash layout: entries live in one contiguous slot array
// (the key is the RRset's own name/type/class — no separate key copy), and a
// SwissTable-style control-byte index (util/flat_hash.h) maps hashes to slot
// numbers, probed 16 at a time with SIMD. The LRU chain is index-linked
// (uint32 prev/next inside the slot), so Get/Put touch no pointers and the
// whole hot path is a handful of cache lines. Expired entries are reclaimed
// lazily: lookups erase what they touch, and every Put advances a small
// roving sweep over the LRU chain so a quiescent cache cannot pin an
// unbounded amount of dead data. Erased slots go on a free list with their
// rdata buffers intact; at capacity a Put reuses the evicted victim's slot
// directly, so steady-state churn performs no allocation at all.
#pragma once

#include <cstdint>
#include <vector>

#include "dns/rr.h"
#include "obs/counter_set.h"
#include "sim/simulator.h"
#include "util/flat_hash.h"

namespace rootless::resolver {

// The cache's counters (module "resolver.cache"): CacheCounts is the plain
// snapshot, CacheCounters the pre-resolved registry handles (a bump on the
// hot path is one 64-bit add through the handle's pointer).
#define ROOTLESS_CACHE_COUNTERS(X)                                     \
  X(hits)                                                              \
  X(misses)                                                            \
  X(expired)     /* lookups that found only a stale entry */           \
  X(insertions)                                                        \
  X(evictions)   /* capacity evictions (LRU) */                        \
  X(swept)       /* stale entries removed by the lazy sweep */
ROOTLESS_COUNTER_SET(CacheCounts, CacheCounters, ROOTLESS_CACHE_COUNTERS);

// What stats() returns: the counts plus the derived hit rate.
struct CacheStats : CacheCounts {
  double hit_rate() const {
    const std::uint64_t total = hits + misses + expired;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class DnsCache {
 public:
  // capacity = maximum number of RRsets held (0 = unlimited). The counters
  // register in `registry`, or in obs::Registry::Default() when it is null,
  // as "resolver.cache.<name>" under the next "resolver.cache" instance
  // label. A nonzero capacity pre-sizes both the slot array and the hash
  // index, so a bounded cache never rehashes for growth.
  explicit DnsCache(std::size_t capacity = 0,
                    obs::Registry* registry = nullptr);

  // Looks up an unexpired RRset, refreshing its LRU position. Returns
  // nullptr on miss/expiry (expired entries are erased).
  const dns::RRset* Get(const dns::RRsetKey& key, sim::SimTime now);
  // Heterogeneous probe: same semantics, no RRsetKey (and thus Name) copy.
  const dns::RRset* Get(const dns::Name& name, dns::RRType type,
                        sim::SimTime now);
  // Borrowed-owner probe (e.g. Name::SuffixView): the negative path of the
  // resolver's referral check runs with no Name copy at all.
  const dns::RRset* Get(const dns::NameView& name, dns::RRType type,
                        sim::SimTime now);

  // Inserts or replaces; expiry = now + ttl seconds.
  void Put(const dns::RRset& rrset, sim::SimTime now);
  // Same, from a borrowed view (e.g. a zone::ZoneSnapshot arena): the cache
  // owns its entries, so the view's stored rdatas are decoded exactly once,
  // straight into the slot — no intermediate RRset.
  void Put(const dns::RRsetView& rrset, sim::SimTime now);

  // Drops expired entries eagerly; returns how many were removed.
  std::size_t PurgeExpired(sim::SimTime now);

  bool Contains(const dns::RRsetKey& key, sim::SimTime now) const;

  std::size_t size() const { return index_.size(); }
  std::size_t capacity() const { return capacity_; }
  // Snapshot of the registry-backed counters (cheap: six slot reads).
  CacheStats stats() const { return CacheStats{c_.Read()}; }
  void ResetStats() { c_.Reset(); }
  void Clear();

  // Number of cached RRsets whose owner is a TLD (single non-root label) —
  // the §5.1 "fraction of TLDs already cached" measurement.
  std::size_t TldRRsetCount() const;

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Slot {
    // The entry's key is (rrset.name, rrset.type, rrset.rrclass); `hash` is
    // its RRsetKeyHash value, kept so index probes confirm candidates with
    // one integer compare and rehashes never touch the Name.
    dns::RRset rrset;
    sim::SimTime expiry = 0;
    std::uint64_t hash = 0;
    std::uint32_t lru_prev = kNil;  // toward the head (more recent)
    std::uint32_t lru_next = kNil;  // toward the tail (less recent)
    bool live = false;
  };

  // Shared lookup body for key and key-view probes (instantiated in the .cc).
  template <typename KeyLike>
  const dns::RRset* GetImpl(const KeyLike& key, sim::SimTime now);

  // Shared insert body for owning RRsets and borrowed RRsetViews.
  template <typename SetLike>
  void PutImpl(const SetLike& rrset, sim::SimTime now);

  // Index probe for `key` hashing to `hash`; kNil if absent.
  template <typename KeyLike>
  std::uint32_t FindSlot(std::uint64_t hash, const KeyLike& key) const;

  void PushFront(std::uint32_t s);
  void Unlink(std::uint32_t s);
  void MoveToFront(std::uint32_t s);
  // Unlinks, removes from the index, and free-lists the slot (rdata buffers
  // are kept for reuse).
  void EraseSlot(std::uint32_t s);
  // Advances the roving expiry sweep by a constant number of entries.
  void SweepStep(sim::SimTime now);

  std::size_t capacity_;
  util::FlatHashIndex index_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // dead slot numbers, reused LIFO
  std::uint32_t lru_head_ = kNil;    // most recent
  std::uint32_t lru_tail_ = kNil;    // least recent
  std::uint32_t sweep_cursor_ = kNil;
  CacheCounters c_;
};

}  // namespace rootless::resolver
