#include "resolver/cache.h"

#include "util/check.h"

namespace rootless::resolver {

namespace {
// Entries examined by the lazy expiry sweep per insertion. Two per Put keeps
// the steady-state fraction of dead entries bounded while adding a couple of
// slot reads to the insert path.
constexpr int kSweepPerPut = 2;

// Adapters letting the shared bodies treat owning RRsets, borrowed
// RRsetViews, and both key flavours uniformly.
inline const dns::Name& OwnerOf(const dns::RRset& s) { return s.name; }
inline const dns::Name& OwnerOf(const dns::RRsetView& s) { return *s.name; }
inline const dns::Name& KeyName(const dns::RRsetKey& k) { return k.name; }
inline const dns::Name& KeyName(const dns::RRsetKeyView& k) { return *k.name; }
inline const dns::NameView& KeyName(const dns::RRsetSuffixKey& k) {
  return k.name;
}
inline void AssignSet(dns::RRset& dst, const dns::RRset& src) { dst = src; }
inline void AssignSet(dns::RRset& dst, const dns::RRsetView& src) {
  dst.name = *src.name;
  dst.type = src.type;
  dst.rrclass = src.rrclass;
  dst.ttl = src.ttl;
  // Decoded in place: the slot's vector keeps its capacity across reuse.
  dst.rdatas.resize(src.rdatas.size());
  auto out = dst.rdatas.begin();
  for (const auto wire : src.rdatas) {
    *out++ = dns::RdataRun::Decode(src.type, wire);
  }
}
}  // namespace

DnsCache::DnsCache(std::size_t capacity, obs::Registry* registry)
    : capacity_(capacity) {
  c_.Register(registry, "resolver.cache");
  if (capacity_ != 0) {
    slots_.reserve(capacity_);
    index_.Reserve(capacity_);
  }
}

template <typename KeyLike>
std::uint32_t DnsCache::FindSlot(std::uint64_t hash,
                                 const KeyLike& key) const {
  return index_.Find(hash, [&](std::uint32_t s) {
    const Slot& slot = slots_[s];
    return slot.hash == hash && slot.rrset.type == key.type &&
           slot.rrset.rrclass == key.rrclass &&
           slot.rrset.name == KeyName(key);
  });
}

template <typename KeyLike>
const dns::RRset* DnsCache::GetImpl(const KeyLike& key, sim::SimTime now) {
  const std::uint64_t hash = dns::RRsetKeyHash{}(key);
  const std::uint32_t s = FindSlot(hash, key);
  if (s == kNil) {
    c_.misses.Inc();
    return nullptr;
  }
  Slot& slot = slots_[s];
  if (slot.expiry <= now) {
    c_.expired.Inc();
    EraseSlot(s);
    return nullptr;
  }
  c_.hits.Inc();
  MoveToFront(s);
  return &slot.rrset;
}

const dns::RRset* DnsCache::Get(const dns::RRsetKey& key, sim::SimTime now) {
  return GetImpl(key, now);
}

const dns::RRset* DnsCache::Get(const dns::Name& name, dns::RRType type,
                                sim::SimTime now) {
  return GetImpl(dns::RRsetKeyView{&name, type, dns::RRClass::kIN}, now);
}

const dns::RRset* DnsCache::Get(const dns::NameView& name, dns::RRType type,
                                sim::SimTime now) {
  return GetImpl(dns::RRsetSuffixKey{name, type, dns::RRClass::kIN}, now);
}

void DnsCache::Put(const dns::RRset& rrset, sim::SimTime now) {
  PutImpl(rrset, now);
}

void DnsCache::Put(const dns::RRsetView& rrset, sim::SimTime now) {
  PutImpl(rrset, now);
}

template <typename SetLike>
void DnsCache::PutImpl(const SetLike& rrset, sim::SimTime now) {
  const sim::SimTime expiry =
      now + static_cast<sim::SimTime>(rrset.ttl) * sim::kSecond;
  const dns::RRsetKeyView probe{&OwnerOf(rrset), rrset.type, rrset.rrclass};
  const std::uint64_t hash = dns::RRsetKeyHash{}(probe);
  const std::uint32_t found = FindSlot(hash, probe);
  if (found != kNil) {
    Slot& slot = slots_[found];
    AssignSet(slot.rrset, rrset);
    slot.expiry = expiry;
    MoveToFront(found);
    return;
  }
  c_.insertions.Inc();
  const auto hash_of = [this](std::uint32_t s) { return slots_[s].hash; };
  if (capacity_ != 0 && index_.size() >= capacity_ && lru_tail_ != kNil) {
    // At capacity a new key means insert+evict. Reuse the victim's slot in
    // place: its rdata buffers become the new entry's, so steady-state churn
    // touches no allocator at all. Only the index changes — a tombstone for
    // the victim's hash, a fill for the new one.
    const std::uint32_t victim = lru_tail_;
    Slot& slot = slots_[victim];
    Unlink(victim);
    index_.Erase(slot.hash, [victim](std::uint32_t s) { return s == victim; });
    c_.evictions.Inc();
    AssignSet(slot.rrset, rrset);
    slot.expiry = expiry;
    slot.hash = hash;
    index_.Insert(hash, victim, hash_of);
    PushFront(victim);
    SweepStep(now);
    return;
  }
  // Unbounded or below capacity: this insert cannot take the cache over it.
  std::uint32_t s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[s];
  AssignSet(slot.rrset, rrset);
  slot.expiry = expiry;
  slot.hash = hash;
  slot.live = true;
  index_.Insert(hash, s, hash_of);
  PushFront(s);
  SweepStep(now);
}

std::size_t DnsCache::PurgeExpired(sim::SimTime now) {
  std::size_t removed = 0;
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].live && slots_[s].expiry <= now) {
      EraseSlot(s);
      ++removed;
    }
  }
  return removed;
}

bool DnsCache::Contains(const dns::RRsetKey& key, sim::SimTime now) const {
  const std::uint32_t s = FindSlot(dns::RRsetKeyHash{}(key), key);
  return s != kNil && slots_[s].expiry > now;
}

void DnsCache::Clear() {
  slots_.clear();
  free_.clear();
  index_.Clear();
  lru_head_ = lru_tail_ = sweep_cursor_ = kNil;
}

std::size_t DnsCache::TldRRsetCount() const {
  std::size_t count = 0;
  for (const Slot& slot : slots_) {
    if (slot.live && slot.rrset.name.label_count() == 1) ++count;
  }
  return count;
}

void DnsCache::PushFront(std::uint32_t s) {
  Slot& slot = slots_[s];
  slot.lru_prev = kNil;
  slot.lru_next = lru_head_;
  if (lru_head_ != kNil) slots_[lru_head_].lru_prev = s;
  lru_head_ = s;
  if (lru_tail_ == kNil) lru_tail_ = s;
}

void DnsCache::Unlink(std::uint32_t s) {
  Slot& slot = slots_[s];
  if (sweep_cursor_ == s) sweep_cursor_ = slot.lru_prev;
  if (slot.lru_prev != kNil) {
    slots_[slot.lru_prev].lru_next = slot.lru_next;
  } else {
    lru_head_ = slot.lru_next;
  }
  if (slot.lru_next != kNil) {
    slots_[slot.lru_next].lru_prev = slot.lru_prev;
  } else {
    lru_tail_ = slot.lru_prev;
  }
  slot.lru_prev = slot.lru_next = kNil;
}

void DnsCache::MoveToFront(std::uint32_t s) {
  if (lru_head_ == s) return;
  // Unlink hops the sweep cursor to the predecessor if it sat on `s`,
  // preserving the tail-to-head walk.
  Unlink(s);
  PushFront(s);
}

void DnsCache::EraseSlot(std::uint32_t s) {
  Slot& slot = slots_[s];
  Unlink(s);
  index_.Erase(slot.hash, [s](std::uint32_t cand) { return cand == s; });
  slot.live = false;
  // rdata buffers stay in the dead slot; the next insert that pops it off
  // the free list reuses their capacity.
  free_.push_back(s);
}

void DnsCache::SweepStep(sim::SimTime now) {
  for (int i = 0; i < kSweepPerPut; ++i) {
    if (sweep_cursor_ == kNil) sweep_cursor_ = lru_tail_;
    if (sweep_cursor_ == kNil) return;
    const std::uint32_t s = sweep_cursor_;
    sweep_cursor_ = slots_[s].lru_prev;  // advance toward the head
    if (slots_[s].expiry <= now) {
      EraseSlot(s);
      c_.swept.Inc();
    }
  }
}

}  // namespace rootless::resolver
