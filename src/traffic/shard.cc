#include "traffic/shard.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace rootless::traffic {

namespace {

// (resolver, tld) packed key for the stray sets; must match classify.cc's
// PairKey so the streamed classification is bit-for-bit ClassifyTrace.
std::uint64_t PairKey(std::uint32_t resolver, TldId tld) {
  return (static_cast<std::uint64_t>(resolver) << 20) | (tld & 0xFFFFFu);
}

// Derives an independent seed from (seed, a, b). This is the whole
// determinism story: a resolver's stream depends only on these inputs, never
// on which shard owns it or which thread runs the shard.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = seed;
  s = util::SplitMix64(s) ^ (a * 0x9E3779B97F4A7C15ULL);
  s = util::SplitMix64(s) ^ (b * 0xC2B2AE3D27D4EB4FULL);
  return util::SplitMix64(s);
}

constexpr std::uint64_t kProfileSalt = 0x50524F46ULL;  // per-resolver profile
constexpr std::uint64_t kChunkSalt = 0x4348554EULL;    // per-(resolver,chunk)
constexpr std::uint64_t kPoolSalt = 0x504F4F4CULL;     // shared garbage pool
constexpr std::uint64_t kAttackSalt = 0x41545443ULL;   // adversarial stream

}  // namespace

ShardPlan MakeShardPlan(const WorkloadConfig& config, int num_shards) {
  ROOTLESS_CHECK(num_shards >= 1);
  ROOTLESS_CHECK(config.scale > 0);
  ShardPlan plan;
  plan.resolver_count = static_cast<std::uint32_t>(std::max<std::uint64_t>(
      10, static_cast<std::uint64_t>(
              static_cast<double>(config.full_scale_resolvers) * config.scale)));
  plan.bogus_only_count = static_cast<std::uint32_t>(
      config.bogus_only_resolver_fraction * plan.resolver_count);
  plan.shards.resize(static_cast<std::size_t>(num_shards));
  const std::uint64_t n = plan.resolver_count;
  const std::uint64_t k = static_cast<std::uint64_t>(num_shards);
  for (std::uint64_t s = 0; s < k; ++s) {
    plan.shards[s].begin = static_cast<std::uint32_t>(n * s / k);
    plan.shards[s].end = static_cast<std::uint32_t>(n * (s + 1) / k);
  }
  return plan;
}

int ShardOf(std::uint32_t resolver_count, int num_shards,
            std::uint32_t resolver) {
  ROOTLESS_CHECK(num_shards >= 1);
  ROOTLESS_CHECK(resolver < resolver_count);
  const std::uint64_t n = resolver_count;
  const std::uint64_t k = static_cast<std::uint64_t>(num_shards);
  // Candidate from inverting begin(s) = floor(n*s/k); the floor can put us
  // one shard off either way, so nudge until the range brackets `resolver`.
  std::uint64_t s = static_cast<std::uint64_t>(resolver) * k / n;
  if (s >= k) s = k - 1;
  while (n * s / k > resolver) --s;
  while (n * (s + 1) / k <= resolver) ++s;
  return static_cast<int>(s);
}

void ShardTally::MergeFrom(const ShardTally& other) {
  total_queries += other.total_queries;
  bogus_tld_queries += other.bogus_tld_queries;
  cache_spurious_ideal += other.cache_spurious_ideal;
  valid_ideal += other.valid_ideal;
  cache_spurious_budget += other.cache_spurious_budget;
  valid_budget += other.valid_budget;
  new_tld_queries += other.new_tld_queries;
  attack_queries += other.attack_queries;
  resolvers_total += other.resolvers_total;
  resolvers_bogus_only += other.resolvers_bogus_only;
}

TrafficMixReport ShardTally::ToReport() const {
  TrafficMixReport report;
  report.total_queries = total_queries;
  report.bogus_tld_queries = bogus_tld_queries;
  report.cache_spurious_ideal = cache_spurious_ideal;
  report.valid_ideal = valid_ideal;
  report.cache_spurious_budget = cache_spurious_budget;
  report.valid_budget = valid_budget;
  report.resolvers_total = resolvers_total;
  report.resolvers_bogus_only = resolvers_bogus_only;
  return report;
}

ShardLabelSpace::ShardLabelSpace(const WorkloadConfig& config,
                                 const std::vector<std::string>& real_tlds)
    : tld_zipf_(1, 0) {
  ROOTLESS_CHECK(!real_tlds.empty());
  ROOTLESS_CHECK(config.window_sec % kChunkSec == 0);
  chunk_count_ = config.window_sec / kChunkSec;

  // Interning order is a pure function of (config, real_tlds), so every
  // consumer of one config sees the identical table and TLD ids are
  // comparable across shards (chunks from different shards can be merged
  // into one Trace).
  for (const auto& label : real_tlds) {
    const TldId id = tlds_.Intern(label);
    if (label == config.new_tld) {
      new_tld_id_ = id;
      new_tld_delegated_ = true;
      continue;  // queried via the adoption stream, not the Zipf draw
    }
    real_ids_.push_back(id);
  }
  for (const char* label : kCommonJunk) {
    common_junk_ids_.push_back(tlds_.Intern(label));
  }
  // Fixed garbage pool, seeded from config.seed only so all shards agree.
  util::Rng pool_rng(DeriveSeed(config.seed, kPoolSalt, 0));
  garbage_pool_.reserve(kGarbagePoolSize);
  for (std::uint32_t i = 0; i < kGarbagePoolSize; ++i) {
    garbage_pool_.push_back(tlds_.Intern(GarbageLabel(pool_rng)));
  }
  if (!config.new_tld.empty() && !new_tld_delegated_) {
    new_tld_id_ = tlds_.Intern(config.new_tld);
  }
  // The stray-set key packs TLD ids into 20 bits, like classify.cc.
  ROOTLESS_CHECK(tlds_.size() < (1u << 20));

  tld_real_.assign(tlds_.size(), 0);
  for (const TldId id : real_ids_) tld_real_[id] = 1;
  if (new_tld_delegated_) tld_real_[new_tld_id_] = 1;

  tld_zipf_ = util::ZipfSampler(real_ids_.size(), config.tld_zipf_s);

  // Diurnal modulation: a mild day/night swing, 0.75 + 0.25·sin per chunk,
  // normalized so the weights average to exactly 1 (rates stay calibrated).
  diurnal_.resize(chunk_count_);
  double sum = 0;
  for (std::uint32_t c = 0; c < chunk_count_; ++c) {
    const double phase =
        6.283185307179586 * (c + 0.5) / static_cast<double>(chunk_count_);
    diurnal_[c] = 0.75 + 0.25 * std::sin(phase - 1.2);
    sum += diurnal_[c];
  }
  for (double& w : diurnal_) w *= chunk_count_ / sum;
}

ShardTraceGenerator::ShardTraceGenerator(const WorkloadConfig& config,
                                         const ShardPlan& plan,
                                         int shard_index,
                                         const ShardLabelSpace& labels)
    : config_(config),
      labels_(&labels),
      bogus_only_count_(plan.bogus_only_count) {
  ROOTLESS_CHECK(shard_index >= 0 &&
                 static_cast<std::size_t>(shard_index) < plan.shards.size());
  ROOTLESS_CHECK(config.window_sec % kChunkSec == 0);
  range_ = plan.shards[static_cast<std::size_t>(shard_index)];
  chunk_count_ = config.window_sec / kChunkSec;
  ROOTLESS_CHECK(chunk_count_ == labels.chunk_count());

  // ---- calibration ----------------------------------------------------
  // Re-express the config's day-level targets as per-resolver, per-chunk
  // rates so each (resolver, chunk) cell is independent.
  const auto total_queries = static_cast<std::uint64_t>(
      static_cast<double>(config.full_scale_queries) * config.scale);
  const double n = plan.resolver_count;
  const double b = plan.bogus_only_count;
  const double r = n - b;
  ROOTLESS_CHECK(r >= 1);
  const double chunks = chunk_count_;
  const auto bogus_total = static_cast<double>(static_cast<std::uint64_t>(
      config.bogus_query_fraction * static_cast<double>(total_queries)));
  const double valid_total = static_cast<double>(total_queries) - bogus_total;

  const double bogus_only_share =
      b > 0 ? config.bogus_only_volume_share : 0.0;
  rate_bogus_only_ = b > 0 ? bogus_only_share * bogus_total / b / chunks : 0.0;
  rate_regular_bogus_ = (1.0 - bogus_only_share) * bogus_total / r / chunks;

  // Valid stream: pairs_mean pairs per regular resolver; each pair is active
  // in a chunk with slot_prob (so ~slots_per_pair_mean active chunks/day) and
  // an active chunk carries 1 + floor(Exp(extra_mean)) queries. The +0.5 is
  // the floor's continuity correction, keeping the day total at
  // queries_per_pair_mean.
  const double qpp = std::max(1.0, config.queries_per_pair_mean);
  const double spp =
      std::min(std::max(1.0, config.slots_per_pair_mean), chunks);
  pairs_mean_ = valid_total / qpp / r;
  slot_prob_ = spp / chunks;
  extra_mean_ = (qpp - spp) / spp + 0.5;

  // §5.3 adoption: each regular resolver adopts independently, so the day
  // expects max(1, floor(fraction*N)) adopters and a small day can draw
  // none (scale 0.001 expects one).
  if (!config.new_tld.empty()) {
    const double adopters = std::max<double>(
        1, static_cast<std::uint64_t>(config.new_tld_resolver_fraction * n));
    adopter_prob_ = std::min(1.0, adopters / r);
    new_rate_ = config.new_tld_queries_per_resolver / chunks;
  }

  BuildProfiles();
  pair_seen_ideal_.assign(range_.size(), 0);
  pair_seen_chunk_.assign(range_.size(), 0);
  resolver_bits_.assign(range_.size(), 0);
}

TldId ShardTraceGenerator::SampleJunk(util::Rng& rng) const {
  if (rng.Chance(0.7)) {
    return labels_->common_junk_ids_[rng.Below(
        labels_->common_junk_ids_.size())];
  }
  return labels_->garbage_pool_[rng.Below(labels_->garbage_pool_.size())];
}

void ShardTraceGenerator::BuildProfiles() {
  profiles_.resize(range_.size());
  for (std::uint32_t r = range_.begin; r < range_.end; ++r) {
    ResolverProfile& p = profiles_[r - range_.begin];
    util::Rng rng(DeriveSeed(config_.seed, r, kProfileSalt));
    p.bogus_only = r < bogus_only_count_;
    if (p.bogus_only) {
      // The resolver's leaked search list (1–3 junk suffixes).
      const std::size_t n = 1 + rng.Below(3);
      for (std::size_t i = 0; i < n; ++i) {
        p.junk_vocab.push_back(SampleJunk(rng));
      }
      continue;
    }
    // The resolver's (resolver, TLD) pairs: Zipf-popular TLDs, distinct.
    // Duplicated draws get a few redraws then are dropped, so each entry is
    // a distinct pair (required for the bitmask classification state).
    std::size_t want = static_cast<std::size_t>(rng.Poisson(pairs_mean_));
    want = std::min(want, kMaxPairs);
    for (std::size_t i = 0; i < want; ++i) {
      TldId tld = 0;
      bool ok = false;
      for (int attempt = 0; attempt < 5 && !ok; ++attempt) {
        tld = labels_->real_ids_[labels_->tld_zipf_.Sample(rng)];
        ok = std::find(p.pairs.begin(), p.pairs.end(), tld) == p.pairs.end();
      }
      if (ok) p.pairs.push_back(tld);
    }
    p.new_tld_adopter = adopter_prob_ > 0 && rng.Chance(adopter_prob_);
  }
}

double ShardTraceGenerator::DiurnalWeight(std::uint32_t chunk) const {
  return labels_->diurnal_[chunk];
}

int ShardTraceGenerator::PairBitOf(std::uint32_t r, TldId tld) const {
  const ResolverProfile& p = profiles_[r - range_.begin];
  for (std::size_t i = 0; i < p.pairs.size(); ++i) {
    if (p.pairs[i] == tld) return static_cast<int>(i);
  }
  if (p.new_tld_adopter && tld == labels_->new_tld_id_) {
    return static_cast<int>(kNewTldBit);
  }
  return -1;
}

void ShardTraceGenerator::ClassifyReal(std::uint32_t r, TldId tld, int bit) {
  const std::uint32_t idx = r - range_.begin;
  if (bit >= 0) {
    const std::uint64_t mask = 1ULL << bit;
    if ((pair_seen_ideal_[idx] & mask) == 0) {
      pair_seen_ideal_[idx] |= mask;
      ++tally_.valid_ideal;
    } else {
      ++tally_.cache_spurious_ideal;
    }
    if ((pair_seen_chunk_[idx] & mask) == 0) {
      pair_seen_chunk_[idx] |= mask;
      ++tally_.valid_budget;
    } else {
      ++tally_.cache_spurious_budget;
    }
    return;
  }
  // A junk label that happens to be delegated (pool/vendor-suffix collision
  // with the zone) — rare, but classified exactly like ClassifyTrace would.
  const std::uint64_t key = PairKey(r, tld);
  if (stray_seen_ideal_.insert(key).second) {
    ++tally_.valid_ideal;
  } else {
    ++tally_.cache_spurious_ideal;
  }
  if (stray_seen_chunk_.insert(key).second) {
    ++tally_.valid_budget;
  } else {
    ++tally_.cache_spurious_budget;
  }
}

void ShardTraceGenerator::EmitResolverChunk(std::uint32_t r,
                                            std::uint32_t chunk, double weight,
                                            std::vector<QueryEvent>& out) {
  const ResolverProfile& p = profiles_[r - range_.begin];
  util::Rng rng(DeriveSeed(config_.seed, r, kChunkSalt + chunk));
  const std::uint32_t base = chunk * kChunkSec;
  std::uint8_t& bits = resolver_bits_[r - range_.begin];
  const std::vector<std::uint8_t>& tld_real = labels_->tld_real_;

  // `bit_hint` is the (resolver, tld) pair bit when the emitting stream
  // already knows it, kUnknownBit when only a PairBitOf scan can tell (junk
  // that happens to collide with a delegated label).
  constexpr int kUnknownBit = -2;
  auto emit = [&](TldId tld, int bit_hint) {
    QueryEvent e;
    e.time_sec = base + static_cast<std::uint32_t>(rng.Below(kChunkSec));
    e.resolver_id = r;
    e.tld = tld;
    out.push_back(e);
    ++tally_.total_queries;
    bits |= 1;
    if (tld_real[tld] == 0) {
      ++tally_.bogus_tld_queries;
    } else {
      bits |= 2;
      ClassifyReal(r, tld,
                   bit_hint == kUnknownBit ? PairBitOf(r, tld) : bit_hint);
    }
  };

  if (p.bogus_only) {
    const std::uint64_t n = rng.Poisson(rate_bogus_only_ * weight);
    for (std::uint64_t i = 0; i < n; ++i) {
      emit(p.junk_vocab[rng.Below(p.junk_vocab.size())], kUnknownBit);
    }
    return;
  }

  // One-off junk leakage (misconfiguration, chromium-style probes).
  const std::uint64_t junk = rng.Poisson(rate_regular_bogus_ * weight);
  for (std::uint64_t i = 0; i < junk; ++i) emit(SampleJunk(rng), kUnknownBit);

  // Valid pairs: each pair independently active this chunk, with a burst.
  // Pairs are distinct, so pair i's first match in PairBitOf is i itself —
  // pass it down and the classifier does no scanning on this stream.
  for (std::size_t i = 0; i < p.pairs.size(); ++i) {
    if (!rng.Chance(slot_prob_ * weight)) continue;
    const std::uint64_t queries =
        1 + static_cast<std::uint64_t>(rng.Exponential(extra_mean_));
    for (std::uint64_t q = 0; q < queries; ++q) {
      emit(p.pairs[i], static_cast<int>(i));
    }
  }

  // §5.3 new-TLD adoption stream. The adopter's bit is kNewTldBit (the
  // pairs never contain the new TLD: it is excluded from the Zipf universe).
  if (p.new_tld_adopter) {
    const std::uint64_t n = rng.Poisson(new_rate_ * weight);
    for (std::uint64_t i = 0; i < n; ++i) {
      emit(labels_->new_tld_id_, static_cast<int>(kNewTldBit));
      ++tally_.new_tld_queries;
    }
  }
}

void ShardTraceGenerator::EmitAttackChunk(std::uint32_t r,
                                          std::uint32_t chunk,
                                          std::vector<QueryEvent>& out) {
  util::Rng rng(DeriveSeed(config_.seed, r, kAttackSalt + chunk));
  const std::uint32_t base = chunk * kChunkSec;
  std::uint8_t& bits = resolver_bits_[r - range_.begin];
  const std::vector<std::uint8_t>& tld_real = labels_->tld_real_;
  const std::uint64_t n = rng.Poisson(attack_->rate);
  for (std::uint64_t i = 0; i < n; ++i) {
    // Draw the full event before window-thinning it, so the RNG stream (and
    // everything after it) is invariant to the window list.
    const auto t = base + static_cast<std::uint32_t>(rng.Below(kChunkSec));
    const TldId tld =
        labels_->garbage_pool_[rng.Below(labels_->garbage_pool_.size())];
    if (!attack_->ActiveAt(t)) continue;
    out.push_back(QueryEvent{t, r, tld});
    ++tally_.total_queries;
    ++tally_.attack_queries;
    bits |= 1;
    if (tld_real[tld] == 0) {
      ++tally_.bogus_tld_queries;
    } else {
      // Pool label colliding with a delegated TLD: classified exactly like
      // the benign junk stream would classify it.
      bits |= 2;
      ClassifyReal(r, tld, PairBitOf(r, tld));
    }
  }
}

bool ShardTraceGenerator::NextChunk(ShardChunk& out) {
  if (next_chunk_ >= chunk_count_) return false;
  const std::uint32_t chunk = next_chunk_++;
  out.index = chunk;
  out.events.clear();

  // Budget-model state resets at the window boundary (chunk == window).
  std::fill(pair_seen_chunk_.begin(), pair_seen_chunk_.end(), 0);
  stray_seen_chunk_.clear();

  const double weight = DiurnalWeight(chunk);
  for (std::uint32_t r = range_.begin; r < range_.end; ++r) {
    EmitResolverChunk(r, chunk, weight, out.events);
  }
  if (attack_ != nullptr && attack_->active()) {
    const std::uint32_t attack_end =
        std::min<std::uint32_t>(range_.end, attack_->attackers);
    for (std::uint32_t r = range_.begin; r < attack_end; ++r) {
      EmitAttackChunk(r, chunk, out.events);
    }
  }
  SortEvents(out.events, sort_scratch_);

  if (next_chunk_ == chunk_count_) {
    // Day complete: fold the population facts into the tally.
    for (const std::uint8_t bits : resolver_bits_) {
      if ((bits & 1) == 0) continue;
      ++tally_.resolvers_total;
      if ((bits & 2) == 0) ++tally_.resolvers_bogus_only;
    }
  }
  return true;
}

}  // namespace rootless::traffic
