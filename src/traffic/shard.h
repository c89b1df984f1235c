// Deterministic sharding of the DITL workload for parallel replay.
//
// The §2.2 day is embarrassingly parallel across resolvers: no query of one
// resolver influences another resolver's behaviour, so the population can be
// split into K independent shards and replayed on K stacks concurrently.
// Three properties make the parallel run exactly reproducible:
//
//   1. The partition is a pure function of (resolver_count, K): shard s owns
//      the contiguous id range [s*N/K, (s+1)*N/K). No hashing, no RNG — every
//      resolver lands in exactly one shard, sizes differ by at most one, and
//      the assignment does not depend on thread scheduling.
//   2. Every random draw derives from a per-(resolver, chunk) RNG stream
//      seeded from (seed, resolver, chunk). A resolver therefore emits the
//      *same* queries no matter which shard owns it or how many shards
//      exist — generation and classification tallies are invariant across
//      K, not just across thread counts.
//   3. Generation is streamed in 900-second chunks (the budget-model window,
//      96 per day), so no shard ever materializes its full day. Memory is
//      O(events per chunk) and the TLD table is fully built at construction
//      (garbage labels come from a fixed seeded pool).
//
// This is the only DITL-day generator: the §2.2/§5.3 benches, the
// ditl_study example and the hotpath replay drain a one-shard day, and the
// sharded replay runs K shards of the same day. It is calibrated to the
// WorkloadConfig marginals (61.0% bogus, ~0.5% ideal-cache valid, ~3.3%
// budget valid, 17.6% bogus-only resolvers, §5.3 new-TLD adoption),
// expressed per resolver: each resolver draws a day profile (population
// membership, junk vocabulary, its (resolver, TLD) pairs, adoption) and
// then emits each chunk independently, with a diurnal rate modulation (a
// mild day/night swing).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "traffic/attack.h"
#include "traffic/classify.h"
#include "traffic/trace.h"
#include "traffic/workload.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace rootless::traffic {

// One shard's contiguous slice of the resolver population.
struct ShardRange {
  std::uint32_t begin = 0;  // first resolver id owned by the shard
  std::uint32_t end = 0;    // one past the last
  std::uint32_t size() const { return end - begin; }
};

struct ShardPlan {
  std::uint32_t resolver_count = 0;
  std::uint32_t bogus_only_count = 0;  // ids [0, bogus_only_count)
  std::vector<ShardRange> shards;
};

// Splits the workload's resolver population into `num_shards` contiguous,
// balanced ranges. Deterministic: depends only on the config-derived
// resolver count and num_shards.
ShardPlan MakeShardPlan(const WorkloadConfig& config, int num_shards);

// The shard owning `resolver` under a (resolver_count, num_shards) plan.
// Matches MakeShardPlan's ranges exactly.
int ShardOf(std::uint32_t resolver_count, int num_shards,
            std::uint32_t resolver);

// Per-shard generation + classification tallies. Classification follows
// ClassifyTrace's three-way decomposition and is computed streaming, chunk
// by chunk (slot == chunk, so the budget model needs no cross-chunk state).
// All fields are order-invariant counts, so summing shard tallies in any
// grouping reproduces the whole-trace classifier bit-for-bit.
struct ShardTally {
  std::uint64_t total_queries = 0;
  std::uint64_t bogus_tld_queries = 0;
  std::uint64_t cache_spurious_ideal = 0;
  std::uint64_t valid_ideal = 0;
  std::uint64_t cache_spurious_budget = 0;
  std::uint64_t valid_budget = 0;
  std::uint64_t new_tld_queries = 0;
  // Queries emitted by the adversarial stream (see traffic/attack.h); they
  // also count in total_queries / bogus_tld_queries like any other query.
  std::uint64_t attack_queries = 0;
  std::uint32_t resolvers_total = 0;
  std::uint32_t resolvers_bogus_only = 0;

  void MergeFrom(const ShardTally& other);
  TrafficMixReport ToReport() const;
};

// One generated chunk: all of the shard's queries with
// time_sec in [index*kChunkSec, (index+1)*kChunkSec), in trace order
// (SortEvents). A shard's chunks, appended in order, are its day in trace
// order.
struct ShardChunk {
  std::uint32_t index = 0;
  std::vector<QueryEvent> events;
};

// The label universe of a replay day, shared read-only by every shard's
// generator: the interned TLD table (real TLDs + vendor junk suffixes + the
// fixed garbage pool), the per-TLD reality bits, the Zipf sampler over the
// delegated set, and the per-chunk diurnal weights. All of it is a pure
// function of (config, real_tlds) — it was previously rebuilt identically
// inside every generator, ~33k label interns per shard — so a parallel run
// builds one instance and hands it to all K shards. Immutable after
// construction; safe to share across threads.
class ShardLabelSpace {
 public:
  // The chunk length doubles as the budget-model window; keep in sync with
  // ClassifyOptions::budget_window_sec.
  static constexpr std::uint32_t kChunkSec = 900;
  // Size of the fixed bogus-garbage label pool (seeded from config.seed
  // only, so TLD ids are identical for every consumer of one config).
  static constexpr std::uint32_t kGarbagePoolSize = 32768;

  ShardLabelSpace(const WorkloadConfig& config,
                  const std::vector<std::string>& real_tlds);

  const TldTable& tlds() const { return tlds_; }
  std::uint32_t chunk_count() const { return chunk_count_; }

 private:
  friend class ShardTraceGenerator;

  TldTable tlds_;
  std::vector<std::uint8_t> tld_real_;  // parallel to tlds_
  std::vector<TldId> real_ids_;         // real TLDs excluding the new TLD
  std::vector<TldId> common_junk_ids_;
  std::vector<TldId> garbage_pool_;
  TldId new_tld_id_ = 0;
  bool new_tld_delegated_ = false;
  util::ZipfSampler tld_zipf_;
  std::vector<double> diurnal_;  // per-chunk rate weight, mean exactly 1
  std::uint32_t chunk_count_ = 0;
};

// Streams one shard's day. Not thread-safe; parallel runs construct one
// generator per shard over one shared ShardLabelSpace (everything the
// generators share is immutable).
class ShardTraceGenerator {
 public:
  static constexpr std::uint32_t kChunkSec = ShardLabelSpace::kChunkSec;

  // Shares `labels` (which must outlive the generator and have been built
  // from an identical WorkloadConfig).
  ShardTraceGenerator(const WorkloadConfig& config, const ShardPlan& plan,
                      int shard_index, const ShardLabelSpace& labels);

  // Fills `out` with the next chunk (possibly empty for a quiet chunk) and
  // classifies its events into tally(). Returns false once the day is
  // exhausted (`out` is then untouched).
  bool NextChunk(ShardChunk& out);

  // Arms the adversarial stream: attacker resolvers owned by this shard
  // additionally emit `plan`'s queries (appended to each chunk before the
  // canonical sort, so ordering stays deterministic). The plan must outlive
  // the generator; nullptr or an inactive plan leaves the benign trace
  // bit-identical.
  void SetAttackPlan(const AttackPlan* plan) { attack_ = plan; }

  std::uint32_t chunk_count() const { return chunk_count_; }
  // Fully built before generation starts; never grows during it.
  const TldTable& tlds() const { return labels_->tlds(); }
  const ShardRange& range() const { return range_; }
  // Tallies over everything generated so far; final after the last chunk.
  const ShardTally& tally() const { return tally_; }

 private:
  struct ResolverProfile {
    bool bogus_only = false;
    bool new_tld_adopter = false;
    // Bogus-only: the resolver's junk vocabulary (its search list).
    std::vector<TldId> junk_vocab;
    // Regular: the TLDs of this resolver's valid (resolver, TLD) pairs
    // (distinct; at most kMaxPairs so day-long state fits a bitmask).
    std::vector<TldId> pairs;
  };
  static constexpr std::size_t kMaxPairs = 60;
  static constexpr std::uint64_t kNewTldBit = 63;

  void BuildProfiles();
  double DiurnalWeight(std::uint32_t chunk) const;
  TldId SampleJunk(util::Rng& rng) const;
  void EmitResolverChunk(std::uint32_t r, std::uint32_t chunk, double weight,
                         std::vector<QueryEvent>& out);
  // Adversarial stream for attacker resolver `r` (its own RNG stream under
  // kAttackSalt, so the benign draws are untouched).
  void EmitAttackChunk(std::uint32_t r, std::uint32_t chunk,
                       std::vector<QueryEvent>& out);
  // Classification helpers (exact ClassifyTrace semantics, streamed). `bit`
  // is the (resolver, tld) pair bit when the emitter already knows it — the
  // valid-pair and adoption streams do, which skips the PairBitOf scan on
  // the ~97% of real queries that come from them.
  void ClassifyReal(std::uint32_t r, TldId tld, int bit);
  int PairBitOf(std::uint32_t r, TldId tld) const;  // -1 when not a pair TLD

  WorkloadConfig config_;
  const ShardLabelSpace* labels_ = nullptr;
  const AttackPlan* attack_ = nullptr;
  ShardRange range_;
  std::uint32_t bogus_only_count_ = 0;

  // Derived per-resolver rates (see shard.cc for the calibration).
  double rate_bogus_only_ = 0;     // junk queries / chunk, bogus-only pop.
  double rate_regular_bogus_ = 0;  // junk queries / chunk, regular pop.
  double pairs_mean_ = 0;          // valid pairs per regular resolver
  double slot_prob_ = 0;           // P(pair active in a chunk), pre-diurnal
  double extra_mean_ = 0;          // extra queries per active (pair, chunk)
  double adopter_prob_ = 0;        // new-TLD adopters among regulars
  double new_rate_ = 0;            // new-TLD queries / chunk for adopters

  std::vector<ResolverProfile> profiles_;  // indexed by r - range_.begin

  // Classification state, all indexed by r - range_.begin. A resolver's
  // pair bit i covers profiles_[..].pairs[i]; kNewTldBit covers the §5.3
  // adoption stream. Junk that happens to hit a delegated label (possible:
  // the garbage pool is sampled before delegation is known) goes through
  // the stray sets, keyed like classify.cc's PairKey.
  std::vector<std::uint64_t> pair_seen_ideal_;
  std::vector<std::uint64_t> pair_seen_chunk_;
  std::vector<std::uint8_t> resolver_bits_;  // bit0 sent any, bit1 sent real
  std::unordered_set<std::uint64_t> stray_seen_ideal_;
  std::unordered_set<std::uint64_t> stray_seen_chunk_;
  // SortEvents' buffer; trades places with the chunk's events every chunk.
  std::vector<QueryEvent> sort_scratch_;
  std::uint32_t chunk_count_ = 0;
  std::uint32_t next_chunk_ = 0;
  ShardTally tally_;
};

}  // namespace rootless::traffic
