// Hot-path perf harness: micro-benchmarks for the name/cache/simulator
// layers plus a DITL-scale end-to-end replay, emitting BENCH_hotpath.json.
//
// Unlike the google-benchmark suites (micro_benchmarks.cc), this harness is
// meant to be *run by the build* (the `bench_hotpath` target) and to leave a
// machine-readable record of the repo's perf trajectory. Usage:
//
//   hotpath_bench [--out BENCH_hotpath.json] [--baseline old.json]
//
// With --baseline the previous run's metrics are embedded under "baseline"
// and per-metric speedups are computed, so a committed JSON documents both
// the seed numbers and the current ones.
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dns/message.h"
#include "dns/name.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resolver/cache.h"
#include "resolver/recursive.h"
#include "resolver/zone_db.h"
#include "rootsrv/auth_server.h"
#include "rootsrv/tld_farm.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "topo/geo.h"
#include "traffic/workload.h"
#include "util/rng.h"
#include "zone/evolution.h"
#include "zone/zone_diff.h"
#include "zone/zone_snapshot.h"

// Allocation counter for the referral-build comparison: every global new is
// one tick. Single-threaded harness, so a plain counter suffices.
namespace {
std::uint64_t g_allocs = 0;
}  // namespace

// GCC pairs the malloc-backed replacement new with the free-backed delete
// across inlining and reports a spurious mismatch; the pairing is correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace rootless;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Runs `body(iters)` with growing iteration counts until it consumes at
// least `min_seconds`, then reports nanoseconds per iteration.
template <typename Body>
double MeasureNsPerOp(Body&& body, double min_seconds = 0.25) {
  std::uint64_t iters = 1024;
  for (;;) {
    const auto start = Clock::now();
    body(iters);
    const double elapsed = SecondsSince(start);
    // Past ~17G iterations under budget, the body is effectively free
    // (sub-0.02 ns/op: the optimizer collapsed the loop); report that
    // instead of growing forever.
    if (elapsed >= min_seconds || iters > (1ull << 34)) {
      return elapsed * 1e9 / static_cast<double>(iters);
    }
    const double target = min_seconds * 1.4;
    const double grow = elapsed > 0 ? target / elapsed : 16.0;
    iters = static_cast<std::uint64_t>(static_cast<double>(iters) *
                                       (grow < 16.0 ? grow : 16.0)) +
            1;
  }
}

const zone::Zone& RootZone() {
  static const zone::Zone* z = [] {
    zone::EvolutionConfig config;
    const auto* model = new zone::RootZoneModel(config);
    return new zone::Zone(model->Snapshot({2018, 4, 11}));
  }();
  return *z;
}

// A deterministic pool of realistic query names (mix of 2- and 3-label).
std::vector<std::string> NamePool(std::size_t count) {
  util::Rng rng(97);
  const char* hosts[] = {"www", "mail", "api", "cdn-edge-17", "ns1"};
  const char* sublabels[] = {"example", "static-assets", "corp", "a12b3"};
  const char* tlds[] = {"com", "net", "org", "io", "co", "systems"};
  std::vector<std::string> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string s = hosts[rng.Below(5)];
    s += '.';
    s += sublabels[rng.Below(4)];
    s += std::to_string(i % 1000);
    s += '.';
    s += tlds[rng.Below(6)];
    s += '.';
    pool.push_back(std::move(s));
  }
  return pool;
}

double BenchNameParse() {
  const auto pool = NamePool(256);
  return MeasureNsPerOp([&](std::uint64_t iters) {
    std::size_t alive = 0;
    for (std::uint64_t i = 0; i < iters; ++i) {
      auto name = dns::Name::Parse(pool[i & 255]);
      alive += name->label_count();
    }
    if (alive == 1) std::printf("impossible\n");
  });
}

double BenchNameDecodeWire() {
  // Encode the pool names back to back (uncompressed), then decode in a loop.
  const auto pool = NamePool(256);
  util::ByteWriter w;
  std::vector<std::size_t> offsets;
  for (const auto& s : pool) {
    offsets.push_back(w.size());
    dns::Name::Parse(s)->EncodeWire(w);
  }
  return MeasureNsPerOp([&](std::uint64_t iters) {
    std::size_t alive = 0;
    for (std::uint64_t i = 0; i < iters; ++i) {
      util::ByteReader r(w.span());
      r.Seek(offsets[i & 255]);
      auto name = dns::Name::DecodeWire(r);
      alive += name->label_count();
    }
    if (alive == 1) std::printf("impossible\n");
  });
}

double BenchNameHash() {
  // Hash through RRsetKeyHash the way the cache does on every probe: the
  // key (and its name) lives across many lookups, so a representation that
  // caches the fold-insensitive hash amortizes to O(1).
  const auto pool = NamePool(1024);
  std::vector<dns::RRsetKey> keys;
  keys.reserve(pool.size());
  for (const auto& s : pool) {
    keys.push_back(dns::RRsetKey{*dns::Name::Parse(s), dns::RRType::kA,
                                 dns::RRClass::kIN});
  }
  const dns::RRsetKeyHash hasher;
  return MeasureNsPerOp([&](std::uint64_t iters) {
    std::size_t acc = 0;
    for (std::uint64_t i = 0; i < iters; ++i) {
      acc ^= hasher(keys[i & 1023]);
    }
    if (acc == 1) std::printf("impossible\n");
  });
}

double BenchNameEqual() {
  // Full fold-insensitive equality: the pairs differ only by case, so the
  // cached hashes agree and every comparison runs the label-by-label SIMD
  // fold-compare (the path ZoneDb lookups and cache probe confirms take).
  const auto pool = NamePool(256);
  std::vector<dns::Name> lower;
  std::vector<dns::Name> upper;
  lower.reserve(pool.size());
  upper.reserve(pool.size());
  for (const auto& s : pool) {
    std::string u = s;
    for (char& c : u) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    lower.push_back(*dns::Name::Parse(s));
    upper.push_back(*dns::Name::Parse(u));
  }
  return MeasureNsPerOp([&](std::uint64_t iters) {
    std::size_t eq = 0;
    for (std::uint64_t i = 0; i < iters; ++i) {
      eq += lower[i & 255] == upper[i & 255];
    }
    if (eq == 1) std::printf("impossible\n");
  });
}

double BenchCacheGetHit() {
  resolver::DnsCache cache;
  for (const auto& s : RootZone().AllRRsets()) cache.Put(s, 0);
  std::vector<dns::RRsetKey> keys;
  for (const auto& s : RootZone().AllRRsets()) {
    keys.push_back(s.key());
    if (keys.size() == 1024) break;
  }
  return MeasureNsPerOp([&](std::uint64_t iters) {
    std::size_t hits = 0;
    for (std::uint64_t i = 0; i < iters; ++i) {
      hits += cache.Get(keys[i & 1023], 1) != nullptr;
    }
    if (hits == 1) std::printf("impossible\n");
  });
}

double BenchCacheProbeMiss() {
  // The resolver's dominant probe in local-root mode is negative: "is this
  // TLD's referral cached?" for a name that is not there. Fill the cache
  // with the root zone, then probe keys that can never hit.
  resolver::DnsCache cache;
  for (const auto& s : RootZone().AllRRsets()) cache.Put(s, 0);
  const auto pool = NamePool(1024);
  std::vector<dns::RRsetKey> keys;
  keys.reserve(pool.size());
  for (const auto& s : pool) {
    keys.push_back(dns::RRsetKey{*dns::Name::Parse(s), dns::RRType::kA,
                                 dns::RRClass::kIN});
  }
  return MeasureNsPerOp([&](std::uint64_t iters) {
    std::size_t hits = 0;
    for (std::uint64_t i = 0; i < iters; ++i) {
      hits += cache.Get(keys[i & 1023], 1) != nullptr;
    }
    if (hits != 0) std::printf("impossible\n");
  });
}

double BenchCachePut() {
  const auto rrsets = RootZone().AllRRsets();
  resolver::DnsCache cache(8192);
  std::size_t i = 0;
  return MeasureNsPerOp([&](std::uint64_t iters) {
    for (std::uint64_t k = 0; k < iters; ++k) {
      cache.Put(rrsets[i++ % rrsets.size()], 0);
    }
  });
}

double BenchCachePutCold() {
  // Cold inserts at capacity: a pool 8x the cache size means every Put is a
  // first-sight key — probe to empty, claim a slot, evict the LRU victim.
  // This is the steady-state churn path of a bounded resolver cache.
  constexpr std::size_t kPool = 65536;
  std::vector<dns::RRset> pool;
  pool.reserve(kPool);
  for (std::size_t i = 0; i < kPool; ++i) {
    dns::RRset set;
    set.name = *dns::Name::Parse("h" + std::to_string(i) + ".example.com.");
    set.ttl = 3600;
    set.rdatas.push_back(dns::AData{});
    pool.push_back(std::move(set));
  }
  resolver::DnsCache cache(8192);
  std::size_t i = 0;
  return MeasureNsPerOp([&](std::uint64_t iters) {
    for (std::uint64_t k = 0; k < iters; ++k) {
      cache.Put(pool[i++ & (kPool - 1)], 0);
    }
  });
}

// ------------------------------------------------ snapshot-layer benches

// Referral answers through the authoritative server's wire path, three ways:
//   answer_cache_hit_ns    AnswerWire on a warm answer cache (probe + copy of
//                          the memoized wire);
//   snapshot_answer_ns     AnswerWire with answer_cache_entries = 0, so every
//                          query pays Lookup into borrowed RRsetViews plus
//                          the wire encode straight from the arena;
//   referral_build_copy_ns the materializing path the view refactor replaced
//                          (expand views into owned ResourceRecords, then
//                          encode), on the same cache-less server.
// Also reports allocations per query for the two uncached paths, counted via
// the global operator-new hook above.
struct AnswerBenchResult {
  double cache_hit_ns = 0;
  double snapshot_ns = 0;
  double copy_ns = 0;
  double snapshot_allocs = 0;
  double copy_allocs = 0;
};

AnswerBenchResult BenchReferralAnswers() {
  const zone::SnapshotPtr snapshot = zone::ZoneSnapshot::Build(RootZone());
  rootsrv::AuthServer cached(nullptr, snapshot,
                             rootsrv::AuthServer::Options{});
  rootsrv::AuthServer::Options uncached_options;
  uncached_options.answer_cache_entries = 0;
  rootsrv::AuthServer server(nullptr, snapshot, uncached_options);

  // Query pool: referrals across the delegated TLDs.
  std::vector<dns::Message> queries;
  {
    const auto children = snapshot->DelegatedChildren();
    queries.reserve(256);
    for (std::size_t i = 0; i < 256; ++i) {
      dns::Message q;
      q.header.id = static_cast<std::uint16_t>(i);
      auto name =
          dns::Name::Parse("www.example." + children[i % children.size()].tld() + ".");
      q.questions.push_back(
          {name.ok() ? *name : dns::Name(), dns::RRType::kA, dns::RRClass::kIN});
      queries.push_back(std::move(q));
    }
  }

  AnswerBenchResult result;
  std::size_t sink = 0;
  for (const auto& q : queries) sink += cached.AnswerWire(q).size();  // warm
  result.cache_hit_ns = MeasureNsPerOp([&](std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      sink += cached.AnswerWire(queries[i & 255]).size();
    }
  });
  result.snapshot_ns = MeasureNsPerOp([&](std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      sink += server.AnswerWire(queries[i & 255]).size();
    }
  });
  // The materializing path the view refactor replaced: build an owned
  // Message (one ResourceRecord per rdata), then encode it.
  result.copy_ns = MeasureNsPerOp([&](std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      sink += dns::EncodeMessage(server.Answer(queries[i & 255]), 1232).size();
    }
  });
  if (sink == 1) std::printf("impossible\n");

  constexpr std::uint64_t kAllocIters = 20000;
  std::uint64_t before = g_allocs;
  for (std::uint64_t i = 0; i < kAllocIters; ++i) {
    (void)server.AnswerWire(queries[i & 255]);
  }
  result.snapshot_allocs =
      static_cast<double>(g_allocs - before) / static_cast<double>(kAllocIters);
  before = g_allocs;
  for (std::uint64_t i = 0; i < kAllocIters; ++i) {
    (void)dns::EncodeMessage(server.Answer(queries[i & 255]), 1232);
  }
  result.copy_allocs =
      static_cast<double>(g_allocs - before) / static_cast<double>(kAllocIters);
  return result;
}

// Daily refresh, two ways: rebuilding a snapshot from scratch versus
// ZoneSnapshot::Apply of the structural day-to-day diff. Apply touches only
// the changed RRsets (one delta page + an index merge), so its cost tracks
// the diff size, not the zone size.
struct ZoneSwapBenchResult {
  double apply_ns = 0;
  double build_ns = 0;
  std::size_t shared_pages = 0;
  std::size_t delta_rrsets = 0;
  std::size_t total_rrsets = 0;
};

ZoneSwapBenchResult BenchZoneSwap() {
  zone::EvolutionConfig config;
  const zone::RootZoneModel model(config);
  const zone::Zone today = model.Snapshot({2018, 4, 11});
  const zone::Zone tomorrow = model.Snapshot({2018, 4, 12});
  const zone::SnapshotPtr base = zone::ZoneSnapshot::Build(today);
  const zone::ZoneDiff diff = zone::DiffZones(today, tomorrow);

  ZoneSwapBenchResult result;
  result.apply_ns = MeasureNsPerOp([&](std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      auto next = zone::ZoneSnapshot::Apply(base, diff);
      if (!next.ok()) std::printf("apply failed: %s\n",
                                  next.error().message().c_str());
    }
  });
  result.build_ns = MeasureNsPerOp([&](std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      auto built = zone::ZoneSnapshot::Build(tomorrow);
      if (built->rrset_count() == 0) std::printf("impossible\n");
    }
  });
  auto next = zone::ZoneSnapshot::Apply(base, diff);
  if (next.ok()) {
    result.shared_pages = (*next)->SharedPageCount(*base);
    result.delta_rrsets = (*next)->newest_page_rrset_count();
    result.total_rrsets = (*next)->rrset_count();
  }
  return result;
}

// A self-sustaining cascade: each event schedules a copy of itself, so the
// measured cost is schedule + queue + dispatch per event. A plain struct
// (not std::function) mirrors how call sites hand lambdas to Schedule.
struct ChurnPump {
  sim::Simulator* sim;
  std::uint64_t* remaining;
  void operator()() const {
    if ((*remaining)-- == 0) return;
    sim->Schedule(3, ChurnPump{sim, remaining});
  }
};

double BenchSimEventChurn() {
  return MeasureNsPerOp([&](std::uint64_t iters) {
    sim::Simulator sim;
    std::uint64_t remaining = iters;
    sim.Schedule(0, ChurnPump{&sim, &remaining});
    sim.Run();
  });
}

double BenchSimQueueMillion(sim::QueuePolicy policy) {
  // Bulk scheduling at scattered times: the O(log n) vs bucket-queue story.
  constexpr std::uint64_t kEvents = 1 << 19;  // 524k pending at peak
  const auto start = Clock::now();
  int rounds = 0;
  do {
    sim::Simulator sim(policy);
    util::Rng rng(11);
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      sim.Schedule(static_cast<sim::SimTime>(rng.Below(10 * sim::kSecond)),
                   [&fired]() { ++fired; });
    }
    sim.Run();
    if (fired != kEvents) std::printf("impossible\n");
    ++rounds;
  } while (SecondsSince(start) < 0.25);
  return SecondsSince(start) * 1e9 / (static_cast<double>(rounds) * kEvents);
}

// ------------------------------------------------ observability overhead
//
// What the metrics/trace layer itself costs, so the ≤2% hot-path budget is
// measured, not assumed: a pre-resolved counter bump, an enabled span
// start/end pair, the compiled-in-but-untraced span site (the state every
// sim run without a tracer is in), and steady-state allocations per span.
struct ObsOverheadResult {
  double counter_inc_ns = 0;
  double span_pair_ns = 0;
  double span_disabled_ns = 0;
  double span_allocs = 0;
};

ObsOverheadResult BenchObsOverhead() {
  ObsOverheadResult result;

  obs::Registry reg;  // private registry: keep the default export clean
  obs::Counter counter = reg.counter("bench.obs.counter");
  result.counter_inc_ns = MeasureNsPerOp([&](std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      counter.Inc();
      // The clobber keeps the optimizer from folding the loop into a
      // single `+= iters`; each iteration is a real load/add/store, which
      // is what an instrumented hot path actually executes.
      asm volatile("" ::: "memory");
    }
    if (counter.value() == 1) std::printf("impossible\n");
  });

  obs::SimTime clock = 0;
  obs::Tracer tracer(&clock);
  obs::Tracer* tp = &tracer;
  tracer.set_enabled(true);
  result.span_pair_ns = MeasureNsPerOp([&](std::uint64_t iters) {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < iters; ++i) {
      // Periodic Clear keeps memory bounded; capacity is retained, so the
      // steady state exercises the real push-into-reserved-storage path.
      if ((i & 0xFFFF) == 0) tracer.Clear();
      const obs::SpanId id = ROOTLESS_SPAN_START(tp, "bench.span", 0);
      ROOTLESS_SPAN_END(tp, id);
      acc += id;
    }
    if (acc == 1) std::printf("impossible\n");
  });

  obs::Tracer* none = nullptr;
  result.span_disabled_ns = MeasureNsPerOp([&](std::uint64_t iters) {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < iters; ++i) {
      const obs::SpanId id = ROOTLESS_SPAN_START(none, "bench.span", 0);
      ROOTLESS_SPAN_END(none, id);
      acc += id;
    }
    if (acc != 0) std::printf("impossible\n");
  });

  constexpr std::uint64_t kAllocIters = 20000;
  tracer.Clear();
  for (std::uint64_t i = 0; i < kAllocIters; ++i) {  // warm the capacity
    tracer.End(tracer.Start("bench.span"));
  }
  tracer.Clear();
  const std::uint64_t before = g_allocs;
  for (std::uint64_t i = 0; i < kAllocIters; ++i) {
    tracer.End(tracer.Start("bench.span"));
  }
  result.span_allocs =
      static_cast<double>(g_allocs - before) / static_cast<double>(kAllocIters);
  return result;
}

struct ReplayResult {
  double qps = 0;
  std::uint64_t queries = 0;
  std::uint64_t root_transactions = 0;
  std::uint64_t local_root_lookups = 0;
  std::uint64_t nxdomain = 0;
  std::uint64_t negative_hits = 0;
  std::uint64_t answered_from_cache = 0;
  std::uint64_t failures = 0;
  double cache_hit_rate = 0;
};

// Drives the trace through the resolver: a driver event issues each query at
// its trace timestamp (compressed 600x so cached referrals still matter).
struct ReplayPump {
  sim::Simulator* sim;
  resolver::RecursiveResolver* r;
  const traffic::Trace* trace;
  const std::vector<dns::Name>* qnames;
  std::size_t* next;
  // Built once per pass; Resolve takes it by reference, so the synchronous
  // fast paths never copy a std::function.
  const resolver::RecursiveResolver::ResolveCallback* on_done;

  void operator()() const {
    const auto& events = trace->events;
    const std::uint32_t now_sec = events[*next].time_sec;
    while (*next < events.size() && events[*next].time_sec == now_sec) {
      r->Resolve((*qnames)[events[*next].tld], dns::RRType::kA, *on_done);
      ++*next;
    }
    if (*next < events.size()) {
      const sim::SimTime when =
          static_cast<sim::SimTime>(events[*next].time_sec) * sim::kSecond /
          600;
      sim->ScheduleAt(when > sim->now() ? when : sim->now(), *this);
    }
  }
};

// One full replay pass; deterministic for the fixed seeds.
ReplayResult ReplayOnce(const zone::RootZoneModel& zone_model,
                        const traffic::Trace& trace,
                        const std::vector<dns::Name>& qnames) {
  sim::Simulator sim(sim::QueuePolicy::kCalendar);
  sim::Network net(sim, 21);
  topo::Topology topology;
  net.set_latency_fn(topology.LatencyFn());
  const zone::SnapshotPtr root_snapshot =
      zone::ZoneSnapshot::Build(zone_model.Snapshot({2018, 4, 11}));
  rootsrv::TldFarm farm(net, topology, *root_snapshot, 5);

  resolver::ResolverConfig rconfig;
  rconfig.mode = resolver::RootMode::kOnDemandZoneFile;
  rconfig.seed = 77;
  const topo::GeoPoint where{48.85, 2.35};
  resolver::RecursiveResolver r(sim, net, {rconfig, where, nullptr, &topology});
  r.SetTldFarm(&farm);
  r.SetLocalZone(root_snapshot);

  std::size_t next = 0;
  std::uint64_t done = 0;
  const resolver::RecursiveResolver::ResolveCallback on_done =
      [&done](const resolver::ResolutionResult&) { ++done; };
  const auto start = Clock::now();
  sim.ScheduleAt(0, ReplayPump{&sim, &r, &trace, &qnames, &next, &on_done});
  sim.Run();
  const double elapsed = SecondsSince(start);

  ReplayResult result;
  result.queries = trace.events.size();
  result.qps = static_cast<double>(done) / elapsed;
  const auto& stats = r.stats();
  result.root_transactions = stats.root_transactions;
  result.local_root_lookups = stats.local_root_lookups;
  result.nxdomain = stats.nxdomain;
  result.negative_hits = stats.negative_hits;
  result.answered_from_cache = stats.answered_from_cache;
  result.failures = stats.failures;
  result.cache_hit_rate = r.cache().stats().hit_rate();
  if (done != trace.events.size()) {
    std::printf("replay incomplete: %llu of %zu\n",
                static_cast<unsigned long long>(done), trace.events.size());
  }
  return result;
}

// End-to-end: a sec22-style DITL day replayed through a full resolver in
// on-demand local-root mode. Wall-clock queries/sec is the headline number
// (best of three passes; each pass replays ~1.1M queries, so one scheduler
// hiccup otherwise dominates). The resolver stats double as a behavioral-
// drift regression check: they must be identical across passes and across
// code changes for the fixed seeds.
ReplayResult BenchTrafficReplay() {
  const zone::RootZoneModel zone_model;
  std::vector<std::string> real_tlds;
  for (const auto* tld : zone_model.ActiveTlds({2018, 4, 11})) {
    real_tlds.push_back(tld->label);
  }
  traffic::WorkloadConfig config;
  config.scale = 0.0002;  // ~1.1M queries
  const traffic::Trace trace = traffic::GenerateDitlTrace(config, real_tlds);

  std::vector<dns::Name> qnames;
  qnames.reserve(trace.tlds.size());
  for (std::size_t id = 0; id < trace.tlds.size(); ++id) {
    auto n = dns::Name::Parse("www." + trace.tlds.LabelOf(
                                           static_cast<traffic::TldId>(id)) +
                              ".");
    qnames.push_back(n.ok() ? *n : dns::Name());
  }

  ReplayResult best;
  for (int pass = 0; pass < 3; ++pass) {
    ReplayResult result = ReplayOnce(zone_model, trace, qnames);
    if (pass > 0 &&
        (result.answered_from_cache != best.answered_from_cache ||
         result.nxdomain != best.nxdomain ||
         result.failures != best.failures)) {
      std::printf("replay nondeterminism detected!\n");
    }
    if (pass == 0 || result.qps > best.qps) best = result;
  }
  return best;
}

// Minimal scanner for `"key": number` pairs in a previous run's JSON. Only
// the first occurrence of each key is kept, which corresponds to the
// "metrics" block (it precedes "baseline" in our output).
std::map<std::string, double> LoadBaseline(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  if (!in) return out;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) break;
    const std::string key = text.substr(pos + 1, end - pos - 1);
    std::size_t p = end + 1;
    while (p < text.size() && (text[p] == ':' || text[p] == ' ')) ++p;
    if (p < text.size() && p > end + 1 &&
        (std::isdigit(static_cast<unsigned char>(text[p])) ||
         text[p] == '-')) {
      const double value = std::strtod(text.c_str() + p, nullptr);
      out.emplace(key, value);  // keeps first occurrence
    }
    pos = end + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_hotpath.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out FILE.json] [--baseline OLD.json]\n",
                   argv[0]);
      return 2;
    }
  }

  const rootless::obs::RunInfo run_info{
      "hotpath_bench", 77,
      "replay=ditl scale=0.0002 mode=on-demand-zone passes=3"};
  std::printf("%s", rootless::obs::RunHeader(run_info).c_str());

  std::vector<std::pair<std::string, double>> metrics;
  auto run = [&](const char* name, double value) {
    metrics.emplace_back(name, value);
    std::printf("%-28s %12.1f\n", name, value);
    std::fflush(stdout);
  };
  std::printf("%-28s %12s\n", "metric", "value");
  // The end-to-end replay runs first, on a clean heap: the micro benches
  // below allocate and free tens of megabytes (zone builds, 64k-RRset put
  // pools), and on small machines the resulting allocator state costs the
  // pointer-chasing replay 20-30% — noise that would otherwise swamp the
  // number this harness exists to track.
  const ReplayResult replay = BenchTrafficReplay();
  run("replay_qps", replay.qps);
  run("name_parse_ns", BenchNameParse());
  run("name_decode_wire_ns", BenchNameDecodeWire());
  run("name_hash_ns", BenchNameHash());
  run("name_equal_ns", BenchNameEqual());
  run("cache_get_hit_ns", BenchCacheGetHit());
  run("cache_probe_miss_ns", BenchCacheProbeMiss());
  run("cache_put_ns", BenchCachePut());
  run("cache_put_cold_ns", BenchCachePutCold());
  run("sim_event_churn_ns", BenchSimEventChurn());
  run("sim_queue_500k_ns", BenchSimQueueMillion(sim::QueuePolicy::kBinaryHeap));
  run("sim_queue_500k_cal_ns",
      BenchSimQueueMillion(sim::QueuePolicy::kCalendar));
  const AnswerBenchResult answers = BenchReferralAnswers();
  run("answer_cache_hit_ns", answers.cache_hit_ns);
  run("snapshot_answer_ns", answers.snapshot_ns);
  run("referral_build_copy_ns", answers.copy_ns);
  run("snapshot_answer_allocs", answers.snapshot_allocs);
  run("referral_build_copy_allocs", answers.copy_allocs);
  const ZoneSwapBenchResult swap = BenchZoneSwap();
  run("zone_swap_ns", swap.apply_ns);
  run("zone_build_ns", swap.build_ns);
  const ObsOverheadResult obs_overhead = BenchObsOverhead();
  run("obs_counter_inc_ns", obs_overhead.counter_inc_ns);
  run("obs_span_pair_ns", obs_overhead.span_pair_ns);
  run("obs_span_disabled_ns", obs_overhead.span_disabled_ns);
  run("obs_span_allocs", obs_overhead.span_allocs);
  std::printf("zone_swap: %zu/%zu rrsets in delta page, %zu pages shared "
              "with base\n",
              swap.delta_rrsets, swap.total_rrsets, swap.shared_pages);

  const auto baseline = LoadBaseline(baseline_path);

  std::ofstream out(out_path);
  out << "{\n  \"schema\": \"rootless-bench-hotpath-v1\",\n";
  out << "  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << "    \"" << metrics[i].first << "\": " << metrics[i].second
        << (i + 1 < metrics.size() ? "," : "") << "\n";
  }
  out << "  },\n";
  out << "  \"replay_check\": {\n"
      << "    \"queries\": " << replay.queries << ",\n"
      << "    \"root_transactions\": " << replay.root_transactions << ",\n"
      << "    \"local_root_lookups\": " << replay.local_root_lookups << ",\n"
      << "    \"nxdomain\": " << replay.nxdomain << ",\n"
      << "    \"negative_hits\": " << replay.negative_hits << ",\n"
      << "    \"answered_from_cache\": " << replay.answered_from_cache
      << ",\n"
      << "    \"failures\": " << replay.failures << ",\n"
      << "    \"cache_hit_rate\": " << replay.cache_hit_rate << "\n"
      << "  }";
  if (!baseline.empty()) {
    out << ",\n  \"baseline\": {\n";
    std::size_t i = 0;
    for (const auto& [key, value] : baseline) {
      out << "    \"" << key << "\": " << value
          << (++i < baseline.size() ? "," : "") << "\n";
    }
    out << "  },\n  \"speedup\": {\n";
    std::vector<std::string> lines;
    for (const auto& [name, value] : metrics) {
      auto it = baseline.find(name);
      if (it == baseline.end() && name.find("_cal_") != std::string::npos) {
        // The calendar-queue variant did not exist in the seed; compare it
        // against the seed's priority_queue on the same workload.
        std::string base = name;
        base.erase(base.find("_cal_"), 4);
        it = baseline.find(base);
      }
      if (it == baseline.end() || value == 0 || it->second == 0) continue;
      // ns metrics improve downward, qps upward.
      const bool higher_is_better = name.find("_qps") != std::string::npos;
      const double speedup =
          higher_is_better ? value / it->second : it->second / value;
      std::ostringstream line;
      line << "    \"" << name << "\": " << speedup;
      lines.push_back(line.str());
      std::printf("speedup %-20s %6.2fx\n", name.c_str(), speedup);
    }
    for (std::size_t k = 0; k < lines.size(); ++k) {
      out << lines[k] << (k + 1 < lines.size() ? "," : "") << "\n";
    }
    out << "  }\n";
  } else {
    out << "\n";
  }
  out << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  rootless::obs::ExportRun(run_info);
  return 0;
}
