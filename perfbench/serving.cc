// The three serving workloads (hot_referrals, junk_storm, refresh_under_load)
// and the serving-side layer probes of a traced run.
//
// Load shape (4-core budget): one UDP worker serves; two open-loop client
// threads drive it (one when the refresh thread and the upstream frontend
// also run). One worker keeps capacity a property of the answer path rather
// than of how the kernel happened to hash this run's source ports over
// SO_REUSEPORT workers; the traced run measures that spread separately.

#include <poll.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>

#include "crypto/dnssec.h"
#include "distrib/axfr_stream.h"
#include "dns/message.h"
#include "dns/wire_probe.h"
#include "load.h"
#include "net/axfr_client.h"
#include "net/event_loop.h"
#include "net/frontend.h"
#include "net/udp_server.h"
#include "workloads.h"

namespace rootbench {

using namespace rootless;
using util::Bytes;

namespace {

constexpr double kLatencyLimitUs = 1000;  // capacity: p99 limit
constexpr double kLossLimit = 0.001;      // capacity: loss limit
// Generator behind its schedule: a lateness p99 ten times the latency
// limit (VM pauses alone make it a few hundred microseconds).
constexpr double kLateLimitUs = 10000;
constexpr double kWarmSeconds = 0.3;
// hot_referrals and junk_storm alternate rounds of a fixed-rate phase and a
// saturation phase over the first 75% of --seconds, so both sample the
// whole run's share of host noise; the capacity ladder takes the rest.
constexpr double kRoundFixedSeconds = 1.5;
constexpr double kRoundSaturationSeconds = 0.5;
constexpr double kLadderShare = 0.25;
constexpr double kRungSeconds = 0.5;
constexpr double kRungStep = 1.15;  // offered-rate ratio between rungs
constexpr int kSetups = 3;
constexpr std::uint32_t kValidationNow = 1523404800;  // 2018-04-11 00:00 UTC
constexpr int kRefreshVersions = 4;

struct Shape {
  bool junk = false;
  bool refresh = false;
  int versions = 1;
  int client_threads = 2;
  // Offered qps. The fixed rate keeps the worker at most half busy, so
  // latency measures service, not queueing behind a nearly full worker.
  double fixed_rate = 0;
  double saturation_rate = 0;  // past what one worker sustains
  double ladder_base = 0;      // first capacity rung
};

Shape ShapeFor(const std::string& workload) {
  Shape s;
  if (workload == "hot_referrals") {
    s.fixed_rate = 50000;
    s.saturation_rate = 300000;
    s.ladder_base = 100000;
  } else if (workload == "junk_storm") {
    s.junk = true;
    s.fixed_rate = 10000;
    s.saturation_rate = 120000;
    s.ladder_base = 20000;
  } else {  // refresh_under_load: hot traffic at the hot fixed rate
    s.refresh = true;
    s.versions = kRefreshVersions;
    s.client_threads = 1;
    s.fixed_rate = 50000;
  }
  return s;
}

// A DnsFrontend over its own snapshot source and metrics registry, with the
// kernel ids of its worker threads for server-side CPU accounting.
class Frontend {
 public:
  Frontend(zone::SnapshotPtr snapshot, int workers, bool tcp)
      : source_(std::move(snapshot)), frontend_(source_, Options(workers, tcp)) {}
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  // Must run while no other thread is being started (tids are the threads
  // that appear across Start()).
  bool Start() {
    const std::vector<pid_t> before = ListTids();
    const bool ok = frontend_.Start().ok();
    for (const pid_t tid : ListTids()) {
      if (!std::binary_search(before.begin(), before.end(), tid)) {
        tids_.push_back(tid);
      }
    }
    return ok;
  }
  void Stop() { frontend_.Stop(); }
  std::uint64_t CpuNs() const {
    std::uint64_t total = 0;
    for (const pid_t tid : tids_) total += TidCpuNs(tid);
    return total;
  }
  net::SnapshotSource& source() { return source_; }
  net::DnsFrontend& frontend() { return frontend_; }
  const obs::Registry& registry() const { return registry_; }

 private:
  net::FrontendOptions Options(int workers, bool tcp) {
    net::FrontendOptions options;
    options.udp_workers = workers;
    options.enable_tcp = tcp;
    options.registry = &registry_;
    return options;
  }

  obs::Registry registry_;
  net::SnapshotSource source_;
  net::DnsFrontend frontend_;
  std::vector<pid_t> tids_;
};

// Per-worker UDP receive counts of a stopped frontend (instance labels are
// namespaced "w<i>.").
std::vector<double> WorkerRx(const obs::Registry& registry) {
  std::vector<double> rx;
  for (const obs::Sample& s : registry.Snapshot()) {
    if (s.name != "net.udp.rx_datagrams") continue;
    const std::size_t w = std::strtoul(s.labels.instance.c_str() + 1, nullptr, 10);
    if (rx.size() <= w) rx.resize(w + 1, 0);
    rx[w] += static_cast<double>(s.counter);
  }
  return rx;
}

LiveStats ReadLive(Frontend& f) {
  LiveStats live;
  const rootsrv::FastLaneStats fl = f.frontend().fast_lane_stats();
  const rootsrv::PipelineStats ps = f.frontend().pipeline_stats();
  const rootsrv::AuthServerStats as = f.frontend().stats();
  const double attempts =
      static_cast<double>(fl.hits + fl.parse_fallbacks + fl.cache_misses);
  const double queries = static_cast<double>(as.queries);
  live.fast_lane_hit_ratio = attempts > 0 ? static_cast<double>(fl.hits) / attempts : 0;
  if (queries > 0) {
    live.answer_cache_hit_ratio = static_cast<double>(as.cache_hits) / queries;
    live.evictions_per_kq = static_cast<double>(ps.cache_evictions) * 1000 / queries;
    live.screen_diverted_ratio = static_cast<double>(ps.screen_diverted) / queries;
  }
  double batches = 0, batched = 0, tx = 0, dropped = 0;
  for (const obs::Sample& s : f.registry().Snapshot()) {
    if (s.name == "net.udp.rx_batch_size" && s.hist != nullptr) {
      batches += static_cast<double>(s.hist->count);
      batched += static_cast<double>(s.hist->sum);
    } else if (s.name == "net.udp.tx_datagrams") {
      tx += static_cast<double>(s.counter);
    } else if (s.name == "net.udp.dropped") {
      dropped += static_cast<double>(s.counter);
    }
  }
  live.rx_batch_mean = batches > 0 ? batched / batches : 0;
  live.tx_drop_ratio = tx + dropped > 0 ? dropped / (tx + dropped) : 0;
  return live;
}

// Records wrong answers of a load phase as failed queries. With
// `check_loss`, loss past the limit marks the run's numbers invalid: it
// comes from the host pausing the VM longer than the socket buffers last,
// and no answer was wrong.
void CheckLoad(const char* phase, const LoadResult& load, bool check_loss,
               Result& result) {
  if (load.wrong) {
    result.Fail(std::string(phase) + ": " + std::to_string(load.wrong) +
                    " responses differ from the reference",
                load.wrong);
  }
  if (check_loss &&
      static_cast<double>(load.lost) > kLossLimit * static_cast<double>(load.sent)) {
    result.warnings.push_back(std::string(phase) + ": " + std::to_string(load.lost) +
                              " queries unanswered");
  }
}

// ---- zone refresh -------------------------------------------------------

struct RefreshStats {
  std::vector<double> cycle_ms, fetch_ms, all_rrsets_ms, validate_ms, visible_ms;
  std::uint64_t cycles = 0;
  std::uint64_t cpu_ns = 0;
};

// One refresh cycle = FetchZoneTcp of the upstream's next daily version,
// ValidateZoneRRsets over its rrsets, Publish to the serving frontend, and
// `. SOA` probes until the serving frontend answers from the new version.
// Before each cycle the upstream holds the version after the served one.
class Refresher {
 public:
  Refresher(const ZoneSet& zones, Frontend& upstream, Frontend& serving,
            Tracer& tracer, Result& result)
      : zones_(zones), upstream_(upstream), serving_(serving), tracer_(tracer),
        result_(result), soa_mix_{{SoaQuery()}, {0}}, soa_ref_(zones, soa_mix_) {
    upstream_.source().Publish(zones_.versions[1]);
  }

  // Returns false (and records the failure) when any step fails.
  bool Cycle() {
    const int next = (current_ + 1) % static_cast<int>(zones_.versions.size());
    const int span = tracer_.Begin("refresh.cycle");
    const std::int64_t t0 = NowNs();
    net::AxfrFetchOptions fetch_options;
    fetch_options.have_serial = zones_.serials[static_cast<std::size_t>(current_)];
    auto fetched = net::FetchZoneTcp("127.0.0.1", upstream_.frontend().tcp_port(),
                                     fetch_options);
    const std::int64_t t1 = NowNs();
    tracer_.Record("net.fetch_zone_tcp", t0, t1, span);
    if (!fetched.ok() || !*fetched) return Failed("AXFR fetch failed", span);
    const zone::SnapshotPtr snapshot = *fetched;
    const std::vector<dns::RRset> rrsets = snapshot->AllRRsets();
    const std::int64_t t2 = NowNs();
    tracer_.Record("zone.all_rrsets", t1, t2, span);
    const auto validated = crypto::ValidateZoneRRsets(rrsets, zones_.zsk.dnskey,
                                                      zones_.store, kValidationNow);
    const std::int64_t t3 = NowNs();
    tracer_.Record("crypto.validate_zone_rrsets", t2, t3, span);
    if (!validated.ok()) return Failed("fetched zone failed validation", span);
    serving_.source().Publish(snapshot);
    const std::int64_t t4 = NowNs();
    tracer_.Record("net.snapshot_publish", t3, t4, span);
    if (!AwaitVersion(next)) return Failed("new version never became visible", span);
    const std::int64_t t5 = NowNs();
    tracer_.Record("net.swap_visible", t4, t5, span);
    tracer_.End(span);

    stats.cycle_ms.push_back((t5 - t0) / 1e6);
    stats.fetch_ms.push_back((t1 - t0) / 1e6);
    stats.all_rrsets_ms.push_back((t2 - t1) / 1e6);
    stats.validate_ms.push_back((t3 - t2) / 1e6);
    stats.visible_ms.push_back((t5 - t4) / 1e6);
    ++stats.cycles;
    if (!snapshot->SameContent(*zones_.versions[static_cast<std::size_t>(next)])) {
      return Failed("fetched zone differs from the upstream version", -1);
    }
    current_ = next;
    upstream_.source().Publish(zones_.versions[static_cast<std::size_t>(
        (next + 1) % static_cast<int>(zones_.versions.size()))]);
    return true;
  }

  // Cycles back to back until `stop`; counts each cycle as one operation.
  void RunUntil(const std::atomic<bool>& stop) {
    const std::uint64_t cpu0 = ThreadCpuNs();
    while (!stop.load(std::memory_order_relaxed)) {
      ++attempted;
      if (!Cycle()) break;
    }
    stats.cpu_ns = ThreadCpuNs() - cpu0;
  }

  RefreshStats stats;
  std::uint64_t attempted = 0;

 private:
  // Runs on the refresh thread while the main thread only waits in the load
  // generator, so recording into the result needs no lock.
  bool Failed(const std::string& what, int span) {
    tracer_.End(span);
    result_.Fail("refresh cycle " + std::to_string(stats.cycles + 1) + ": " + what);
    return false;
  }

  // Polls the serving frontend with `. SOA` until it answers from version
  // `v` (2 s budget). Any answer that is neither the old nor the new
  // version's is a failure.
  bool AwaitVersion(int v) {
    const int fd = OpenClientSocket(serving_.frontend().udp_port());
    if (fd < 0) return false;
    const Bytes& want = soa_ref_.Answer(v, 0);
    const Bytes& old = soa_ref_.Answer(current_, 0);
    Bytes query = soa_mix_.datagrams[0];
    std::uint8_t buf[4096];
    bool seen = false;
    const std::int64_t deadline = NowNs() + 2'000'000'000;
    for (std::uint16_t id = 1; !seen && NowNs() < deadline; ++id) {
      query[0] = static_cast<std::uint8_t>(id >> 8);
      query[1] = static_cast<std::uint8_t>(id & 0xFF);
      if (::send(fd, query.data(), query.size(), 0) < 0) break;
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 2) <= 0) continue;
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 2) continue;
      auto same = [&](const Bytes& a) {
        return a.size() == static_cast<std::size_t>(n) &&
               std::memcmp(a.data() + 2, buf + 2, a.size() - 2) == 0;
      };
      if (same(want)) {
        seen = true;
      } else if (!same(old)) {
        break;
      }
    }
    ::close(fd);
    return seen;
  }

  const ZoneSet& zones_;
  Frontend& upstream_;
  Frontend& serving_;
  Tracer& tracer_;
  Result& result_;
  QueryMix soa_mix_;
  Reference soa_ref_;
  int current_ = 0;  // version the serving frontend holds
};

// Everything built before measuring; what setup_s times.
struct Setup {
  ZoneSet zones;
  QueryMix mix;
  std::unique_ptr<Reference> reference;
  std::unique_ptr<Frontend> serving;
  std::unique_ptr<Frontend> upstream;  // refresh_under_load only
};

std::unique_ptr<Setup> MakeSetup(const Shape& shape, std::uint64_t seed,
                                 Tracer& tracer, int span) {
  auto setup = std::make_unique<Setup>();
  setup->zones = BuildZones(shape.versions, tracer, span);
  {
    ScopedSpan s(tracer, "bench.query_generation", span);
    setup->mix = shape.junk ? MakeJunkMix(setup->zones.tlds, seed)
                            : MakeHotMix(setup->zones.tlds, seed);
  }
  {
    ScopedSpan s(tracer, "bench.reference_answers", span);
    setup->reference = std::make_unique<Reference>(setup->zones, setup->mix);
  }
  ScopedSpan s(tracer, "net.frontend_start", span);
  setup->serving = std::make_unique<Frontend>(setup->zones.versions[0], 1, false);
  if (!setup->serving->Start()) return nullptr;
  if (shape.refresh) {
    setup->upstream = std::make_unique<Frontend>(setup->zones.versions[1], 1, true);
    if (!setup->upstream->Start()) return nullptr;
  }
  return setup;
}

}  // namespace

void RunServing(const RunOptions& options, Result& result, Tracer& tracer) {
  const Shape shape = ShapeFor(options.workload);
  std::vector<double> setup_times;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    const int span = tracer.Begin("setup");
    const std::int64_t t0 = NowNs();
    setup = MakeSetup(shape, options.seed, tracer, span);
    setup_times.push_back((NowNs() - t0) / 1e9);
    tracer.End(span);
    if (!setup) {
      result.Fail("setup: frontend failed to start");
      return;
    }
  }
  result.Add("setup_s", Median(setup_times), "s");
  if (setup->reference->silent_count()) {
    result.Fail("setup: " + std::to_string(setup->reference->silent_count()) +
                " generated queries have no answer");
  }
  if (options.corrupt_reference) {
    setup->reference->Corrupt(setup->mix.sequence[0]);
  }
  Frontend& serving = *setup->serving;

  LoadSpec spec;
  spec.port = serving.frontend().udp_port();
  spec.threads = shape.client_threads;
  spec.seed = options.seed;
  // Runs one open-loop phase; returns it with the serving worker's CPU.
  auto run = [&](const char* name, double rate, double seconds, std::uint64_t* cpu_ns) {
    ScopedSpan span(tracer, name);
    spec.rate_qps = rate;
    spec.seconds = seconds;
    const std::uint64_t cpu0 = serving.CpuNs();
    LoadResult r = RunOpenLoop(spec, setup->mix, setup->reference.get());
    if (cpu_ns != nullptr) *cpu_ns = serving.CpuNs() - cpu0;
    spec.first_query = r.next_query;
    spec.seed += 1;
    return r;
  };
  auto per_query = [](std::uint64_t ns, std::uint64_t queries) {
    return queries ? static_cast<double>(ns) / static_cast<double>(queries) : 0;
  };

  const LoadResult warm = run("bench.warm_up", shape.fixed_rate, kWarmSeconds, nullptr);
  result.attempted += warm.sent;
  CheckLoad("warm-up", warm, true, result);

  // Fixed-rate phase; refresh_under_load refreshes back to back meanwhile,
  // the other two alternate it with saturation rounds.
  std::unique_ptr<Refresher> refresher;
  std::atomic<bool> stop_refresh{false};
  std::thread refresh_thread;
  if (shape.refresh) {
    refresher = std::make_unique<Refresher>(setup->zones, *setup->upstream,
                                            serving, tracer, result);
    refresh_thread = std::thread([&] { refresher->RunUntil(stop_refresh); });
  }
  LoadResult fixed;
  std::vector<double> fixed_cpu_per_query, saturated_qps_per_cpu;
  const int rounds =
      shape.refresh ? 1
                    : std::max(1, static_cast<int>((1 - kLadderShare) * options.seconds /
                                                   (kRoundFixedSeconds + kRoundSaturationSeconds)));
  for (int round = 0; round < rounds; ++round) {
    std::uint64_t cpu = 0;
    LoadResult r = run("bench.fixed_rate", shape.fixed_rate,
                       shape.refresh ? options.seconds : kRoundFixedSeconds, &cpu);
    fixed_cpu_per_query.push_back(per_query(cpu, r.answered));
    if (round == 0) {
      fixed = std::move(r);
    } else {
      fixed.Append(std::move(r));
    }
    if (shape.refresh) break;
    // Saturation: offered load well past what one worker sustains, so the
    // worker never idles; answered queries per CPU-second of that worker.
    // Unlike wall-clock capacity, this does not count the host's pauses.
    const LoadResult saturated = run("bench.saturation", shape.saturation_rate,
                                     kRoundSaturationSeconds, &cpu);
    CheckLoad("saturation", saturated, false, result);
    if (cpu > 0) {
      saturated_qps_per_cpu.push_back(static_cast<double>(saturated.answered) * 1e9 /
                                      static_cast<double>(cpu));
    }
  }
  if (refresh_thread.joinable()) {
    stop_refresh.store(true);
    refresh_thread.join();
    result.attempted += refresher->attempted;
  }
  result.attempted += fixed.sent;
  CheckLoad("fixed rate", fixed, true, result);
  const double late_p99 = fixed.LatePercentileUs(99);
  if (late_p99 > kLateLimitUs) {
    result.warnings.push_back("generator fell behind its schedule (late p99 " +
                              std::to_string(late_p99) + " us)");
  }
  const double server_cpu_per_query = Median(fixed_cpu_per_query);
  result.Add("p50_us", fixed.WindowMedianUs(50), "us");
  result.Add("p99_us", fixed.WindowMedianUs(99), "us");
  result.Add("p99_phase_us", fixed.LatencyPercentileUs(99), "us");
  result.Add("p999_phase_us", fixed.LatencyPercentileUs(99.9), "us");
  result.Add("latency_samples", static_cast<double>(fixed.sent), "count");
  result.Add("loss_ratio", fixed.loss_ratio(), "ratio");
  result.Add("server_cpu_ns_per_query", server_cpu_per_query, "ns");
  result.Add("cpu_ns_per_query", server_cpu_per_query, "ns");
  result.Add("bench.generator_late_p99_us", late_p99, "us");
  result.Add("bench.loss_ratio", fixed.loss_ratio(), "ratio");
  result.info.emplace_back("offered_qps", std::to_string(shape.fixed_rate));
  result.info.emplace_back("client_cpu_ns_per_query",
                           std::to_string(per_query(fixed.client_cpu_ns, fixed.sent)));

  if (shape.refresh) {
    const RefreshStats& rs = refresher->stats;
    const double cycle_ms = Median(rs.cycle_ms);
    result.Add("refresh_cycle_ms", cycle_ms, "ms");
    result.Add("refresh_cycles", static_cast<double>(rs.cycles), "count");
    result.Add("throughput", cycle_ms > 0 ? 1000.0 / cycle_ms : 0, "1/s");
    if (rs.cycles == 0) result.Fail("no refresh cycle completed");
    result.info.emplace_back("refresh_thread_cpu_ms", std::to_string(rs.cpu_ns / 1e6));
  } else {
    const double saturation = Median(saturated_qps_per_cpu);
    result.Add("saturation_qps_per_cpu", saturation, "1/s");
    result.Add("throughput", saturation, "1/s");

    // Capacity ladder: ascending fixed rungs; the highest rung whose median
    // 100 ms window meets p99 <= 1 ms and loss <= 0.1%, without a growing
    // backlog. One failed rung is tolerated, two in a row end the climb.
    const std::int64_t ladder_end =
        NowNs() + static_cast<std::int64_t>(kLadderShare * options.seconds * 1e9);
    double capacity = 0;
    int failures_in_row = 0;
    const int ladder_span = tracer.Begin("bench.capacity_ladder");
    for (int rung = 0; failures_in_row < 2; ++rung) {
      if (NowNs() + static_cast<std::int64_t>(kRungSeconds * 1e9) > ladder_end) break;
      double rate = shape.ladder_base;
      for (int i = 0; i < rung; ++i) rate *= kRungStep;
      const LoadResult r = run("bench.capacity_rung", rate, kRungSeconds, nullptr);
      CheckLoad("capacity ladder", r, false, result);
      const double passing = r.PassingWindowShare(kLatencyLimitUs, kLossLimit);
      const bool ok = passing > 0.5 &&
                      static_cast<double>(r.backlog) <= rate * kLatencyLimitUs / 1e6;
      std::fprintf(stderr,
                   "%s rung %d: offered %.0f qps, answered %.0f qps, windows "
                   "passing %.2f, p99 %.0f us, backlog %llu\n",
                   options.workload.c_str(), rung, rate, r.answered_qps(), passing,
                   r.WindowMedianUs(99), static_cast<unsigned long long>(r.backlog));
      if (ok) {
        capacity = r.answered_qps();
        failures_in_row = 0;
      } else {
        ++failures_in_row;
      }
    }
    tracer.End(ladder_span);
    result.Add("capacity_qps", capacity, "1/s");
  }

  serving.Stop();
  if (setup->upstream) setup->upstream->Stop();
  const LiveStats live = ReadLive(serving);
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  if (!options.trace) return;

  // ---- traced run: layer probes and the closure table ------------------
  AddLiveLayers(live, result);
  const double echo_ns = AddSocketLayers(setup->zones, setup->mix, *setup->reference,
                                         shape.fixed_rate, options.seed, result, tracer);
  const AnswerPathCosts costs =
      AddAnswerPathLayers(setup->zones, setup->mix, result, tracer);
  if (shape.refresh) {
    const RefreshStats& rs = refresher->stats;
    result.Add("net.axfr_fetch_ms", Median(rs.fetch_ms), "ms");
    result.Add("zone.all_rrsets_ms", Median(rs.all_rrsets_ms), "ms");
    result.Add("crypto.validate_ms", Median(rs.validate_ms), "ms");
    result.Add("net.swap_visible_ms", Median(rs.visible_ms), "ms");
  }
  AddRefreshLayers(setup->zones, !shape.refresh, result, tracer);
  AddReplayLayers(options.seed, -1, result, tracer);
  result.Add("bench.trace_overhead_ratio", costs.trace_overhead, "ratio");

  const double miss = 1 - live.fast_lane_hit_ratio;
  result.layers = {
      {"net.socket_path", echo_ns, "constant-response UdpServer, same rate"},
      {"rootsrv.fast_lane_hit", costs.fast_lane_hit_ns * live.fast_lane_hit_ratio,
       "TryFastLane hit ns x live hit share"},
      {"rootsrv.fast_lane_miss", costs.fast_lane_miss_ns * miss,
       "TryFastLane miss ns x live miss share"},
      {"rootsrv.answer_datagram", costs.answer_datagram_ns * miss,
       "AnswerDatagram ns x live miss share"},
  };
  result.layers_total_ns = server_cpu_per_query;
}

// ---- layer probes ------------------------------------------------------

void AddLiveLayers(const LiveStats& live, Result& result) {
  result.Add("rootsrv.fast_lane_hit_ratio", live.fast_lane_hit_ratio, "ratio");
  result.Add("rootsrv.answer_cache_hit_ratio", live.answer_cache_hit_ratio, "ratio");
  result.Add("rootsrv.answer_cache_evictions_per_kq", live.evictions_per_kq, "count");
  result.Add("rootsrv.screen_diverted_ratio", live.screen_diverted_ratio, "ratio");
  result.Add("net.rx_batch_mean", live.rx_batch_mean, "count");
  result.Add("net.tx_drop_ratio", live.tx_drop_ratio, "ratio");
}

double AddSocketLayers(const ZoneSet& zones, const QueryMix& mix,
                       const Reference& reference, double rate_qps,
                       std::uint64_t seed, Result& result, Tracer& tracer) {
  constexpr double kSeconds = 1.0;
  LoadSpec spec;
  spec.rate_qps = rate_qps;
  spec.seconds = kSeconds;
  spec.threads = 2;
  spec.seed = seed ^ 0xEC40;

  // Echo: a bare UdpServer whose fast lane answers every datagram with one
  // constant response of a typical answer's size — the socket path alone.
  double echo_ns = 0;
  {
    ScopedSpan span(tracer, "net.echo_server");
    const Bytes answer = reference.Answer(0, mix.sequence[0]);
    obs::Registry registry;
    std::unique_ptr<net::EventLoop> loop = net::EventLoop::Create();
    net::UdpServer::Options udp_options;
    udp_options.registry = &registry;
    auto udp = net::UdpServer::Bind(*loop, udp_options);
    if (!loop->ok() || !udp.ok()) {
      result.Fail("echo server failed to start");
      return 0;
    }
    net::UdpServer& server = **udp;
    server.AddNode([](const net::Packet&) {});
    server.SetFastLane([&answer](std::span<const std::uint8_t> datagram, std::uint64_t,
                                 std::uint8_t* out, std::size_t capacity,
                                 std::size_t& out_size) {
      if (datagram.size() < 2 || answer.size() > capacity) return net::FastVerdict::kMiss;
      std::memcpy(out, answer.data(), answer.size());
      out[0] = datagram[0];
      out[1] = datagram[1];
      out_size = answer.size();
      return net::FastVerdict::kResponded;
    });
    std::atomic<bool> stop{false};
    std::atomic<pid_t> tid{0};
    std::thread worker([&] {
      tid.store(static_cast<pid_t>(::syscall(SYS_gettid)));
      while (!stop.load(std::memory_order_relaxed)) loop->PollOnce(20);
    });
    while (tid.load() == 0) std::this_thread::yield();
    spec.port = server.port();
    spec.constant_answer = &answer;
    const std::uint64_t cpu0 = TidCpuNs(tid.load());
    const LoadResult r = RunOpenLoop(spec, mix, nullptr);
    const std::uint64_t cpu = TidCpuNs(tid.load()) - cpu0;
    stop.store(true);
    loop->Stop();
    worker.join();
    CheckLoad("echo server", r, false, result);
    echo_ns = r.answered ? static_cast<double>(cpu) / static_cast<double>(r.answered) : 0;
    result.Add("net.echo_cpu_ns_per_query", echo_ns, "ns");
  }

  // SO_REUSEPORT spread: two workers, the client's four source sockets.
  {
    ScopedSpan span(tracer, "net.two_worker_spread");
    Frontend two(zones.versions[0], 2, false);
    if (!two.Start()) {
      result.Fail("two-worker frontend failed to start");
      return echo_ns;
    }
    spec.port = two.frontend().udp_port();
    spec.constant_answer = nullptr;
    const LoadResult r = RunOpenLoop(spec, mix, &reference);
    two.Stop();
    CheckLoad("two-worker spread", r, false, result);
    const std::vector<double> rx = WorkerRx(two.registry());
    double total = 0, least = rx.empty() ? 0 : rx.front();
    for (const double v : rx) {
      total += v;
      least = std::min(least, v);
    }
    result.Add("net.worker_rx_share_min",
               total > 0 ? least * static_cast<double>(rx.size()) / total : 0, "ratio");
  }
  return echo_ns;
}

LiveStats ServeBriefly(const ZoneSet& zones, const QueryMix& mix,
                       const Reference& reference, double rate_qps,
                       double seconds, std::uint64_t seed, Result& result) {
  Frontend f(zones.versions[0], 1, false);
  if (!f.Start()) {
    result.Fail("frontend failed to start");
    return {};
  }
  LoadSpec spec;
  spec.port = f.frontend().udp_port();
  spec.rate_qps = rate_qps;
  spec.seconds = seconds;
  spec.threads = 2;
  spec.seed = seed;
  const LoadResult r = RunOpenLoop(spec, mix, &reference);
  f.Stop();
  CheckLoad("replay-mix serving", r, false, result);
  result.Add("bench.generator_late_p99_us", r.LatePercentileUs(99), "us");
  result.Add("bench.loss_ratio", r.loss_ratio(), "ratio");
  return ReadLive(f);
}

AnswerPathCosts AddAnswerPathLayers(const ZoneSet& zones, const QueryMix& mix,
                                    Result& result, Tracer& tracer) {
  constexpr std::size_t kMaxPass = 1 << 17;
  constexpr std::size_t kSpanSample = 2000;  // per-query spans recorded
  constexpr std::size_t kBlock = 1024;       // warm-then-time block
  const zone::SnapshotPtr& snapshot = zones.versions[0];
  const std::size_t n = std::min(mix.sequence.size(), kMaxPass);
  std::vector<std::span<const std::uint8_t>> pass;
  pass.reserve(n);
  for (std::size_t k = 0; k < n; ++k) pass.emplace_back(mix.datagrams[mix.sequence[k]]);
  auto per_query = [](std::int64_t ns, std::size_t count) {
    return count ? static_cast<double>(ns) / static_cast<double>(count) : 0;
  };

  // dns: shallow parse and full decode over the pass.
  {
    ScopedSpan span(tracer, "dns.shallow_parse_query");
    dns::WireProbe probe;
    std::size_t accepted = 0;
    const std::int64_t t0 = NowNs();
    for (const auto& d : pass) accepted += dns::ShallowParseQuery(d, probe);
    result.Add("dns.shallow_parse_ns", per_query(NowNs() - t0, n), "ns");
    result.Add("dns.shallow_parse_accept_ratio",
               n ? static_cast<double>(accepted) / static_cast<double>(n) : 0, "ratio");
  }
  std::vector<dns::Message> decoded;
  decoded.reserve(n);
  {
    ScopedSpan span(tracer, "dns.decode_message");
    const std::int64_t t0 = NowNs();
    for (const auto& d : pass) {
      auto m = dns::DecodeMessage(d);
      if (m.ok()) decoded.push_back(std::move(*m));
    }
    result.Add("dns.decode_ns", per_query(NowNs() - t0, n), "ns");
  }

  // zone: the snapshot lookup behind every live answer.
  {
    ScopedSpan span(tracer, "zone.snapshot_lookup");
    zone::LookupView view;
    std::size_t count = 0;
    const std::int64_t t0 = NowNs();
    for (const dns::Message& m : decoded) {
      if (m.questions.size() != 1) continue;
      snapshot->Lookup(m.questions[0].name, m.questions[0].type, true, view);
      ++count;
    }
    result.Add("zone.lookup_ns", per_query(NowNs() - t0, count), "ns");
  }

  // rootsrv: AnswerWire on a warm cache (each block answered once untimed,
  // then timed) and with the cache disabled (always SnapshotAnswer).
  {
    ScopedSpan span(tracer, "rootsrv.answer_wire");
    obs::Registry registry;
    rootsrv::AuthServer warm(nullptr, snapshot, FrontendAuthOptions(&registry, 16384));
    rootsrv::AuthServer cold(nullptr, snapshot, FrontendAuthOptions(&registry, 0));
    std::int64_t hit_ns = 0, cold_ns = 0;
    for (std::size_t b = 0; b < decoded.size(); b += kBlock) {
      const std::size_t e = std::min(decoded.size(), b + kBlock);
      for (std::size_t i = b; i < e; ++i) warm.AnswerWire(decoded[i]);
      std::int64_t t0 = NowNs();
      for (std::size_t i = b; i < e; ++i) warm.AnswerWire(decoded[i]);
      hit_ns += NowNs() - t0;
      t0 = NowNs();
      for (std::size_t i = b; i < e; ++i) cold.AnswerWire(decoded[i]);
      cold_ns += NowNs() - t0;
    }
    result.Add("rootsrv.answer_cache_hit_ns", per_query(hit_ns, decoded.size()), "ns");
    result.Add("rootsrv.snapshot_answer_ns", per_query(cold_ns, decoded.size()), "ns");
  }

  // The UDP worker's decision sequence in send order — TryFastLane, and
  // AnswerDatagram on a miss — once untimed and once with every call timed.
  std::uint8_t out[4096];
  std::size_t out_size = 0;
  obs::Registry registry;
  rootsrv::AuthServer untimed(nullptr, snapshot, FrontendAuthOptions(&registry, 16384));
  std::vector<bool> hits(n);
  const std::int64_t u0 = NowNs();
  for (std::size_t k = 0; k < n; ++k) {
    hits[k] = untimed.TryFastLane(pass[k], 0, out, sizeof(out), out_size) ==
              net::FastVerdict::kResponded;
    if (!hits[k]) untimed.AnswerDatagram(pass[k], 0);
  }
  const std::int64_t untimed_ns = NowNs() - u0;

  std::int64_t clock_ns = 0;  // cost of one NowNs() pair, subtracted per call
  {
    constexpr int kCalibrate = 100000;
    const std::int64_t c0 = NowNs();
    std::int64_t sink = 0;
    for (int i = 0; i < kCalibrate; ++i) sink += NowNs() - NowNs();
    clock_ns = (NowNs() - c0 + sink) / kCalibrate / 2;
  }
  AnswerPathCosts costs;
  rootsrv::AuthServer timed(nullptr, snapshot, FrontendAuthOptions(&registry, 16384));
  std::int64_t hit_ns = 0, miss_ns = 0, slow_ns = 0;
  std::size_t hit_count = 0, miss_count = 0;
  const int pass_span = tracer.Begin("rootsrv.udp_worker_pass");
  const std::int64_t t_start = NowNs();
  for (std::size_t k = 0; k < n; ++k) {
    const std::int64_t t0 = NowNs();
    const bool hit = timed.TryFastLane(pass[k], 0, out, sizeof(out), out_size) ==
                     net::FastVerdict::kResponded;
    const std::int64_t t1 = NowNs();
    std::int64_t t2 = t1;
    if (!hit) {
      timed.AnswerDatagram(pass[k], 0);
      t2 = NowNs();
    }
    if (hit) {
      hit_ns += t1 - t0 - clock_ns;
      ++hit_count;
    } else {
      miss_ns += t1 - t0 - clock_ns;
      slow_ns += t2 - t1 - clock_ns;
      ++miss_count;
    }
    if (k < kSpanSample && tracer.enabled()) {
      const int q = tracer.Record("query", t0, t2, pass_span);
      tracer.Record("rootsrv.try_fast_lane", t0, t1, q);
      if (!hit) tracer.Record("rootsrv.answer_datagram", t1, t2, q);
    }
  }
  const std::int64_t timed_ns = NowNs() - t_start;
  tracer.End(pass_span);
  costs.fast_lane_hit_ns = per_query(hit_ns, hit_count);
  costs.fast_lane_miss_ns = per_query(miss_ns, miss_count);
  costs.answer_datagram_ns = per_query(slow_ns, miss_count);
  result.Add("rootsrv.fast_lane_hit_ns", costs.fast_lane_hit_ns, "ns");
  result.Add("rootsrv.fast_lane_miss_ns", costs.fast_lane_miss_ns, "ns");
  result.Add("rootsrv.answer_datagram_ns", costs.answer_datagram_ns, "ns");
  costs.trace_overhead =
      untimed_ns > 0 ? static_cast<double>(timed_ns) / static_cast<double>(untimed_ns) - 1 : 0;

  // Post-swap refill: after a zone swap drops the answer cache, queries in
  // send order until the hit share of the last 1024 is back to 95% of what
  // it was before the swap.
  {
    constexpr std::size_t kWindow = 1024;
    std::size_t before = 0;
    for (std::size_t k = n - std::min(n, kWindow); k < n; ++k) before += hits[k];
    const double target = 0.95 * static_cast<double>(before) /
                          static_cast<double>(std::min(n, kWindow));
    untimed.SetZone(zones.versions.back());
    std::vector<bool> window;
    std::size_t in_window = 0, refill = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const bool hit = untimed.TryFastLane(pass[k], 0, out, sizeof(out), out_size) ==
                       net::FastVerdict::kResponded;
      if (!hit) untimed.AnswerDatagram(pass[k], 0);
      window.push_back(hit);
      in_window += hit;
      if (window.size() > kWindow) in_window -= window[window.size() - kWindow - 1];
      refill = k + 1;
      if (window.size() >= kWindow &&
          static_cast<double>(in_window) / static_cast<double>(kWindow) >= target) {
        break;
      }
    }
    result.Add("rootsrv.post_swap_refill_queries", static_cast<double>(refill), "count");
  }
  return costs;
}

void AddRefreshLayers(const ZoneSet& zones, bool run_cycles, Result& result,
                      Tracer& tracer) {
  constexpr int kCycles = 3;
  if (zones.versions.size() < 2) {
    Tracer quiet;
    AddRefreshLayers(BuildZones(2, quiet, Tracer::kNoParent), run_cycles, result, tracer);
    return;
  }
  if (run_cycles) {
    Frontend upstream(zones.versions[1], 1, true);
    Frontend serving(zones.versions[0], 1, false);
    if (!upstream.Start() || !serving.Start()) {
      result.Fail("refresh probe: frontend failed to start");
      return;
    }
    Refresher refresher(zones, upstream, serving, tracer, result);
    for (int i = 0; i < kCycles && refresher.Cycle(); ++i) {
    }
    upstream.Stop();
    serving.Stop();
    const RefreshStats& rs = refresher.stats;
    result.Add("net.axfr_fetch_ms", Median(rs.fetch_ms), "ms");
    result.Add("zone.all_rrsets_ms", Median(rs.all_rrsets_ms), "ms");
    result.Add("crypto.validate_ms", Median(rs.validate_ms), "ms");
    result.Add("net.swap_visible_ms", Median(rs.visible_ms), "ms");
  }
  // The AXFR stream's two halves, called directly: the upstream's encoder
  // and the fetcher's reassembly.
  std::vector<double> build_ms, assemble_ms;
  const auto query = dns::MakeQuery(1, dns::Name(), dns::RRType::kAXFR);
  for (int i = 0; i < kCycles; ++i) {
    std::int64_t t0 = NowNs();
    std::vector<Bytes> stream;
    {
      ScopedSpan span(tracer, "distrib.build_axfr_stream");
      stream = distrib::BuildAxfrStream(*zones.versions[1], query);
    }
    build_ms.push_back((NowNs() - t0) / 1e6);
    t0 = NowNs();
    {
      ScopedSpan span(tracer, "distrib.assemble_axfr_stream");
      auto assembled = distrib::AssembleAxfrStream(stream);
      if (!assembled.ok() || !(*assembled)->SameContent(*zones.versions[1])) {
        result.Fail("AXFR stream did not reassemble to the zone");
      }
    }
    assemble_ms.push_back((NowNs() - t0) / 1e6);
  }
  result.Add("distrib.axfr_stream_build_ms", Median(build_ms), "ms");
  result.Add("distrib.axfr_assemble_ms", Median(assemble_ms), "ms");
}

}  // namespace rootbench
